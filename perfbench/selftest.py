"""Unit tests for the benchmark's own logic (no server, no training).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import threading
import unittest
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import client  # noqa: E402
import procmem  # noqa: E402
import stats  # noqa: E402
from tracing import LayerSummary, Recorder  # noqa: E402


class TailRule(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        self.assertEqual(stats.tail_percentile(300), 95.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_tail_value_and_label(self):
        values = list(range(1, 1001))
        self.assertEqual(stats.tail(values), (990.0, "p99 of 1000"))
        self.assertEqual(stats.tail([3.0, 9.0, 1.0]),
                         (3.0, "median of 3 (too few for a tail)"))
        self.assertEqual(stats.tail(values, 90.0), (900.0, "p90 of 1000"))
        self.assertEqual(stats.tail(values[:99], 90.0), (75.0, "p75 of 99"))
        self.assertEqual(stats.tail(values[:20], 90.0), (10.0, "p50 of 20"))

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3.0)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 50), 2.0)
        self.assertEqual(stats.percentile([1, 2, 3, 4], 100), 4.0)


class LadderRule(unittest.TestCase):
    def test_first_step_failing_gives_zero(self):
        self.assertEqual(stats.sustainable_rate([(20.0, False)]), (0.0, 1))

    def test_stops_at_first_failure_without_running_later_steps(self):
        ran = []

        def steps():
            for rate, passed in ((20.0, True), (40.0, True), (80.0, False),
                                 (160.0, True)):
                ran.append(rate)
                yield rate, passed

        self.assertEqual(stats.sustainable_rate(steps()), (40.0, 3))
        self.assertEqual(ran, [20.0, 40.0, 80.0])

    def test_slo_step(self):
        fast = [5.0] * 99
        self.assertTrue(stats.slo_pass(fast + [80.0], 0, 100, 100))
        self.assertFalse(stats.slo_pass(fast[:-1] + [80.0, 90.0], 0, 100, 100))
        self.assertFalse(stats.slo_pass(fast + [5.0], 1, 100, 99))
        self.assertFalse(stats.slo_pass(fast[:90], 0, 100, 90))


class SelfTime(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        # children cover [1, 6] and [8, 10] of the parent's [0, 10]
        self.assertAlmostEqual(
            stats.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]),
            3.0)

    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertEqual(stats.union_length([(0, 2), (0, 2), (1, 3)]), 3.0)
        self.assertEqual(stats.union_length([(0, 1), (2, 3)], clip=(0.5, 2.5)),
                         1.0)

    def test_layer_summary(self):
        spans = [
            # id, parent, name, start, end, thread, attr
            (0, -1, "root", 0.0, 10.0, 1, None),
            (1, 0, "a", 1.0, 4.0, 1, None),
            (2, 0, "b", 3.0, 6.0, 2, None),
            (3, 1, "a", 2.0, 3.0, 1, None),   # recursion: counted once
        ]
        summary = LayerSummary(spans)
        self.assertAlmostEqual(summary.self_s["root"], 5.0)
        self.assertAlmostEqual(summary.self_s["a"], 2.0 + 1.0)
        self.assertAlmostEqual(summary.total_s("a"), 3.0)

    def test_recorder_nests_spans_per_thread(self):
        recorder = Recorder()
        inner = recorder.wrap("inner", lambda: None)
        outer = recorder.wrap("outer", lambda: inner())
        outer()
        by_name = {span[2]: span for span in recorder.spans}
        self.assertEqual(by_name["inner"][1], by_name["outer"][0])
        self.assertEqual(by_name["outer"][1], -1)

    def test_recorder_iterator_spans_exclude_consumer(self):
        recorder = Recorder()
        produce = recorder.wrap_iter("produce", lambda: iter(range(3)))
        self.assertEqual(list(produce()), [0, 1, 2])
        self.assertEqual(len(recorder.spans), 4)   # three items + the end


class Checker(unittest.TestCase):
    EXPECTED = ([7, 3, 9], [0.5, 0.25, 0.125])

    def body(self, items, scores):
        return json.dumps({"items": items, "scores": scores}).encode()

    def test_exact_match_passes(self):
        self.assertIsNone(check.check_single(
            200, self.body(*self.EXPECTED), self.EXPECTED))

    def test_corrupted_score_is_flagged(self):
        scores = list(self.EXPECTED[1])
        scores[2] = 0.12500000000000003
        self.assertIn("scores", check.check_single(
            200, self.body(self.EXPECTED[0], scores), self.EXPECTED))

    def test_reordered_items_are_flagged(self):
        self.assertIn("items", check.check_single(
            200, self.body([3, 7, 9], self.EXPECTED[1]), self.EXPECTED))

    def test_http_500_is_flagged(self):
        self.assertEqual(check.check_single(
            500, b'{"error": "internal error"}', self.EXPECTED), "HTTP 500")

    def test_missing_response_is_flagged(self):
        self.assertEqual(check.check_single(client.NO_RESPONSE, None,
                                            self.EXPECTED), "no response")

    def test_burst(self):
        good = {"items": self.EXPECTED[0], "scores": self.EXPECTED[1]}
        bad = dict(good, scores=[0.5, 0.25, 0.0])
        body = json.dumps({"responses": [good, bad]}).encode()
        reasons = check.check_burst(200, body, 3,
                                    {0: self.EXPECTED, 1: self.EXPECTED})
        self.assertIsNone(reasons[0])
        self.assertIn("scores", reasons[1])
        self.assertEqual(reasons[2], "missing response")
        self.assertEqual(check.check_burst(500, b"", 2, {}),
                         ["HTTP 500", "HTTP 500"])

    def test_training(self):
        sound = {"losses": [3.0, 2.0], "test": {"recall@20": 0.1}}
        self.assertEqual(check.check_training({"m": sound}), [])
        self.assertEqual(len(check.check_training(
            {"m": dict(sound, losses=[float("nan")])})), 1)
        self.assertEqual(len(check.check_training(
            {"m": dict(sound, test={"recall@20": 1.5})})), 1)


class KeepAliveClient(unittest.TestCase):
    def test_one_connection_many_requests(self):
        peers = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers["Content-Length"])
                payload = json.loads(self.rfile.read(length))
                peers.append(self.client_address)
                body = json.dumps({"echo": payload["n"]}).encode()
                self.send_response(200 if payload["n"] % 3 else 429)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            bodies = [json.dumps({"n": n}).encode() for n in range(1, 7)]
            records = client.open_loop(server.server_address[1], bodies,
                                       [0.0] * len(bodies), connections=1)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(5)
        self.assertFalse(thread.is_alive())
        self.assertEqual([json.loads(r.body)["echo"] for r in records],
                         list(range(1, 7)))
        self.assertEqual([client.status_class(r.status) for r in records],
                         ["200", "200", "429", "200", "200", "429"])
        self.assertEqual(len(set(peers)), 1)   # one keep-alive connection
        self.assertTrue(all(r.latency_ms >= r.round_trip_ms
                            for r in records))


class ProcMemory(unittest.TestCase):
    def test_reads_own_status(self):
        status = procmem.read_status(os.getpid())
        self.assertGreater(status["VmHWM"], 0.0)
        self.assertTrue(procmem.alive(os.getpid()))
        self.assertEqual(procmem.read_status(2 ** 22 + 1), {})


if __name__ == "__main__":
    unittest.main()
