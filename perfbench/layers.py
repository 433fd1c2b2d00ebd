"""Per-layer metrics from a traced run's spans.

Request-path layers are summarised over the measured window only; set-up
layers (checkpoint load, whitening, item matrix, shard pool start) over the
whole server life, which in a traced run holds a single set-up.  A layer a
workload does not reach reports 0.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

import stats
from client import Record
from tracing import LayerSummary

ROOTS = ("service.recommend", "service.recommend_many")


def _median(values: Sequence[float]) -> float:
    return stats.median(values) if values else 0.0


def _in_window(spans, window: Tuple[float, float]) -> List[tuple]:
    return [span for span in spans if window[0] <= span[3] <= window[1]]


def serve_layers(doc: dict, records: Sequence[Record],
                 window: Tuple[float, float], memory: dict,
                 revisit_share: float) -> Dict[str, float]:
    summary = LayerSummary(doc["spans"])
    spans = _in_window(summary.spans, window)
    named: Dict[str, List[tuple]] = {}
    for span in spans:
        named.setdefault(span[2], []).append(span)

    def durations_ms(name: str) -> List[float]:
        return [(span[4] - span[3]) * 1000.0 for span in named.get(name, [])]

    topk = sorted(named.get("recommender.topk", []), key=lambda s: s[3])
    topk_starts = [span[3] for span in topk]
    topk_by_history: Dict[int, List[int]] = {}
    for position, span in enumerate(topk):
        for history in span[6] or ():
            topk_by_history.setdefault(history, []).append(position)

    def serving_topk(submit: tuple):
        """The first ``topk`` call after ``submit`` that carries its
        history object (the batcher passes the same list through)."""
        for position in topk_by_history.get(submit[6], ()):
            if topk_starts[position] >= submit[3]:
                return topk[position]
        return None

    waits = []
    for submit in named.get("batcher.submit", []):
        served = serving_topk(submit)
        if served is not None:
            waits.append((served[3] - submit[3]) * 1000.0)

    # Edge and unattributed time, request by request: the client's round
    # trip minus the server's root span is the edge; inside the root span,
    # whatever no layer covers (validation, batcher wait, topk) is left
    # unattributed.
    children: Dict[int, List[tuple]] = {}
    for span in summary.spans:
        children.setdefault(span[1], []).append(span)
    roots = {}
    for name in ROOTS:
        for span in named.get(name, []):
            roots[span[6]] = span
    edges = []
    unattributed_s = 0.0
    round_trip_s = 0.0
    for record in records:
        request_id = _first_request_id(record)
        root = roots.get(request_id)
        if root is None or record.status != 200:
            continue
        edges.append(record.round_trip_ms - (root[4] - root[3]) * 1000.0)
        covered = []
        for child in children.get(root[0], []):
            covered.append((child[3], child[4]))
            if child[2] == "batcher.submit":
                served = serving_topk(child)
                if served is not None:
                    covered.append((child[3], served[4]))
        unattributed_s += stats.self_time(root[3], root[4], covered)
        round_trip_s += record.round_trip_ms / 1000.0

    topk_total_s = sum(span[4] - span[3] for span in topk)
    encode_total_s = sum(durations_ms("infer.encode")) / 1000.0
    shard_searches = named.get("shard.search", [])
    shard = _last(doc["extras"].get("shard_stats", []))
    engine = _last(doc["extras"].get("engine_stats", []))
    session_cache = (engine or {}).get("session_cache", {})
    lookups = session_cache.get("hits", 0) + session_cache.get("misses", 0)
    workers = memory["workers"]
    lags = [record.lag_ms for record in records if record.lag_ms is not None]
    merge_ms = durations_ms("merge.topk")
    return {
        "server.edge_p50_ms": _median(edges),
        "server.edge_tail_ms": stats.tail(edges)[0] if edges else 0.0,
        "envelopes.from_dict_us": _median(durations_ms("envelopes.from_dict"))
        * 1000.0,
        "service.recommend_p50_ms": _median(
            durations_ms("service.recommend")
            + durations_ms("service.recommend_many")),
        "batcher.wait_p50_ms": _median(waits),
        "batcher.rows_per_call": (sum(len(span[6] or ()) for span in topk)
                                  / len(topk)) if topk else 0.0,
        "recommender.topk_p50_ms": _median(durations_ms("recommender.topk")),
        "recommender.busy_frac": topk_total_s / (window[1] - window[0]),
        "recommender.item_matrix_s": summary.total_s("recommender.item_matrix"),
        "infer.encode_p50_ms": _median(durations_ms("infer.encode")),
        "infer.encode_share": (encode_total_s / topk_total_s
                               if topk_total_s else 0.0),
        "infer.session_hit_rate": (session_cache.get("hits", 0) / lookups
                                   if lookups else 0.0),
        "merge.topk_ms": sum(merge_ms) / len(topk) if topk else 0.0,
        "shard.search_p50_ms": _median(durations_ms("shard.search")),
        "shard.rows_per_search": (sum(span[6] for span in shard_searches)
                                  / len(shard_searches)
                                  if shard_searches else 0.0),
        "shard.retries": float((shard or {}).get("retries", 0)),
        "shard.degraded": float((shard or {}).get("degraded_requests", 0)),
        "shard.pool_start_s": summary.total_s("shard.pool_start"),
        "shard.worker_hwm_mb": max((w.get("VmHWM", 0.0) for w in workers),
                                   default=0.0),
        "shard.worker_rss_anon_mb": max((w.get("RssAnon", 0.0)
                                         for w in workers), default=0.0),
        "shard.worker_rss_file_mb": max((w.get("RssFile", 0.0)
                                         for w in workers), default=0.0),
        "server.hwm_mb": memory["server"].get("VmHWM", 0.0),
        "persistence.load_s": summary.total_s("persistence.load"),
        "whitening.fit_transform_s": summary.total_s("whitening.fit_transform"),
        "models.build_s": summary.total_s("models.build"),
        "loadgen.lag_tail_ms": stats.tail(lags)[0] if lags else 0.0,
        "loadgen.revisit_share": revisit_share,
        "trace.unattributed_frac": (unattributed_s / round_trip_s
                                    if round_trip_s else 0.0),
    }


def _first_request_id(record: Record):
    """The request id the server's root span is keyed by: the request's
    own, or for a burst the first request's."""
    body = record.body
    if not body:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if "responses" in payload:
        responses = payload["responses"]
        return responses[0].get("request_id") if responses else None
    return payload.get("request_id")


def _last(values):
    present = [value for value in values if value]
    return present[-1] if present else None


def train_layers(doc: dict, models: Dict[str, dict]) -> Dict[str, float]:
    summary = LayerSummary(doc["spans"])
    spans = summary.spans
    wall = (max(span[4] for span in spans) - min(span[3] for span in spans)
            if spans else 0.0)
    attributed = sum(summary.self_s.values())
    metrics = {
        "text.encode_items_s": summary.total_s("text.encode_items"),
        "models.build_s": summary.total_s("models.build"),
        "whitening.fit_transform_s": summary.total_s("whitening.fit_transform"),
        "data.loader_s": summary.total_s("data.loader"),
        "models.loss_s": summary.total_s("models.loss"),
        "nn.backward_s": summary.total_s("nn.backward"),
        "nn.adam_step_s": summary.total_s("nn.adam_step"),
        "training.epoch_self_s": summary.self_s.get("training.epoch", 0.0),
        "training.evaluate_s": summary.total_s("training.evaluate"),
        "trace.unattributed_frac": (wall - attributed) / wall if wall else 0.0,
    }
    for name, model in models.items():
        metrics[f"recall_at_20.{name}"] = model["test"].get("recall@20", 0.0)
        metrics[f"ndcg_at_20.{name}"] = model["test"].get("ndcg@20", 0.0)
    return metrics
