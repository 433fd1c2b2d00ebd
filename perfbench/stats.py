"""Summary statistics shared by the benchmark's workloads.

Everything here is pure arithmetic on lists of numbers, so the selftest can
pin each rule down without starting a server.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a percentile for it to be reported
SAMPLES_BEYOND = 10

#: a ladder step passes with at most SLO_SLOW_SHARE of its requests over
#: SLO_LIMIT_MS and at least SLO_MIN_ACHIEVED of the offered ones completed
SLO_LIMIT_MS = 50.0
SLO_SLOW_SHARE = 0.01
SLO_MIN_ACHIEVED = 0.95


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int, cap: float = 100.0) -> Optional[float]:
    """The highest candidate percentile, at most ``cap``, with at least ten
    samples beyond it.

    ``count * (1 - q/100) >= 10``: p99 needs 1000 samples, p95 needs 200.
    ``None`` when even the median has fewer than ten samples beyond it.
    """
    for q in TAIL_PERCENTILES:
        if q > cap:
            continue
        # round() keeps 1000 * 0.01 from landing a hair under 10
        if round(count * (100.0 - q) / 100.0, 9) >= SAMPLES_BEYOND:
            return q
    return None


def tail(values: Sequence[float], cap: float = 100.0) -> Tuple[float, str]:
    """``(value, label)``: the highest percentile, at most ``cap``, that the
    sample supports.  A sample too small for any (under 20) gets its
    median, labelled as such: its maximum would swing with every hiccup."""
    q = tail_percentile(len(values), cap)
    if q is None:
        return median(values), f"median of {len(values)} (too few for a tail)"
    return percentile(values, q), f"p{q:g} of {len(values)}"


def slo_pass(latencies_ms: Sequence[float], failures: int, offered: int,
             completed: int) -> bool:
    """One ladder step meets the SLO: no failures, at most 1% of the
    requests over 50 ms (p99 <= 50 ms, counted rather than interpolated so
    it holds at any sample size), and at least 95% of the offered requests
    completed in the step."""
    if failures or offered <= 0 or completed < SLO_MIN_ACHIEVED * offered:
        return False
    slow = sum(1 for value in latencies_ms if value > SLO_LIMIT_MS)
    return slow <= SLO_SLOW_SHARE * len(latencies_ms)


def sustainable_rate(steps: Iterable[Tuple[float, bool]]) -> Tuple[float, int]:
    """``(rate, steps_run)`` for a doubling ladder.

    ``steps`` yields ``(rate, passed)`` in ladder order and is consumed only
    up to and including the first failing step, so a lazy generator runs no
    step past the first failure.  The result is the last passing rate, 0
    when the first step fails.
    """
    best = 0.0
    run = 0
    for rate, passed in steps:
        run += 1
        if not passed:
            break
        best = rate
    return best, run


def union_length(intervals: Iterable[Tuple[float, float]],
                 clip: Optional[Tuple[float, float]] = None) -> float:
    """Total length covered by ``intervals`` (overlaps counted once),
    optionally clipped to ``clip``."""
    spans: List[Tuple[float, float]] = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            spans.append((start, end))
    spans.sort()
    covered = 0.0
    current_start = current_end = None
    for start, end in spans:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (end - start) - union_length(children, clip=(start, end))
