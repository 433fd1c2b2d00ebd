"""Output checks.

Serve workloads: every response must carry the same ``items`` and the same
``scores``, bit for bit, as an unbatched in-process ``Recommender.topk`` on
the same checkpoint.  That is the repository's batched = unbatched =
sharded contract seen from outside.  Non-200 answers, missing answers and
mismatches are all failures.

Training: every epoch loss finite, every test metric in [0, 1].
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

#: (items, scores) as the server's JSON carries them
Expected = Tuple[List[int], List[float]]


def reference_topk(recommender, histories: Sequence[Sequence[int]]
                   ) -> List[Expected]:
    """One unbatched ``topk`` call per history, converted exactly as the
    service converts results for its JSON envelope."""
    expected = []
    for history in histories:
        result = recommender.topk([list(history)])
        expected.append(([int(item) for item in result.items[0]],
                         [float(score) for score in result.scores[0]]))
    return expected


def compare(response: Optional[dict], expected: Expected) -> Optional[str]:
    """``None`` when ``response`` matches ``expected``, else the reason."""
    if response is None:
        return "missing response"
    items, scores = response.get("items"), response.get("scores")
    if items != expected[0]:
        return f"items {items} != expected {expected[0]}"
    if scores != expected[1]:
        return f"scores {scores} != expected {expected[1]}"
    return None


def check_single(status: int, body: Optional[bytes],
                 expected: Expected) -> Optional[str]:
    """Check one ``POST /recommend`` answer to a single request."""
    if status != 200:
        return f"HTTP {status}" if status else "no response"
    try:
        payload = json.loads(body)
    except (TypeError, ValueError):
        return "unparseable body"
    return compare(payload, expected)


def check_burst(status: int, body: Optional[bytes], size: int,
                expected: Dict[int, Expected]) -> List[Optional[str]]:
    """Check one ``{"requests": [...]}`` answer; one entry per request of
    the burst, ``None`` for each that passed.  Only positions in
    ``expected`` are compared; the rest need only be present."""
    if status != 200:
        reason = f"HTTP {status}" if status else "no response"
        return [reason] * size
    try:
        responses = json.loads(body)["responses"]
    except (TypeError, ValueError, KeyError):
        return ["unparseable body"] * size
    reasons: List[Optional[str]] = []
    for position in range(size):
        response = responses[position] if position < len(responses) else None
        if position in expected:
            reasons.append(compare(response, expected[position]))
        else:
            reasons.append(None if response is not None
                           else "missing response")
    return reasons


def check_training(models: Dict[str, dict]) -> List[str]:
    """Problems with a training job's output (empty when it is sound)."""
    problems = []
    for name, result in models.items():
        losses = result.get("losses", [])
        if not losses:
            problems.append(f"{name}: no epochs ran")
        if any(not math.isfinite(loss) for loss in losses):
            problems.append(f"{name}: non-finite loss in {losses}")
        for metric, value in result.get("test", {}).items():
            if not (isinstance(value, float) and 0.0 <= value <= 1.0):
                problems.append(f"{name}: test {metric} = {value!r}")
        if not result.get("test"):
            problems.append(f"{name}: no test metrics")
    return problems
