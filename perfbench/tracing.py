"""Spans around the program's layers, recorded from outside ``src/``.

:class:`Recorder` wraps the public functions of each layer, in the process
that runs them, so the program's code stays untouched.  Spans stay in
memory and are written once, when the process ends.  A span is
``(id, parent, name, start, end, thread, attr)`` on ``time.monotonic()``;
``parent`` is the span open on the same thread when this one began (-1 for
none), and ``attr`` is whatever the layer's join key needs (a request id,
the ids of the history objects in a ``topk`` call, a row count).

:func:`install_serve` and :func:`install_train` pick the layers.
:class:`LayerSummary` turns spans into per-name self and inclusive times.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from stats import self_time

Span = tuple  # (id, parent, name, start, end, thread, attr)


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.extras: Dict[str, Any] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attr: Optional[Callable[..., Any]] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              threading.get_ident(),
                              attr(*args, **kwargs) if attr else None))
        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """For a generator function: one span around each item produced,
        so the consumer's work between items is not charged to it."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                stack = self._stack()
                span_id = next(self._ids)
                parent = stack[-1] if stack else -1
                stack.append(span_id)
                start = time.monotonic()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans.append((span_id, parent, name, start,
                                  time.monotonic(), threading.get_ident(),
                                  None))
                yield item
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "extras": self.extras}, handle)


def patch_method(recorder: Recorder, cls: type, attr: str, name: str,
                 extract: Optional[Callable[..., Any]] = None,
                 iterator: bool = False) -> None:
    """Wrap ``cls.attr`` (plain, class or static method) in place."""
    raw = cls.__dict__[attr]
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    fn = raw.__func__ if kind else raw
    wrapped = (recorder.wrap_iter(name, fn) if iterator
               else recorder.wrap(name, fn, extract))
    setattr(cls, attr, kind(wrapped) if kind else wrapped)


def patch_function(recorder: Recorder, module, attr: str, name: str) -> None:
    """Wrap a module-level function in its module and in every ``repro``
    module that imported it by name."""
    original = getattr(module, attr)
    wrapped = recorder.wrap(name, original)
    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, attr, None) is original):
            setattr(loaded, attr, wrapped)


def _request_id(self, request, *args, **kwargs):
    if isinstance(request, dict):
        return request.get("request_id")
    return getattr(request, "request_id", None)


def _burst_id(self, requests, *args, **kwargs):
    first = requests[0] if requests else None
    return _request_id(self, first) if first is not None else None


def _history_ids(self, sequences, *args, **kwargs):
    return [id(sequence) for sequence in sequences]


def _submitted_id(self, sequence, *args, **kwargs):
    return id(sequence)


def _rows(self, matrix, *args, **kwargs):
    return int(getattr(matrix, "shape", (len(matrix),))[0])


def install_serve(recorder: Recorder) -> None:
    """Spans for the serving layers, from the HTTP handler down to the
    shard scatter-gather (the shard workers are other processes and are
    read from ``/proc`` instead)."""
    import repro.cli  # noqa: F401  (pulls in the modules patched below)
    import repro.experiments.persistence as persistence
    import repro.index.base as index_base
    import repro.service.registry  # noqa: F401
    import repro.shard.merge as shard_merge
    from repro.infer.engine import InferenceEngine
    from repro.models import registry as model_registry
    from repro.serving.recommender import Recommender
    from repro.service.batcher import DynamicBatcher
    from repro.service.envelopes import RecommendRequest
    from repro.service.service import RecommenderService
    from repro.shard.pool import ShardPool
    from repro.whitening.base import WhiteningTransform

    patch_method(recorder, RecommenderService, "recommend",
                 "service.recommend", _request_id)
    patch_method(recorder, RecommenderService, "recommend_many",
                 "service.recommend_many", _burst_id)
    patch_method(recorder, RecommendRequest, "from_dict", "envelopes.from_dict")
    patch_method(recorder, DynamicBatcher, "submit", "batcher.submit",
                 _submitted_id)
    patch_method(recorder, Recommender, "topk", "recommender.topk",
                 _history_ids)
    patch_method(recorder, Recommender, "item_matrix",
                 "recommender.item_matrix")
    patch_method(recorder, InferenceEngine, "encode_sequences",
                 "infer.encode", _rows)
    patch_method(recorder, ShardPool, "search", "shard.search", _rows)
    patch_method(recorder, ShardPool, "from_matrix", "shard.pool_start")
    patch_method(recorder, WhiteningTransform, "fit_transform",
                 "whitening.fit_transform")
    patch_function(recorder, index_base, "topk_best_first", "merge.topk")
    patch_function(recorder, shard_merge, "merge_topk", "merge.topk")
    patch_function(recorder, persistence, "load_checkpoint",
                   "persistence.load")
    patch_function(recorder, persistence, "load_model", "persistence.load")
    patch_function(recorder, model_registry, "build_model", "models.build")

    # Shutdown closes the shard pool; read its counters and the engine's
    # just before, while they still exist.
    close = Recommender.close

    def close_with_snapshot(self):
        recorder.extras.setdefault("shard_stats", []).append(
            self.shard_stats())
        recorder.extras.setdefault("engine_stats", []).append(
            self.engine_stats())
        return close(self)

    Recommender.close = close_with_snapshot


def install_train(recorder: Recorder) -> None:
    """Spans for the training layers: data loading, the model's loss
    (forward), autograd, the optimiser and the epoch / evaluation loop."""
    import repro.experiments.presets  # noqa: F401
    import repro.experiments.runners  # noqa: F401
    import repro.text.features as features
    from repro.data.dataloader import SequenceDataLoader
    from repro.models import registry as model_registry
    from repro.models.base import SequentialRecommender
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.training.trainer import Trainer
    from repro.whitening.base import WhiteningTransform

    patch_method(recorder, SequenceDataLoader, "__iter__", "data.loader",
                 iterator=True)
    for cls in _with_subclasses(SequentialRecommender):
        if "loss" in cls.__dict__:
            patch_method(recorder, cls, "loss", "models.loss")
    patch_method(recorder, Tensor, "backward", "nn.backward")
    patch_method(recorder, Adam, "step", "nn.adam_step")
    patch_method(recorder, Trainer, "train_one_epoch", "training.epoch")
    patch_method(recorder, Trainer, "evaluate", "training.evaluate")
    patch_method(recorder, Trainer, "fit", "training.fit")
    patch_method(recorder, WhiteningTransform, "fit_transform",
                 "whitening.fit_transform")
    patch_function(recorder, features, "encode_items", "text.encode_items")
    patch_function(recorder, model_registry, "build_model", "models.build")


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


class LayerSummary:
    """Per-name self time and inclusive time of one process's spans."""

    def __init__(self, spans: Sequence[Sequence]) -> None:
        self.spans = [tuple(span) for span in spans]
        by_id = {span[0]: span for span in self.spans}
        children: Dict[int, List[tuple]] = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span)
        self.self_s: Dict[str, float] = {}
        self.outer_s: Dict[str, float] = {}
        for span in self.spans:
            span_id, parent, name, start, end = span[:5]
            own = self_time(start, end, [(child[3], child[4])
                                         for child in children.get(span_id, [])])
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            # inclusive time, counted once for recursion (a span inside a
            # span of the same name is already covered by the outer one)
            outer = by_id.get(parent)
            if outer is None or outer[2] != name:
                self.outer_s[name] = self.outer_s.get(name, 0.0) + (end - start)

    def total_s(self, name: str) -> float:
        return self.outer_s.get(name, 0.0)
