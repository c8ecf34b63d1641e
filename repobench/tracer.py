"""Outside-in layer trace: spans around calls into each layer's public
functions, installed by patching from the benchmark's own files.

Only per-batch calls are wrapped (never per-vertex ones such as
``out_neighbors``), so the traced run stays close to the untraced one.
Spans are kept in memory and written once, when the program process ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter recorder.

    Each span is ``[name, start, end, parent_index]`` (``perf_counter``
    seconds; ``parent_index`` is -1 for a root span); parents are tracked
    per thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a version recording span ``name``;
        ``on_result(tracer, args, result)`` runs after each call."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter(), 0.0, parent]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        setattr(owner, attr, traced)

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


def busy_and_self(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: total busy seconds, self seconds (busy minus the
    direct children's busy time) and call count."""
    busy: dict[str, float] = defaultdict(float)
    children: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, parent in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent >= 0:
            children[spans[parent][0]] += end - start
    own = {name: busy[name] - children[name] for name in busy}
    return dict(busy), own, dict(calls)


# -- layer patches -------------------------------------------------------------


def _on_ingest(tracer, args, result):
    tracer.count("update.batches")
    tracer.count("update.ro", result.reordered)
    tracer.count("update.abr_active", result.abr_active)


def _on_apply(tracer, args, result):
    tracer.count("graph.edges", args[1].size)  # args: (graph, batch)


def _on_round(tracer, args, result):
    if result is not None:
        tracer.count("compute.iterations", result.iterations)
        tracer.count("compute.touched_edges", result.touched_edges)


def _on_step(tracer, args, result):
    tracer.count("pipeline.deferred", bool(result.deferred))


def install_layer_tracing(tracer: Tracer, config) -> None:
    """Wrap the per-batch entry points of every pipeline layer the
    ``RunConfig`` ``config`` will build, before it is built."""
    from repro.compute.oca import OCAController
    from repro.compute.registry import get_algorithm
    from repro.datasets.generators import StreamGenerator
    from repro.graph.formats import ADJACENCY_FORMATS
    from repro.pipeline.runner import StreamingPipeline
    from repro.update.engine import UpdateEngine

    graph_cls = ADJACENCY_FORMATS[config.adjacency]
    tracer.wrap(StreamGenerator, "generate_batch", "datasets.generate")
    tracer.wrap(graph_cls, "apply_batch", "graph.apply", _on_apply)
    views = graph_cls.adjacency_views

    def counted_views(self, *args, **kwargs):
        tracer.count("graph.views_calls")
        return views(self, *args, **kwargs)

    graph_cls.adjacency_views = counted_views
    tracer.wrap(UpdateEngine, "ingest", "update.ingest", _on_ingest)
    tracer.wrap(OCAController, "observe", "oca.observe")
    tracer.wrap(
        get_algorithm(config.algorithm), "on_round", "compute.round", _on_round
    )
    tracer.wrap(StreamingPipeline, "step", "pipeline.step", _on_step)


def install_serve_tracing(tracer: Tracer) -> None:
    """Wrap the serve layers: micro-batch cuts (queue wait) and admission
    waits.  Call after :func:`install_layer_tracing`."""
    from repro.pipeline.runner import StreamingPipeline
    from repro.serve.admission import AdmissionController, MicroBatcher

    cut_at: dict[int, tuple] = {}
    cut = MicroBatcher.cut

    def timed_cut(self, reason):
        pending = cut(self, reason)
        # Keyed by the src array, which the driver hands on to step().
        cut_at[id(pending.src)] = (pending.src, time.perf_counter())
        return pending

    MicroBatcher.cut = timed_cut
    admit = AdmissionController.admit

    def counted_admit(self, *args, **kwargs):
        decision = admit(self, *args, **kwargs)
        if not decision.admitted and not decision.reject:
            tracer.count("serve.admit_waits")
        return decision

    AdmissionController.admit = counted_admit
    step = StreamingPipeline.step  # already span-wrapped

    def served_step(self, final=False, batch=None):
        started = time.perf_counter()
        if batch is not None:
            entry = cut_at.pop(id(batch.src), None)
            if entry is not None:
                tracer.sample("serve.queue_wait_s", started - entry[1])
            tracer.sample("serve.batch_edges", batch.size)
        result = step(self, final=final, batch=batch)
        tracer.sample("serve.step_s", time.perf_counter() - started)
        return result

    StreamingPipeline.step = served_step
