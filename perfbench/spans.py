"""In-memory span tracing installed from outside the program.

The benchmark measures layers without touching ``src/``: it replaces the
public functions of the ``repro`` modules with wrappers that record one
span per call (name, start, end, parent, thread) into a :class:`Tracer`,
and writes the spans out when the pass ends.

A wrapper must be installed wherever its name is *looked up*, not only
where it is defined: ``repro.harness.runner`` binds ``train_afr``,
``score_corpus`` and friends with ``from ... import``, so patching only
the defining module would record nothing.  :func:`install` therefore
imports every ``repro`` module first and rebinds each global that still
refers to the original function.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (span name, module, attribute path).  Attribute paths with a dot name a
# method on a class; lookups through instances go via the class, so one
# setattr covers every caller.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("datasets.generate", "repro.datasets.m2h", "generate_corpus"),
    ("datasets.generate", "repro.datasets.finance", "generate_corpus"),
    ("datasets.generate", "repro.datasets.forge", "generate_corpus"),
    ("html.parse", "repro.html.parser", "parse_html"),
    ("html.landmark", "repro.html.domain", "HtmlDomain.landmark_candidates"),
    ("html.region_synth", "repro.html.domain",
     "HtmlDomain.synthesize_region_program"),
    ("html.value_synth", "repro.html.domain",
     "HtmlDomain.synthesize_value_program"),
    ("images.landmark", "repro.images.domain",
     "ImageDomain.landmark_candidates"),
    ("images.region_synth", "repro.images.domain",
     "ImageDomain.synthesize_region_program"),
    ("images.value_synth", "repro.images.domain",
     "ImageDomain.synthesize_value_program"),
    ("core.cluster", "repro.core.clustering", "infer_landmarks_and_clusters"),
    ("core.pairwise", "repro.core.clustering", "pairwise_distance_matrix"),
    ("core.pairwise", "repro.core.clustering", "prefill_pairwise_distances"),
    ("core.extract", "repro.core.dsl", "ExtractionProgram.extract"),
    ("core.score", "repro.core.metrics", "score_corpus"),
    ("baselines.ndsyn", "repro.baselines.ndsyn", "synthesize_ndsyn"),
    ("baselines.fxp", "repro.baselines.forgiving_xpaths",
     "synthesize_forgiving_xpaths"),
    ("baselines.afr", "repro.baselines.afr", "train_afr"),
    ("harness.train", "repro.harness.runner", "train_method"),
    ("harness.corpus", "repro.harness.runner", "cached_corpora"),
    ("harness.pickle_probe", "repro.harness.runner", "picklable_or_none"),
    ("store.get", "repro.store", "BlueprintStore.get"),
    ("store.put", "repro.store", "BlueprintStore.put"),
    ("store.flush", "repro.store", "BlueprintStore.flush"),
)

# Called about a million times per image field: counted, not spanned, so
# the trace stays small and the count is exact.
COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("images.neighbor", "repro.images.boxes", "ImageDocument.neighbor"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    # True when a span of the same name is already open on this thread;
    # such spans are left out of totals so recursion is not counted twice.
    nested: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Holds spans and call counts in memory for one process."""

    def __init__(self) -> None:
        # list.append and next() on a count are single atomic steps, so
        # spans from the server's worker thread need no lock.
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            nested = any(open_name == name for _, open_name in stack)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, parent, name, start, end,
                                         threading.get_ident(), nested))

        return traced

    def count_wrapper(self, name: str, fn):
        # The increment is a read-modify-write: only count functions that
        # run on one thread (image synthesis does).
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def import_all_repro() -> None:
    """Import every ``repro`` module so :func:`install` sees all bindings."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *owners, attribute = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attribute


def install(tracer: Tracer) -> None:
    """Wrap every target where it is defined and wherever it is bound."""
    import_all_repro()
    modules = [
        module for name, module in sys.modules.items()
        if (name == "repro" or name.startswith("repro.")) and module
    ]
    targets = [(name, module, path, tracer.span_wrapper)
               for name, module, path in SPAN_TARGETS]
    targets += [(name, module, path, tracer.count_wrapper)
                for name, module, path in COUNT_TARGETS]
    for name, module_name, path, make_wrapper in targets:
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute]
        wrapper = make_wrapper(name, original)
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def covered_length(start: float, end: float,
                   intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window and overlapping ones merged, so a
    stretch covered by two children counts once.
    """
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals
        if min(end, b) > max(start, a)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration
        - covered_length(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


def summarize(spans: list[Span], counts: dict[str, int]) -> dict:
    """Per name: calls, total (outermost spans) and self seconds.

    ``roots_s`` is the summed duration of spans with no parent, which the
    caller subtracts from its wall time to get the unattributed share.
    """
    own = self_times(spans)
    summary: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    roots = 0.0
    for span in spans:
        entry = summary[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[span.id]
        if not span.nested:
            entry["total_s"] += span.duration
        if span.parent is None:
            roots += span.duration
    for name, count in counts.items():
        summary[name]["calls"] += count
    return {"names": dict(summary), "roots_s": roots}


def write_trace(path, spans: list[Span], counts: dict[str, int]) -> None:
    """Write spans as Chrome trace events (open in Perfetto) plus counts."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 0,
            "tid": span.thread,
            "args": {"id": span.id, "parent": span.parent},
        }
        for span in spans
    ]
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "counts": dict(counts)}, handle)
