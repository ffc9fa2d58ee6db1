"""One pass of a registered experiment, run in its own process.

Usage::

    python perfbench/batch_pass.py --experiment m2h \
        --plan '[[0, [["aeromexico", "AIata"], ...]], ...]' \
        --report out.json [--trace-out trace.json]

The plan lists ``[corpus seed, tasks]`` groups; each group is one
``experiment.run`` over those field tasks on corpora generated from that
seed.  A task appears at most once in a plan.

The parent (``perfbench/run.py``) sets the environment: a private
``REPRO_STORE_DIR``, ``REPRO_JOBS=1``, ``REPRO_SCALE`` and a pinned
``PYTHONHASHSEED``.  A fresh process per pass is what makes a cold pass
cold: the store front, the corpus memos and the document-model caches all
live in process memory.

The timed region is the plan's experiment runs plus
``flush_corpus_store()``, the write-behind persistence a cold run pays
before its store is durable.  The report carries one score digest per
(corpus seed, task).
With ``--trace-out`` the pass runs under :mod:`spans` wrappers and adds a
span summary to the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", required=True)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from repro.core.caching import StageTimer, use_timer
    from repro.harness import sharding
    from repro.harness.runner import flush_corpus_store
    from repro.store import shared_store

    experiment = sharding.get_experiment(args.experiment)
    methods = experiment.methods()
    plan = [(seed, [tuple(task) for task in tasks])
            for seed, tasks in json.loads(args.plan)]
    shared_store().backend  # open (and for a cold pass, create) the store
    ready_at = time.time()

    timer = StageTimer()
    with use_timer(timer):
        start = time.perf_counter()
        runs = [(seed, experiment.run(methods, tasks, seed))
                for seed, tasks in plan]
        ran = time.perf_counter()
        flush_corpus_store()
        end = time.perf_counter()

    digests: dict[str, dict[str, str]] = {}
    for seed, results in runs:
        by_task: dict[str, list] = {}
        for r in results:
            by_task.setdefault(f"{r.provider}|{r.field}", []).append(r)
        digests[str(seed)] = {
            task: hashlib.sha256(
                sharding.canonical_scores(rows).encode()
            ).hexdigest()[:16]
            for task, rows in by_task.items()
        }
    results = [r for _, rs in runs for r in rs]
    trainings = {(r.method, r.provider, r.field) for r in results}
    failed = {(r.method, r.provider, r.field)
              for r in results if r.score is None}
    lrsyn_f1 = [r.f1 for r in results
                if r.method == "LRSyn" and not math.isnan(r.f1)]
    snapshot = timer.snapshot()
    report = {
        "ready_at": ready_at,
        "wall_s": end - start,
        "run_s": ran - start,
        "flush_s": end - ran,
        "digests": digests,
        "trainings": len(trainings),
        "synthesis_failures": len(failed),
        "f1_mean": sum(lrsyn_f1) / len(lrsyn_f1) if lrsyn_f1 else 0.0,
        "task_ms": sorted(v * 1000.0 for v in snapshot["tasks"].values()),
        "counters": snapshot["counters"],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        report["spans"] = spans.summarize(tracer.spans, tracer.counts)
        spans.write_trace(args.trace_out, tracer.spans, tracer.counts)
    Path(args.report).write_text(json.dumps(report))
    shared_store().close()
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown (freeing every corpus object one by one):
    # the store is closed and the report written, so nothing is lost.
    os._exit(code)
