"""Record ``goldens.json``: one score digest per (corpus seed, task).

Usage (from the repository root, on a commit whose scores are trusted)::

    python3 perfbench/record_goldens.py

Runs each batch experiment once per seed of ``run.CORPUS_SEEDS`` over all
of its tasks, each run in a fresh process on an empty private store, and
writes the digests that :func:`run.check_digests` compares against.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path[:0] = [str(run.ROOT / "src"), str(run.ROOT)]
    os.environ["REPRO_STORE"] = "0"
    run.WORK.mkdir(exist_ok=True)
    from repro.harness import sharding

    goldens: dict[str, dict[str, dict[str, str]]] = {}
    for workload, experiment in run.WORKLOADS.items():
        if workload == "serve_open":
            continue
        tasks = [list(task)
                 for task in sharding.get_experiment(experiment).tasks()]
        goldens[experiment] = {}
        for seed in run.CORPUS_SEEDS:
            store = run.fresh_dir("store-golden")
            report = run.batch_pass(experiment, [[seed, tasks]], store)
            shutil.rmtree(store, ignore_errors=True)
            if report is None:
                print(f"{experiment} seed {seed} failed", file=sys.stderr)
                return 1
            goldens[experiment][str(seed)] = report["digests"][str(seed)]
            print(f"{experiment} seed {seed}: {len(tasks)} tasks",
                  flush=True)
    (run.HERE / "goldens.json").write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
