"""CI warm-store gate: two smoke runs, second must be faster + identical.

Runs the two timed benches twice against one persistent store directory
(``REPRO_STORE_DIR``; defaults to ``~/.cache/repro`` so ``actions/cache``
can carry it between workflow runs).  Asserts that

* the second (warm) run's ``m2h`` experiment wall-clock beats the first,
* the rendered score tables are byte-identical between the two runs.

On a store restored from a previous workflow run the *first* run is warm
already; in that case the timing assertion is skipped (both runs are warm
— noise could order them either way) and only score identity is enforced.

Usage::

    python benchmarks/warm_store_check.py [--scale 0.05]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks" / "results"
TRAJECTORY = RESULTS / "BENCH_synthesis_speed.json"
TABLES = ("table1_m2h_overall.txt", "program_size.txt")
BENCHES = (
    "benchmarks/bench_program_size.py",
    "benchmarks/bench_table1_m2h_overall.py",
)


def run_once(env: dict[str, str]) -> tuple[float, dict[str, str], dict]:
    before = 0
    if TRAJECTORY.exists():
        before = len(json.loads(TRAJECTORY.read_text())["runs"])
    merged = {**os.environ, **env}
    merged.setdefault("PYTHONPATH", str(REPO / "src"))
    subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            *BENCHES,
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO,
        env=merged,
        check=True,
    )
    runs = [
        run
        for run in json.loads(TRAJECTORY.read_text())["runs"][before:]
        if run["experiment"] == "m2h"
    ]
    if not runs:
        raise RuntimeError("benches did not record an m2h experiment run")
    tables = {name: (RESULTS / name).read_text() for name in TABLES}
    return runs[-1]["wall_seconds"], tables, runs[-1]


def store_is_warm() -> bool:
    """Whether the store already holds corpus entries (restored cache).

    Corpus entries are only ever written by a completed prior run's
    write-behind flush, so their presence is the reliable "this store has
    history" signal — unlike blueprint hits, which accumulate within a
    single cold run across its field tasks.
    """
    sys.path.insert(0, str(REPO / "src"))
    from repro.store import BlueprintStore

    directory = os.environ.get("REPRO_STORE_DIR")
    store = BlueprintStore(directory=directory, enabled=True)
    corpus = store.stats()["by_kind"].get("corpus/corpus")
    warm = corpus is not None and corpus["entries"] > 0
    store.close()
    return warm


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="0.05")
    args = parser.parse_args(argv)

    first_was_warm = store_is_warm()
    env = {"REPRO_SCALE": args.scale, "REPRO_STORE": "1", "REPRO_CACHE": "1"}
    first_wall, first_tables, first_run = run_once(env)
    second_wall, second_tables, second_run = run_once(env)

    for name in TABLES:
        if first_tables[name] != second_tables[name]:
            print(f"FAIL: {name} differs between cold and warm runs")
            return 1
    print("score tables byte-identical across the two runs")

    print(
        f"run 1: {first_wall:.3f}s (store hits:"
        f" {first_run.get('store', {}).get('hits', 0)}) |"
        f" run 2: {second_wall:.3f}s (store hits:"
        f" {second_run.get('store', {}).get('hits', 0)})"
    )
    if first_was_warm:
        print("first run already warm (restored store) — timing gate skipped")
        return 0
    if second_wall >= first_wall:
        print("FAIL: warm run was not faster than the cold run")
        return 1
    print(f"warm speedup: {first_wall / second_wall:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
