"""Self-tests of the benchmark.

Run from the repository root::

    python -m pytest perfbench -q

The tiny runs use ``PERFBENCH_SCALE=0.05`` (smaller corpora, no golden
digests) and one-second measurement windows; they check that every
metric named in ``BENCHMARK.json`` is printed with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402


def make_span(span_id, parent, name, start, end, nested=False):
    return spans.Span(span_id, parent, name, start, end, 0, nested)


def test_covered_length_merges_overlapping_children():
    # Children [1,3] and [2,5] overlap: together they cover [1,5].
    assert spans.covered_length(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    # Disjoint children add up; a child sticking out is clipped.
    assert spans.covered_length(
        0.0, 10.0, [(7.0, 12.0), (1.0, 2.0)]
    ) == 4.0
    # Nested children count once; one outside the window counts not at all.
    assert spans.covered_length(
        0.0, 10.0, [(2.0, 8.0), (3.0, 4.0), (11.0, 12.0)]
    ) == 6.0
    assert spans.covered_length(0.0, 10.0, []) == 0.0


def test_self_time_is_duration_minus_covered_children():
    tree = [
        make_span(1, None, "train", 0.0, 10.0),
        make_span(2, 1, "cluster", 1.0, 4.0),
        make_span(3, 2, "pairwise", 2.0, 3.0),
        make_span(4, 1, "score", 3.5, 6.0),  # overlaps cluster by 0.5
        make_span(5, None, "flush", 11.0, 12.0),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(2.5)
    summary = spans.summarize(tree, {"neighbor": 7})
    assert summary["roots_s"] == pytest.approx(11.0)
    assert summary["names"]["cluster"]["self_s"] == pytest.approx(2.0)
    assert summary["names"]["neighbor"]["calls"] == 7


def test_nested_same_name_spans_count_once_in_total():
    tree = [
        make_span(1, None, "extract", 0.0, 4.0),
        make_span(2, 1, "extract", 1.0, 3.0, nested=True),
    ]
    entry = spans.summarize(tree, {})["names"]["extract"]
    assert entry["calls"] == 2
    assert entry["total_s"] == pytest.approx(4.0)
    assert entry["self_s"] == pytest.approx(4.0)


def test_install_rebinds_names_imported_with_from():
    code = (
        "import spans, repro.harness.runner as runner,"
        " repro.core.metrics as metrics;"
        "t = spans.Tracer(); spans.install(t);"
        "assert runner.score_corpus is metrics.score_corpus;"
        "assert runner.score_corpus.__wrapped__ is not None;"
        "runner.score_corpus([]);"
        "print(t.spans[0].name)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HERE), str(ROOT / "src")]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "core.score"


def test_every_corpus_seed_has_a_golden_per_task():
    import run

    goldens = json.loads((HERE / "goldens.json").read_text())
    for experiment, count in (("m2h", 53), ("finance", 34)):
        assert set(goldens[experiment]) == {str(s) for s in run.CORPUS_SEEDS}
        assert {len(tasks) for tasks in goldens[experiment].values()} \
            == {count}


def plans(seed, tasks, per_task, count):
    import itertools

    import run

    return list(itertools.islice(run.pass_plans(seed, tasks, per_task),
                                 count))


@pytest.mark.parametrize("per_task", [False, True])
def test_pass_plans_run_every_task_once_and_follow_the_seed(per_task):
    import run

    tasks = [["p", str(n)] for n in range(20)]
    seeds = len(run.CORPUS_SEEDS)
    drawn = plans(7, tasks, per_task, seeds)
    assert drawn == plans(7, tasks, per_task, seeds) \
        != plans(8, tasks, per_task, seeds)
    for plan in drawn:
        assert sorted(t for _, group in plan for t in group) == sorted(tasks)
        assert len(plan) == 1 or per_task
    # Over len(CORPUS_SEEDS) passes every task meets every corpus seed.
    for task in tasks:
        met = [seed for plan in drawn for seed, group in plan
               if task in group]
        assert sorted(met) == sorted(run.CORPUS_SEEDS)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd: Path, workload: str, trace: int):
    command = benchmark_spec()["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace),
    ]
    env = dict(os.environ, PERFBENCH_SCALE="0.05")
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["html_cold", "image_cold", "serve_open"]
)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    spec = benchmark_spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    out = run_benchmark(ROOT, workload, trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in benchmark_spec()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_benchmark(tmp_path, "html_cold", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
