"""Robustness/ablation drivers must ride the cache hierarchy.

Before PR 4 the Section 7.4 robustness and ablation benches generated
corpora and called ``method.train`` directly, so warm stores were never
consulted and ``REPRO_CACHE=0`` A/B baselines did not cover them.  These
tests mirror ``tests/harness/test_program_store.py`` /
``test_image_program_store.py`` for the refactored drivers: a warm second
run of each experiment must skip training entirely (program-store hits,
zero misses), serve its corpora from the corpus store, and stay
score-identical — and ``REPRO_CACHE=0`` must bypass the store for a true
memo-free baseline.
"""

import math

from repro.core.caching import StageTimer, use_timer
from repro.harness.ablations import run_ablations_experiment
from repro.harness.runner import (
    flush_corpus_store,
    run_m2h_robustness_experiment,
)


def assert_identical(first, second):
    assert len(first) == len(second)
    for left, right in zip(first, second):
        assert (left.method, left.provider, left.field, left.setting) == (
            right.method, right.provider, right.field, right.setting
        )
        for a, b in (
            (left.f1, right.f1),
            (left.precision, right.precision),
            (left.recall, right.recall),
        ):
            assert (math.isnan(a) and math.isnan(b)) or a == b


def rotate_shared_store(monkeypatch, tmp_path, store_dir):
    """Force the next shared_store() to rehydrate from sqlite."""
    from repro.store import shared_store

    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "rotate"))
    shared_store()
    monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))


ROBUSTNESS_TASKS = [
    ("getthere", "DTime", "s0"),
    ("getthere", "DTime", "s1"),
    ("delta", "RId", "s0"),
]

ABLATION_TASKS = [
    ("blueprint", "SalesInvoice", "RefNo"),
    ("hierarchy", "getthere", "DTime"),
]


def _run_robustness():
    return run_m2h_robustness_experiment(
        train_size=3, test_size=4, tasks=ROBUSTNESS_TASKS
    )


def _run_ablations():
    return run_ablations_experiment(
        train_size=3, test_size=4, tasks=ABLATION_TASKS
    )


class TestWarmRobustnessRun:
    def test_warm_second_run_skips_training(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "robstore"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")

        cold_timer = StageTimer()
        with use_timer(cold_timer):
            cold = _run_robustness()
        flush_corpus_store()
        assert cold_timer.counters.get("store.program.miss", 0) > 0

        rotate_shared_store(monkeypatch, tmp_path, store_dir)

        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = _run_robustness()
        assert_identical(cold, warm)
        # Every (provider, field, seed) training request is served from
        # the persistent program store.
        assert warm_timer.counters.get("store.program.hit", 0) == len(
            ROBUSTNESS_TASKS
        )
        assert warm_timer.counters.get("store.program.miss", 0) == 0
        assert warm_timer.counters.get("store.corpus.hit", 0) > 0

    def test_cache_disabled_bypasses_store(self, tmp_path, monkeypatch):
        """REPRO_CACHE=0 now covers the robustness workload too."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "rob0"))
        baseline = _run_robustness()
        flush_corpus_store()
        monkeypatch.setenv("REPRO_CACHE", "0")
        timer = StageTimer()
        with use_timer(timer):
            uncached = _run_robustness()
        assert_identical(baseline, uncached)
        assert timer.counters.get("store.program.hit", 0) == 0
        assert timer.counters.get("store.corpus.hit", 0) == 0


class TestWarmAblationsRun:
    def test_warm_second_run_skips_training(self, tmp_path, monkeypatch):
        store_dir = tmp_path / "ablstore"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        monkeypatch.setenv("REPRO_STORE", "1")
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_JOBS", "1")

        cold_timer = StageTimer()
        with use_timer(cold_timer):
            cold = _run_ablations()
        flush_corpus_store()
        assert cold_timer.counters.get("store.program.miss", 0) > 0

        rotate_shared_store(monkeypatch, tmp_path, store_dir)

        warm_timer = StageTimer()
        with use_timer(warm_timer):
            warm = _run_ablations()
        assert_identical(cold, warm)
        # Two variants per task — baseline and ablated — all served from
        # the store (the variants' distinct names/configs key apart).
        assert warm_timer.counters.get("store.program.hit", 0) == 2 * len(
            ABLATION_TASKS
        )
        assert warm_timer.counters.get("store.program.miss", 0) == 0
        assert warm_timer.counters.get("store.corpus.hit", 0) > 0
