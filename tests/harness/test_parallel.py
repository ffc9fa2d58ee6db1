"""Parallel experiment runner: REPRO_JOBS fan-out must not change results."""

import contextlib
import math

import pytest

from repro.core.caching import StageTimer, active_timer, use_timer
from repro.harness import forge, images, runner
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import FieldResult, _transportable, jobs
from repro.harness.sharding import canonical_scores


def result_keys(results):
    """The observable outcome of a run: ordering plus per-field scores."""
    return [
        (r.method, r.provider, r.field, r.setting,
         r.f1, r.precision, r.recall)
        for r in results
    ]


def assert_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for left, right in zip(result_keys(serial), result_keys(parallel)):
        assert left[:4] == right[:4]
        for a, b in zip(left[4:], right[4:]):
            assert (math.isnan(a) and math.isnan(b)) or a == b


class TestJobsKnob:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs() == 1

    def test_env_override_and_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert jobs() == 1


SIZES = (3, 4)


def tiny_tasks(spec):
    """A task on the graph's first corpus, one on another corpus, then a
    second task on the first corpus if it has one."""
    graph = spec.tasks()
    keys = [spec.corpus_key(task, SIZES, 0) for task in graph]
    first = [task for task, key in zip(graph, keys) if key == keys[0]]
    other = next(task for task, key in zip(graph, keys) if key != keys[0])
    return [first[0], other, *first[1:2]]


class WindowTimer(StageTimer):
    """A :class:`StageTimer` that knows which task window is open."""

    open_task = None

    @contextlib.contextmanager
    def task(self, key):
        self.open_task = key
        with super().task(key):
            yield
        self.open_task = None


class TestParallelMatchesSerial:
    """Every registry entry scores identically under ``REPRO_JOBS=1/2``."""

    @pytest.fixture(autouse=True)
    def tiny(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORGE_PROVIDERS", "2")
        monkeypatch.setenv("REPRO_FORGE_DOCS", "24")
        # Both arms cold: no program or corpus store between them.
        monkeypatch.setenv("REPRO_STORE", "0")

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_scores_identical(self, name, monkeypatch):
        spec = EXPERIMENTS[name]
        tasks = tiny_tasks(spec)
        builds = []
        real = runner.cached_corpora

        def recording(*args, **kwargs):
            # Pool workers run under a plain StageTimer of their own.
            builds.append(getattr(active_timer(), "open_task", None))
            return real(*args, **kwargs)

        for module in (runner, images, forge):
            monkeypatch.setattr(module, "cached_corpora", recording)
        arms = []
        for jobs_value in ("1", "2"):
            monkeypatch.setenv("REPRO_JOBS", jobs_value)
            timer = WindowTimer()
            with use_timer(timer):
                results = run_experiment(
                    name, tasks=tasks, train_size=SIZES[0],
                    test_size=SIZES[1],
                )
            arms.append((results, set(timer.tasks), list(builds)))
        (serial, serial_tasks, serial_builds), (pool, pool_tasks, _) = arms
        assert_identical(serial, pool)
        assert canonical_scores(serial) == canonical_scores(pool)
        assert serial_tasks == pool_tasks == set(tasks)
        # The serial loop keeps one live corpus: it builds a corpus once
        # per consecutive run of its tasks, inside the timing window of
        # the run's first task.
        keys = [spec.corpus_key(task, SIZES, 0) for task in tasks]
        assert serial_builds == [
            task for i, task in enumerate(tasks)
            if i == 0 or keys[i] != keys[i - 1]
        ]


class TestTransportable:
    def test_picklable_extractor_is_kept(self):
        result = FieldResult("m", "p", "f", "s", None, extractor="picklable")
        assert _transportable(result).extractor == "picklable"

    def test_unpicklable_extractor_is_dropped(self):
        unpicklable = lambda doc: None  # noqa: E731 - locals don't pickle
        result = FieldResult("m", "p", "f", "s", None, extractor=unpicklable)
        assert _transportable(result).extractor is None
