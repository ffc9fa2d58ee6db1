"""The experiment registry, and the one driver every entry runs through.

Every evaluation of the paper (Section 7) has one shape: for each field
task, each method trains on a corpus's training documents and is scored
on its test documents.  An :class:`Experiment` describes one evaluation
as data — task graph, method set, settings, how a task maps to the
corpus it needs, the builder of that corpus and how one task is scored
on it — and :func:`run_experiment` runs every entry the same way:

* the task list resolves once (an explicit list, else the canonical
  graph filtered by ``REPRO_SHARD`` / ``REPRO_SHARD_PLAN``);
* default corpus sizes resolve in the parent and travel inside each
  task's corpus key, so pool workers never re-read the environment;
* serially, one corpus is live at a time and is rebuilt only when the
  corpus key changes.  Each task's timing window includes the build it
  triggers: a shard that draws tasks from k corpora really pays k
  builds, and the cost model should see that;
* with ``REPRO_JOBS > 1``, each task is one pool job that rebuilds its
  corpus from the key (generation is seeded, so identical to the
  parent's) and results come back in submission order.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.core.caching import active_timer
from repro.datasets.base import CONTEMPORARY, SETTINGS
from repro.harness import runner
from repro.harness.runner import FieldResult, jobs, run_field_jobs

# A canonical task: a tuple of strings whose length and meaning are fixed
# per experiment — ``(provider, field)`` for the table experiments,
# ``(provider, field, seed-label)`` for robustness, ``(mechanism,
# provider, field)`` for the ablations.
TaskKey = tuple[str, ...]


def field_task_key(result) -> TaskKey:
    """The default result→task projection: ``(provider, field)``."""
    return (result.provider, result.field)


def _no_extra_config() -> str:
    return ""


@dataclass(frozen=True)
class Experiment:
    """One registered experiment.

    ``result_key`` projects one result back onto the canonical task that
    produced it; the scheduler groups, validates and reorders results
    only through it.  ``config`` names any extra environment the scores
    depend on beyond (graph, seed, scale, methods), such as the forge's
    corpus-size knob; it is folded into the shard split digest.

    ``corpus_key(task, sizes, seed)`` names the corpus a task runs on as
    a picklable tuple, with ``sizes`` = the caller's ``(train, test)``
    overrides (``None`` = the experiment's default); ``build(*key)``
    makes that corpus and ``evaluate(methods, corpus, task)`` scores
    every method on one task.  ``run(methods, tasks, seed)`` is
    :func:`run_experiment` unless a test substitutes its own.
    """

    name: str
    settings: Callable[[], tuple[str, ...]]
    tasks: Callable[[], list[TaskKey]]
    methods: Callable[[], list]
    run: Callable[[list, list[TaskKey], int], list] | None = None
    result_key: Callable[[Any], TaskKey] = field_task_key
    config: Callable[[], str] = _no_extra_config
    corpus_key: Callable[[TaskKey, tuple, int], tuple] | None = None
    build: Callable[..., Any] | None = None
    evaluate: Callable[[list, Any, TaskKey], list] | None = None

    def __post_init__(self) -> None:
        if self.run is None:
            object.__setattr__(
                self, "run", functools.partial(run_experiment, self.name)
            )


def get_experiment(name: str) -> Experiment:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {name!r} (known: {known})")


def resolve_tasks(
    all_tasks: Sequence[TaskKey],
    shard,
    tasks: Sequence[TaskKey] | None,
    experiment: str | None = None,
) -> list[TaskKey]:
    """The task subset an experiment run should cover.

    ``tasks`` (an explicit list, used by the shard scheduler and its
    tests) wins outright; otherwise the canonical list is filtered down to
    the requested shard — ``shard=None`` reads ``REPRO_SHARD`` from the
    environment, which defaults to the whole graph.  With
    ``REPRO_SHARD_PLAN`` set, the shard owns its packed-plan task set
    instead of the round-robin slice; the plan must match ``experiment``
    (the registry name), the shard count, and the canonical graph,
    otherwise the run fails loudly rather than quietly running a
    different partition.
    """
    from repro.harness import sharding

    if tasks is not None:
        return [tuple(task) for task in tasks]
    all_tasks = [tuple(task) for task in all_tasks]
    spec = sharding.resolve_shard(shard)
    plan = sharding.env_plan()
    if plan is not None:
        return sharding.plan_shard_tasks(plan, spec, all_tasks, experiment)
    return sharding.assign(all_tasks, spec)


def run_experiment(
    name: str,
    methods: Sequence | None = None,
    tasks: Sequence[TaskKey] | None = None,
    seed: int = 0,
    *,
    shard=None,
    graph: Sequence[TaskKey] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
) -> list[FieldResult]:
    """Run registered experiment ``name``; results come in task order.

    ``graph`` replaces the canonical task graph (a provider subset) and
    ``tasks`` / ``shard`` pick the part of it to run (see
    :func:`resolve_tasks`).  ``train_size`` / ``test_size`` override the
    experiment's default corpus sizes.  Scores are bit-identical between
    the serial loop and the ``REPRO_JOBS`` pool.
    """
    spec = get_experiment(name)
    methods = list(methods) if methods is not None else spec.methods()
    run_tasks = resolve_tasks(
        spec.tasks() if graph is None else graph, shard, tasks, name
    )
    sizes = (train_size, test_size)
    keyed = [(task, spec.corpus_key(task, sizes, seed)) for task in run_tasks]
    if jobs() > 1:
        return run_field_jobs(
            _run_task, [(name, methods, task, key) for task, key in keyed]
        )
    results: list[FieldResult] = []
    corpus = current = None
    for task, key in keyed:
        with active_timer().task(task):
            if key != current:
                corpus, current = spec.build(*key), key
            results.extend(spec.evaluate(methods, corpus, task))
    return results


def _run_task(
    name: str, methods: list, task: TaskKey, key: tuple
) -> list[FieldResult]:
    """One pool job of :func:`run_experiment`."""
    with active_timer().task(task):
        return get_experiment(name).evaluate(
            methods, _worker_corpus(name, key), task
        )


@functools.lru_cache(maxsize=2)
def _worker_corpus(name: str, key: tuple):
    """Per-worker corpus memo.

    Tasks are submitted in canonical order, so the consecutive tasks a
    worker receives usually share a corpus and the memo turns those
    repeats into lookups.  Any idle worker takes the next task, so one
    corpus can still be built up to ``min(jobs, tasks)`` times: the memo
    bounds per-worker rework, it does not promise one build per key.
    ``maxsize=2`` keeps a worker's footprint near the serial loop's.
    """
    return get_experiment(name).build(*key)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def _lazy(module: str, name: str) -> Callable:
    """``module.name``, imported at its first call.

    Running one experiment then imports only its own domain's modules:
    the image and forge modules would add ~0.1 s of imports to the
    setup of every HTML run.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)

    return call


_IMAGES = "repro.harness.images"
_FORGE = "repro.harness.forge"
_ABLATIONS = "repro.harness.ablations"


def _contemporary_only() -> tuple[str, ...]:
    return (CONTEMPORARY,)


EXPERIMENTS: dict[str, Experiment] = {
    "m2h": Experiment(
        "m2h",
        settings=lambda: SETTINGS,
        tasks=runner.m2h_tasks,
        methods=lambda: [
            runner.ForgivingXPathsMethod(),
            runner.NdsynMethod(),
            runner.LrsynHtmlMethod(),
        ],
        corpus_key=runner.m2h_corpus_key,
        build=runner.m2h_corpora,
        evaluate=runner.evaluate_settings,
    ),
    "finance": Experiment(
        "finance",
        settings=_contemporary_only,
        tasks=_lazy(_IMAGES, "finance_tasks"),
        methods=_lazy(_IMAGES, "image_methods"),
        corpus_key=_lazy(_IMAGES, "finance_corpus_key"),
        build=_lazy(_IMAGES, "image_corpora"),
        evaluate=runner.evaluate_settings,
    ),
    "m2h_images": Experiment(
        "m2h_images",
        settings=_contemporary_only,
        tasks=_lazy(_IMAGES, "m2h_images_tasks"),
        methods=_lazy(_IMAGES, "image_methods"),
        corpus_key=_lazy(_IMAGES, "m2h_images_corpus_key"),
        build=_lazy(_IMAGES, "image_corpora"),
        evaluate=runner.evaluate_settings,
    ),
    "robustness": Experiment(
        "robustness",
        settings=lambda: runner.ROBUSTNESS_SETTINGS,
        tasks=runner.robustness_tasks,
        methods=lambda: [runner.LrsynHtmlMethod()],
        # The seed label travels in the setting slot.
        result_key=lambda r: (r.provider, r.field, r.setting),
        corpus_key=runner.robustness_corpus_key,
        build=runner.m2h_contemporary_corpus,
        evaluate=runner.evaluate_seed,
    ),
    "ablations": Experiment(
        "ablations",
        settings=_lazy(_ABLATIONS, "ablation_settings"),
        tasks=_lazy(_ABLATIONS, "ablation_tasks"),
        methods=_lazy(_ABLATIONS, "ablation_methods"),
        # The mechanism travels in the setting slot.
        result_key=lambda r: (r.setting, r.provider, r.field),
        corpus_key=_lazy(_ABLATIONS, "ablation_corpus_key"),
        build=_lazy(_ABLATIONS, "ablation_corpus"),
        evaluate=_lazy(_ABLATIONS, "evaluate_mechanism"),
    ),
    # The synthetic document forge (repro.datasets.forge): as many
    # providers as REPRO_FORGE_PROVIDERS asks for, corpus sizes from
    # REPRO_FORGE_DOCS — the store/scheduler stress workloads.
    "forge_html": Experiment(
        "forge_html",
        settings=lambda: SETTINGS,
        tasks=_lazy(_FORGE, "forge_html_tasks"),
        methods=_lazy(_FORGE, "forge_html_methods"),
        config=_lazy("repro.datasets.forge", "config_fingerprint"),
        corpus_key=_lazy(_FORGE, "forge_html_corpus_key"),
        build=_lazy(_FORGE, "forge_corpora"),
        evaluate=runner.evaluate_settings,
    ),
    "forge_images": Experiment(
        "forge_images",
        settings=_contemporary_only,
        tasks=_lazy(_FORGE, "forge_image_tasks"),
        methods=_lazy(_IMAGES, "image_methods"),
        config=_lazy("repro.datasets.forge", "config_fingerprint"),
        corpus_key=_lazy(_FORGE, "forge_images_corpus_key"),
        build=_lazy(_FORGE, "forge_image_corpora"),
        evaluate=runner.evaluate_settings,
    ),
}
