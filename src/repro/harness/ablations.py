"""The ablation experiment: mechanism x provider x field tasks.

The ablation bench (``benchmarks/bench_ablations.py``) quantifies two of
LRSyn's design mechanisms against corpora from the real datasets:

* ``blueprint`` — Algorithm 1's blueprint check, ablated by raising the
  image config's ``blueprint_threshold`` to 1.0 (every landmark
  occurrence passes), measured on the Finance ``SalesInvoice.RefNo``
  task where the "Reference No" landmark is a substring of another
  label;
* ``hierarchy`` — the Section 6.1 hierarchical-landmark upgrade, ablated
  with ``LrsynHtmlMethod(hierarchical=False)``, measured on the M2H
  ``getthere`` fields whose "Depart:" landmark also occurs in the car
  section.

Each canonical task is ``(mechanism, provider, field)``; the experiment
runs the mechanism's baseline *and* ablated method variant on the task's
corpus and labels results with the mechanism in ``FieldResult.setting``.
Everything routes through the harness layer (:func:`cached_corpora`,
:func:`train_method` via :func:`evaluate_on_corpus`, the ``REPRO_JOBS``
pool, ``REPRO_SHARD``), so the L1/L2 caches and the shard scheduler
apply — including whichever :mod:`repro.store` backend
``shared_store()`` resolves (``REPRO_STORE_BACKEND`` /
``REPRO_STORE_URL``) — before PR 4 the bench built corpora and trained
by hand, caught bare ``Exception`` around training, and bypassed all of
it.

(The third prose mechanism, layout-conditional synthesis, is exercised on
a purpose-built synthetic corpus directly in the bench: it has no dataset
generator to cache and completes in milliseconds.)
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.datasets.base import Corpus
from repro.harness.images import IMAGE_CONFIG, LrsynImageMethod, image_corpus
from repro.harness.runner import (
    FieldResult,
    LrsynHtmlMethod,
    Method,
    default_sizes,
    evaluate_on_corpus,
    m2h_contemporary_corpus,
    scaled,
)

BLUEPRINT_MECHANISM = "blueprint"
HIERARCHY_MECHANISM = "hierarchy"

TaskKey = tuple[str, str, str]


def ablation_tasks() -> list[TaskKey]:
    """Canonical ablation task graph: ``(mechanism, provider, field)``."""
    return [
        (BLUEPRINT_MECHANISM, "SalesInvoice", "RefNo"),
        (HIERARCHY_MECHANISM, "getthere", "DTime"),
        (HIERARCHY_MECHANISM, "getthere", "DDate"),
    ]


def loose_image_config():
    """IMAGE_CONFIG with the blueprint gate disabled (threshold 1.0)."""
    return dataclasses.replace(IMAGE_CONFIG, blueprint_threshold=1.0)


def ablation_methods() -> list[Method]:
    """The canonical method-variant set, in (baseline, ablated) pairs.

    Baselines keep the plain ``LRSyn`` name — the merged table then shows
    one baseline column and one column per ablated variant; the variants
    carry distinct names (which also keeps their program-store keys
    apart).  This list defines the experiment's method-name digest; the
    driver constructs the same variants internally, so a caller-supplied
    method list is deliberately not part of the ablation contract.
    """
    gated = LrsynImageMethod()
    ungated = LrsynImageMethod(loose_image_config())
    ungated.name = "LRSyn[no-blueprint]"
    hierarchical = LrsynHtmlMethod()
    flat = LrsynHtmlMethod(hierarchical=False)
    flat.name = "LRSyn[flat]"
    return [gated, ungated, hierarchical, flat]


def mechanism_variants(mechanism: str) -> list[Method]:
    """The (baseline, ablated) method pair of one mechanism."""
    methods = ablation_methods()
    if mechanism == BLUEPRINT_MECHANISM:
        return methods[:2]
    if mechanism == HIERARCHY_MECHANISM:
        return methods[2:]
    raise ValueError(f"unknown ablation mechanism {mechanism!r}")


def ablation_corpus(
    mechanism: str,
    provider: str,
    train_size: int,
    test_size: int,
    seed: int,
) -> Corpus:
    if mechanism == BLUEPRINT_MECHANISM:
        return image_corpus("finance", provider, train_size, test_size, seed)
    return m2h_contemporary_corpus(provider, train_size, test_size, seed)


def ablation_settings() -> tuple[str, ...]:
    """The setting axis: one mechanism per setting slot."""
    return (BLUEPRINT_MECHANISM, HIERARCHY_MECHANISM)


def ablation_corpus_key(task: TaskKey, sizes: tuple, seed: int) -> tuple:
    # Explicit sizes override both mechanisms.  The defaults reproduce the
    # original bench at REPRO_SCALE=0.15: blueprint 10/40 (the finance
    # experiment's ten training images), hierarchy 20/60.
    mechanism, provider, _ = task
    if mechanism == BLUEPRINT_MECHANISM:
        defaults = (10, scaled(267, minimum=16))
    else:
        defaults = (scaled(133, minimum=10), scaled(400, minimum=20))
    return (mechanism, provider, *default_sizes(sizes, *defaults), seed)


def evaluate_mechanism(
    methods: Sequence[Method], corpus: Corpus, task: TaskKey
) -> list[FieldResult]:
    """One ablation task: the mechanism's (baseline, ablated) pair.

    ``methods`` is ignored: the variant pair is the experiment's
    definition (see :func:`ablation_methods`).
    """
    mechanism, provider, field = task
    return [
        evaluate_on_corpus(method, corpus, provider, field, mechanism)
        for method in mechanism_variants(mechanism)
    ]


def run_ablations_experiment(
    methods: Sequence[Method] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[TaskKey] | None = None,
) -> list[FieldResult]:
    """Run the ablation tasks; two results (baseline, ablated) per task.

    ``methods`` is accepted for signature uniformity with the table
    experiments but ignored: the variant pairs are fixed per mechanism
    (see :func:`ablation_methods`).  ``train_size`` / ``test_size``
    override both mechanisms' corpus sizes (test-suite shrinking);
    default sizes are per mechanism.
    """
    from repro.harness.experiments import run_experiment

    return run_experiment(
        "ablations", methods, tasks, seed, shard=shard,
        train_size=train_size, test_size=test_size,
    )
