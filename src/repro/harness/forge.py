"""Forge experiments: the synthetic corpus as a first-class workload.

``forge_html`` evaluates NDSyn and LRSyn over the forged HTML providers in
both settings (drifted longitudinal test pages); ``forge_images`` runs the
image method set over degraded scans.  Both are ordinary entries of the
experiment registry (:mod:`repro.harness.experiments`) — corpus store,
program store, ``REPRO_JOBS`` fan-out, ``REPRO_SHARD`` / packed-plan /
work-queue task resolution — so the forge doubles as a store/scheduler
stress workload at whatever size ``REPRO_FORGE_PROVIDERS`` ×
``REPRO_FORGE_DOCS`` dials in.
"""

from __future__ import annotations

from typing import Sequence

from repro.datasets import forge
from repro.datasets.base import CONTEMPORARY, LONGITUDINAL, Corpus
from repro.harness.runner import (
    FieldResult,
    LrsynHtmlMethod,
    Method,
    NdsynMethod,
    cached_corpora,
    default_sizes,
    scale,
)


def forge_html_tasks() -> list[tuple[str, str]]:
    return [
        (provider, field)
        for provider in forge.forge_providers()
        for field in forge.fields_for(provider)
    ]


def forge_image_tasks() -> list[tuple[str, str]]:
    return [
        (provider, field)
        for provider in forge.forge_providers()
        for field in forge.image_fields_for(provider)
    ]


def forge_html_methods() -> list[Method]:
    return [NdsynMethod(), LrsynHtmlMethod()]


def forge_html_sizes() -> tuple[int, int]:
    """(train, test) per provider: ``REPRO_FORGE_DOCS`` split 1:3, scaled."""
    docs = forge.forge_docs()
    return (
        max(3, round(docs * 0.25 * scale())),
        max(4, round(docs * 0.75 * scale())),
    )


def forge_image_sizes() -> tuple[int, int]:
    """Image pages cost far more than HTML pages; keep the split smaller."""
    docs = forge.forge_docs()
    return (
        max(3, round(docs * 0.12 * scale())),
        max(4, round(docs * 0.30 * scale())),
    )


def forge_corpora(
    provider: str, train_size: int, test_size: int, seed: int
) -> dict[str, Corpus]:
    """Contemporary + longitudinal forge corpora through the corpus cache."""
    return cached_corpora(
        "forge",
        lambda: {
            setting: forge.generate_corpus(
                provider,
                train_size=train_size,
                test_size=test_size,
                setting=setting,
                seed=seed,
            )
            for setting in (CONTEMPORARY, LONGITUDINAL)
        },
        provider=provider,
        train_size=train_size,
        test_size=test_size,
        seed=seed,
    )



def forge_image_corpora(
    provider: str, train_size: int, test_size: int, seed: int
) -> dict[str, Corpus]:
    """One degraded-scan forge corpus as a ``{setting: corpus}`` set."""
    corpus = cached_corpora(
        "forge_images",
        lambda: forge.generate_image_corpus(
            provider, train_size=train_size, test_size=test_size, seed=seed
        ),
        provider=provider,
        train_size=train_size,
        test_size=test_size,
        seed=seed,
    )
    return {corpus.train[0].setting: corpus}


def forge_html_corpus_key(task: tuple, sizes: tuple, seed: int) -> tuple:
    return (task[0], *default_sizes(sizes, *forge_html_sizes()), seed)


def forge_images_corpus_key(task: tuple, sizes: tuple, seed: int) -> tuple:
    return (task[0], *default_sizes(sizes, *forge_image_sizes()), seed)


def run_forge_html_experiment(
    methods: Sequence[Method] | None = None,
    train_size: int | None = None,
    test_size: int | None = None,
    seed: int = 0,
    shard=None,
    tasks: Sequence[tuple[str, str]] | None = None,
) -> list[FieldResult]:
    """The forged-provider HTML experiment (both settings)."""
    from repro.harness.experiments import run_experiment

    return run_experiment(
        "forge_html", methods, tasks, seed, shard=shard,
        train_size=train_size, test_size=test_size,
    )
