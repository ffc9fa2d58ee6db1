"""Image-domain methods, task graphs and corpora (Tables 3, 4 and 5)."""

from __future__ import annotations

from typing import Sequence

from repro.baselines.afr import train_afr
from repro.core.document import TrainingExample
from repro.core.dsl import Extractor, ProgramExtractor
from repro.core.synthesis import LrsynConfig, lrsyn
from repro.datasets import finance, m2h_images
from repro.harness.runner import (
    Method,
    cached_corpora,
    default_sizes,
    scaled,
)
from repro.images.domain import ImageDomain

# OCR noise perturbs blueprints and geometry, so unlike the HTML domain the
# image experiments run with positive thresholds (Section 7's threshold
# discussion is about HTML; blueprints in the image domain are compared up
# to BoxSummary drift).
IMAGE_CONFIG = LrsynConfig(
    fine_threshold=0.35,
    merge_threshold=0.3,
    blueprint_threshold=0.5,
    max_candidates=10,
)


class LrsynImageMethod(Method):
    """LRSyn instantiated on the form-images domain (Section 5.2)."""

    name = "LRSyn"

    def __init__(self, config: LrsynConfig | None = None):
        self.config = config or IMAGE_CONFIG
        self.fingerprint_domain = ImageDomain()

    def config_fingerprint(self) -> str:
        return repr(self.config)

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        domain = ImageDomain()
        return ProgramExtractor(lrsyn(domain, examples, self.config))


class AfrMethod(Method):
    """The simulated Azure Form Recognizer baseline."""

    name = "AFR"

    def __init__(self) -> None:
        self.fingerprint_domain = ImageDomain()

    def train(self, examples: Sequence[TrainingExample]) -> Extractor:
        return train_afr(examples)


def image_methods() -> list[Method]:
    """The image method set: the AFR baseline and LRSyn."""
    return [AfrMethod(), LrsynImageMethod()]


def finance_tasks(
    doc_types: Sequence[str] = finance.DOC_TYPES,
) -> list[tuple[str, str]]:
    """The Finance task graph: ``(doc_type, field)``."""
    return [
        (doc_type, field_name)
        for doc_type in doc_types
        for field_name in finance.FINANCE_FIELDS[doc_type]
    ]


def m2h_images_tasks(
    providers: Sequence[str] = m2h_images.IMAGE_PROVIDERS,
) -> list[tuple[str, str]]:
    """The M2H-Images task graph: ``(provider, field)``."""
    return [
        (provider, field_name)
        for provider in providers
        for field_name in m2h_images.fields_for(provider)
    ]


def finance_corpus_key(task: tuple, sizes: tuple, seed: int) -> tuple:
    # Table 3: ten training images per document type.
    train, test = default_sizes(sizes, 10, scaled(160, minimum=25))
    return ("finance", task[0], train, test, seed)


def m2h_images_corpus_key(task: tuple, sizes: tuple, seed: int) -> tuple:
    train, test = default_sizes(sizes, 10, scaled(120, minimum=25))
    return ("m2h_images", task[0], train, test, seed)


def image_corpus(
    dataset: str, provider: str, train_size: int, test_size: int, seed: int
):
    """Generate (or load from the persistent store) one image corpus.

    Shared by the image experiments and the blueprint-check ablation
    (:mod:`repro.harness.ablations`), so both hit the same corpus-store
    entries — against whichever backend ``shared_store()`` resolved
    (local sqlite, or a ``repro-store serve`` daemon via
    ``REPRO_STORE_URL``), and with the liveness markers ``repro-store
    gc`` needs written along the way.
    """
    generate = (
        finance.generate_corpus
        if dataset == "finance"
        else m2h_images.generate_corpus
    )
    return cached_corpora(
        dataset,
        lambda: generate(
            provider, train_size=train_size, test_size=test_size, seed=seed
        ),
        provider=provider,
        train_size=train_size,
        test_size=test_size,
        seed=seed,
    )


def image_corpora(
    dataset: str, provider: str, train_size: int, test_size: int, seed: int
) -> dict:
    """:func:`image_corpus` as a one-setting ``{setting: corpus}`` set."""
    corpus = image_corpus(dataset, provider, train_size, test_size, seed)
    return {corpus.train[0].setting: corpus}
