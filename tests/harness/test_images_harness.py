"""Tests for the image experiment drivers (repro.harness.images)."""

import math

from repro.datasets import finance
from repro.harness.experiments import run_experiment
from repro.harness.images import (
    AfrMethod,
    IMAGE_CONFIG,
    LrsynImageMethod,
    finance_tasks,
)


class TestImageConfig:
    def test_positive_thresholds(self):
        # Unlike HTML (exact match), the image domain tolerates OCR noise.
        assert IMAGE_CONFIG.blueprint_threshold > 0.0
        assert IMAGE_CONFIG.merge_threshold > 0.0


class TestMethods:
    def test_lrsyn_image_method_trains(self):
        corpus = finance.generate_corpus(
            "CreditNote", train_size=8, test_size=0, seed=0
        )
        extractor = LrsynImageMethod().train(
            corpus.training_examples("Amount")
        )
        assert extractor.extract(corpus.train[0].doc)

    def test_afr_method_trains(self):
        corpus = finance.generate_corpus(
            "CreditNote", train_size=8, test_size=0, seed=0
        )
        extractor = AfrMethod().train(corpus.training_examples("Amount"))
        assert extractor.extract(corpus.train[0].doc)


class TestRunFinanceExperiment:
    def test_single_doc_type_results_complete(self):
        results = run_experiment(
            "finance",
            [AfrMethod(), LrsynImageMethod()],
            graph=finance_tasks(["CreditNote"]),
            train_size=8,
            test_size=10,
            seed=0,
        )
        fields = finance.FINANCE_FIELDS["CreditNote"]
        assert len(results) == 2 * len(fields)
        for result in results:
            assert result.provider == "CreditNote"
            assert result.score is None or not math.isnan(result.f1)
