"""Property tests for the interned-bitset blueprint kernel.

The contracts under test, in the order the pipeline relies on them:

* packed Jaccard is *bit-identical* (not approximately equal) to the
  frozenset ``jaccard_distance`` oracle on randomized universes — both
  divide the same two integers;
* the interner assigns bit positions from sorted element order, so the
  encoding is a pure function of universe content: identical across
  subprocesses running under hostile ``PYTHONHASHSEED`` values;
* masks round-trip to the sets they encode;
* the kernel engages only where it is sound (``Domain.bitset_elements``),
  and every call site gives the same results as the generic per-pair
  path it replaces; an empty universe runs the packed kernel too.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

from repro.core import bitset
from repro.core.caching import DistanceCache
from repro.core.clustering import (
    fine_cluster,
    pairwise_distance_matrix,
    prefill_pairwise_distances,
)
from repro.core.distance import jaccard_distance
from repro.html.domain import HtmlDomain
from repro.images.domain import ImageDomain
from tests.core.fake_domain import FakeDomain, make_example


def random_universe(rng: random.Random, n_sets: int, vocab: int):
    """Randomized string sets drawn from a shared vocabulary."""
    words = [f"w{idx}-{rng.randrange(1000)}" for idx in range(vocab)]
    return [
        frozenset(rng.sample(words, rng.randrange(0, vocab)))
        for _ in range(n_sets)
    ]


def decode(universe, mask: int) -> frozenset[str]:
    """The element set ``mask`` denotes (the inverse of ``encode``)."""
    return frozenset(
        element
        for position, element in enumerate(universe.elements)
        if mask >> position & 1
    )


class TestInterner:
    def test_sorted_bit_assignment(self):
        universe = bitset.BitsetUniverse(["zebra", "apple", "mango"])
        assert universe.elements == ("apple", "mango", "zebra")
        assert universe.index == {"apple": 0, "mango": 1, "zebra": 2}

    def test_insertion_order_is_irrelevant(self):
        elements = [f"e{i}" for i in range(100)]
        shuffled = list(elements)
        random.Random(7).shuffle(shuffled)
        a = bitset.BitsetUniverse(elements)
        b = bitset.BitsetUniverse(shuffled)
        assert a.elements == b.elements
        assert a.index == b.index

    def test_round_trip_randomized(self):
        rng = random.Random(0)
        for _ in range(50):
            sets = random_universe(rng, n_sets=8, vocab=40)
            universe = bitset.BitsetUniverse(
                element for s in sets for element in s
            )
            for s in sets:
                assert decode(universe, universe.encode(s)) == s

    def test_encode_within_drops_unknowns(self):
        universe = bitset.BitsetUniverse(["a", "b"])
        assert universe.encode_within(["a", "nope", "b"]) == universe.encode(
            ["a", "b"]
        )

    def test_empty_universe(self):
        universe = bitset.BitsetUniverse([])
        assert len(universe) == 0
        assert universe.encode([]) == 0
        assert decode(universe, 0) == frozenset()
        assert universe.pack([0, 0]).shape == (2, 0)

    def test_words_sized_for_packing(self):
        assert bitset.BitsetUniverse([f"e{i}" for i in range(64)]).words == 1
        assert bitset.BitsetUniverse([f"e{i}" for i in range(65)]).words == 2


class TestDistanceEquality:
    def test_indexed_pair_distances_matches_frozenset_exactly(self):
        rng = random.Random(1)
        for _ in range(30):
            sets = random_universe(rng, n_sets=12, vocab=80)
            universe = bitset.BitsetUniverse(
                element for s in sets for element in s
            )
            masks = universe.encode_all(sets)
            pairs = [(i, j) for i in range(12) for j in range(12)]
            values = bitset.indexed_pair_distances(
                universe,
                masks,
                [i for i, _ in pairs],
                [j for _, j in pairs],
            )
            assert values == [
                jaccard_distance(sets[i], sets[j]) for i, j in pairs
            ]

    def test_pair_distances_matches_scalar(self):
        rng = random.Random(4)
        sets = random_universe(rng, n_sets=16, vocab=90)
        universe = bitset.BitsetUniverse(
            element for s in sets for element in s
        )
        masks = universe.encode_all(sets)
        pairs = [
            (rng.randrange(16), rng.randrange(16)) for _ in range(64)
        ]
        values = bitset.indexed_pair_distances(
            universe,
            masks,
            [i for i, _ in pairs],
            [j for _, j in pairs],
        )
        assert values == [
            jaccard_distance(sets[i], sets[j]) for i, j in pairs
        ]

    def test_empty_sets_distance_zero(self):
        universe = bitset.BitsetUniverse(["x"])
        masks = [0, universe.encode(["x"])]
        assert bitset.indexed_pair_distances(
            universe, masks, [0, 0], [0, 1]
        ) == [0.0, 1.0]

    def test_intersect_all_matches_iterated_intersection(self):
        rng = random.Random(5)
        for _ in range(30):
            sets = random_universe(rng, n_sets=6, vocab=30)
            expected = sets[0]
            for s in sets[1:]:
                expected = expected & s
            assert bitset.intersect_all(sets) == expected
        assert bitset.intersect_all([]) == frozenset()
        assert bitset.intersect_all([frozenset({"a"})]) == frozenset({"a"})


_DETERMINISM_SNIPPET = """
import random
from repro.core import bitset
rng = random.Random(42)
words = [f"tok{i}" for i in range(200)]
sets = [frozenset(rng.sample(words, rng.randrange(0, 120))) for _ in range(30)]
universe = bitset.BitsetUniverse(e for s in sets for e in s)
masks = universe.encode_all(sets)
print(",".join(universe.elements))
print(",".join(str(m) for m in masks))
print(",".join(repr(d) for d in bitset.indexed_pair_distances(
    universe, masks, [0] * len(masks), range(len(masks)))))
"""


class TestHashSeedDeterminism:
    def test_identical_across_subprocess_hash_seeds(self):
        outputs = set()
        for hash_seed in ("0", "1", "31337"):
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(
                    p for p in ("src", os.environ.get("PYTHONPATH")) if p
                ),
            }
            result = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SNIPPET],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestUniverseFor:
    def test_html_blueprints_encode(self):
        domain = HtmlDomain()
        blueprints = [frozenset({"body/div", "body/span"}), frozenset()]
        encoded = bitset.universe_for(domain, blueprints)
        assert encoded is not None
        universe, masks = encoded
        assert decode(universe, masks[0]) == blueprints[0]
        assert masks[1] == 0

    def test_image_document_blueprints_encode(self):
        domain = ImageDomain()
        encoded = bitset.universe_for(
            domain, [frozenset({"Total", "Date"}), frozenset({"Total"})]
        )
        assert encoded is not None

    def test_image_summary_blueprints_stay_legacy(self):
        domain = ImageDomain()
        summaries = frozenset({("Total", "⊥", "⊤", "⊥", "⊥")})
        assert (
            bitset.universe_for(domain, [summaries, frozenset()]) is None
        )

    def test_custom_domains_stay_legacy_by_default(self):
        assert (
            bitset.universe_for(
                FakeDomain(), [frozenset({"a:"}), frozenset({"b:"})]
            )
            is None
        )


class TestPipelineParity:
    """The packed call sites agree with the generic per-pair path."""

    def blueprints(self, count=24):
        rng = random.Random(6)
        vocab = [f"body/div/p{i}" for i in range(60)]
        return [
            frozenset(rng.sample(vocab, rng.randrange(1, 60)))
            for _ in range(count)
        ]

    def test_matrix_bitset_equals_legacy(self):
        domain = HtmlDomain()
        bps = self.blueprints()
        generic = pairwise_distance_matrix(domain, bps)
        universe, masks = bitset.universe_for(domain, bps)
        pairs = sorted(generic)
        packed = bitset.indexed_pair_distances(
            universe, masks, [i for i, _ in pairs], [j for _, j in pairs]
        )
        assert packed == [generic[pair] for pair in pairs]

    def test_prefill_seeds_serially_under_bitset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        domain = HtmlDomain()
        cache = DistanceCache(domain, enabled=True)
        bps = self.blueprints(8)
        pairs = [(bps[i], bps[j]) for i in range(8) for j in range(i + 1, 8)]
        prefill_pairwise_distances(domain, pairs, cache)
        for bp_a, bp_b in pairs:
            assert cache.distance_cached(bp_a, bp_b)
            assert cache.distance(bp_a, bp_b) == domain.blueprint_distance(
                bp_a, bp_b
            )

    def test_fine_cluster_placements_match_legacy(self):
        rng = random.Random(8)
        vocab = [f"body/table/tr/td{i}" for i in range(20)]
        examples = []
        for _ in range(18):
            cells = rng.sample(vocab, rng.randrange(5, 20))
            example = make_example(["x:"], [0])
            example.doc = _BlueprintDoc(frozenset(cells))
            examples.append(example)
        packed = fine_cluster(_BlueprintOnlyDomain(), examples, threshold=0.5)
        generic = fine_cluster(_GenericDomain(), examples, threshold=0.5)
        shape = lambda clusters: [  # noqa: E731
            [id(example) for example in cluster] for cluster in clusters
        ]
        assert len(packed) > 1
        assert shape(packed) == shape(generic)

    def test_fine_cluster_all_empty_blueprints(self):
        domain = _BlueprintOnlyDomain()
        examples = []
        for _ in range(4):
            example = make_example(["x:"], [0])
            example.doc = _BlueprintDoc(frozenset())
            examples.append(example)
        universe, masks = bitset.universe_for(
            domain, [example.doc.blueprint for example in examples]
        )
        assert universe.words == 0
        assert bitset.indexed_pair_distances(
            universe, masks, [0, 0, 2], [1, 3, 3]
        ) == [0.0, 0.0, 0.0]
        clusters = fine_cluster(domain, examples, threshold=0.05)
        assert [len(cluster) for cluster in clusters] == [4]


class _BlueprintDoc:
    def __init__(self, blueprint):
        self.blueprint = blueprint


class _BlueprintOnlyDomain(HtmlDomain):
    """HtmlDomain metric over pre-made blueprints (no DOM needed)."""

    substrate = None

    def document_blueprint(self, doc):
        return doc.blueprint

    def document_fingerprint(self, doc):
        return None


class _GenericDomain(_BlueprintOnlyDomain):
    """The same metric with the packed kernel declined."""

    def bitset_elements(self, blueprint):
        return None
