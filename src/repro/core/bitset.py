"""Interned-bitset encoding of set-valued blueprints.

Every set-metric blueprint in the system is a ``frozenset[str]`` compared
by Jaccard distance.  Element-wise python set intersection is the wrong
tool for the pairwise hot paths (fine clustering, merge-loop prefill,
serving routes): each pair pays hashing and allocation proportional to
the set sizes.  This module re-encodes a whole *universe* of blueprints
once — each distinct string gets a bit position — so one blueprint
becomes a python big-int bitmask, packed into one row of an
``(n, words)`` ``uint64`` numpy array.  A batch of Jaccard distances is
then three vectorized operations (``&``/``|``, ``bitwise_count``, a
float divide).  This packed kernel is the only Jaccard implementation
on those paths; it needs numpy >= 2 for ``bitwise_count``.

Determinism contract
--------------------

Bit positions are assigned in **sorted element order**, never insertion or
hash order, so the encoding of a given universe is a pure function of its
contents — independent of ``PYTHONHASHSEED``, process, or the order
blueprints were produced in.  Distances are bit-identical to
:func:`repro.core.distance.jaccard_distance` on the same sets because
both divide the same two integers (intersection and union cardinality).
``tests/core/test_bitset.py`` checks the kernel against that oracle, and
``benchmarks/golden_digest_check.py`` pins whole-experiment scores and
tables to committed digests.

The encoding is a *kernel-level* representation only: blueprints remain
``frozenset`` values at every API boundary (domain methods, caches, the
persistent store), so L2 keys — derived from the canonical sorted string
form by ``repro.store.canonical_digest`` — and warm stores are untouched.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class BitsetUniverse:
    """A deterministic string → bit-position interner.

    Bit ``i`` is the ``i``-th element of the *sorted* distinct element
    list, so two universes built from the same elements — in any order,
    under any hash seed, in any process — assign identical positions.
    """

    __slots__ = ("elements", "index", "words")

    def __init__(self, elements: Iterable[str]) -> None:
        self.elements: tuple[str, ...] = tuple(sorted(set(elements)))
        self.index: dict[str, int] = {
            element: position for position, element in enumerate(self.elements)
        }
        # uint64 words per packed mask (0 for an empty universe).
        self.words: int = (len(self.elements) + 63) // 64

    def __len__(self) -> int:
        return len(self.elements)

    def encode(self, values: Iterable[str]) -> int:
        """The bitmask of ``values`` (every value must be interned)."""
        index = self.index
        mask = 0
        for value in values:
            mask |= 1 << index[value]
        return mask

    def encode_within(self, values: Iterable[str]) -> int:
        """The bitmask of ``values ∩ universe`` (unknown values dropped)."""
        index = self.index
        mask = 0
        for value in values:
            position = index.get(value)
            if position is not None:
                mask |= 1 << position
        return mask

    def encode_all(self, sets: Iterable[Iterable[str]]) -> list[int]:
        return [self.encode(values) for values in sets]

    def pack(self, masks: Sequence[int]) -> np.ndarray:
        """Masks packed into an ``(n, words)`` uint64 array.

        An empty universe packs to ``(n, 0)``: every popcount sums to 0,
        so every distance is the empty-union 0.0.
        """
        width = self.words * 8
        buffer = b"".join(mask.to_bytes(width, "little") for mask in masks)
        packed = np.frombuffer(buffer, dtype="<u8").reshape(
            len(masks), self.words
        )
        return packed.astype(np.uint64, copy=False)


def intersect_all(sets: Iterable[Iterable[str]]) -> frozenset[str]:
    """Intersection of many string sets (the invariant-text fold).

    The landmark scorers and the common-value fold all reduce
    per-document text sets to the elements present in *every* document;
    this is their one shared implementation.  It is deliberately **not**
    mask-encoded: interning costs per-element python work for every set,
    which amortizes only when the resulting masks are reused across many
    operations (the pairwise distance kernels below).  A one-shot fold
    reuses nothing, and CPython's C-level set intersection is ~30×
    faster than encoding — measured on 30 × 2500-element leaf-text sets.
    Equals iterated ``&`` over the inputs exactly, with an early exit
    once the intersection empties.  An empty iterable yields the empty
    set.
    """
    iterator = iter(sets)
    try:
        survivors = set(next(iterator))
    except StopIteration:
        return frozenset()
    for values in iterator:
        if not survivors:
            return frozenset()
        survivors.intersection_update(values)
    return frozenset(survivors)


def universe_for(domain, blueprints: Sequence) -> tuple[
    "BitsetUniverse", list[int]
] | None:
    """Intern ``blueprints`` if the domain's metric on them is Jaccard.

    Returns ``(universe, masks)`` — the universe of all elements across
    the blueprints and one mask per blueprint, in order — or ``None``
    when any blueprint is not a plain string set under Jaccard (graded
    image BoxSummary blueprints, ad-hoc test domains); those take the
    generic per-pair ``domain.blueprint_distance`` path.  The domain
    declares encodability per blueprint via
    :meth:`repro.core.document.Domain.bitset_elements`.
    """
    element_sets = []
    for blueprint in blueprints:
        elements = domain.bitset_elements(blueprint)
        if elements is None:
            return None
        element_sets.append(elements)
    universe = BitsetUniverse(
        element for elements in element_sets for element in elements
    )
    return universe, universe.encode_all(element_sets)


def _row_distances(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Jaccard distances between broadcast rows of packed masks.

    ``1 - |a ∩ b| / |a ∪ b|`` divides the same exact integers as
    ``jaccard_distance``, so the float64 results are bit-identical; an
    empty union (both sets empty) is 0.0 by the same convention.
    """
    inter = np.bitwise_count(lhs & rhs).sum(axis=-1, dtype=np.int64)
    union = np.bitwise_count(lhs | rhs).sum(axis=-1, dtype=np.int64)
    safe = np.where(union == 0, 1, union)
    return np.where(union == 0, 0.0, 1.0 - inter / safe)


def cluster_rows_packed(
    packed: np.ndarray, threshold: float
) -> list[list[int]]:
    """First-fit single-linkage placements over packed masks.

    The placement rule of ``fine_cluster``: row ``r`` joins the first
    cluster (in creation order) holding a row within ``threshold``, else
    founds a new one.  Per row, *one* vectorized pass computes the
    distances to every earlier row, and the first matching cluster is the
    minimum cluster id over the matches — clusters only ever append, so
    creation order equals id order and this is exactly the answer of a
    lazy scan that stops at the first hit.
    """
    n = packed.shape[0]
    cluster_of = np.zeros(n, dtype=np.int64)
    placements: list[list[int]] = []
    for row in range(n):
        if row:
            matched = _row_distances(packed[row], packed[:row]) <= threshold
            if matched.any():
                target = int(cluster_of[:row][matched].min())
                placements[target].append(row)
                cluster_of[row] = target
                continue
        cluster_of[row] = len(placements)
        placements.append([row])
    return placements


def indexed_pair_distances(
    universe: "BitsetUniverse",
    masks: Sequence[int],
    index_a: Sequence[int],
    index_b: Sequence[int],
) -> list[float]:
    """Distances for an explicit pair list (the merge-loop prefill shape).

    ``masks[index_a[k]]`` is compared with ``masks[index_b[k]]``.  The
    deduplicated masks are packed *once* — serializing a big-int per pair
    would swamp the arithmetic — then the pair rows are gathered by fancy
    indexing and evaluated in one vectorized pass.
    """
    packed = universe.pack(masks)
    lhs = packed[list(index_a)]
    rhs = packed[list(index_b)]
    return _row_distances(lhs, rhs).tolist()
