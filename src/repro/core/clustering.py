"""Joint clustering and landmark inference (Algorithm 3).

The procedure works in three phases, mirroring Section 4.2:

1. **Initial fine clustering** — agglomerative clustering of the training
   documents by whole-document blueprint distance.  Documents land in the
   same fine cluster only when they have "more or less exactly the same
   format".
2. **Landmark and ROI-blueprint candidates** — per fine cluster, score shared
   n-grams as landmark candidates, and for every document compute the
   blueprint of the ROI enclosing the annotated values and the landmark
   occurrences.
3. **Coarse merging** — repeatedly merge the pair of clusters whose average
   inter-document ROI distance (minimized over shared landmark candidates) is
   below the merge threshold.  The resulting clusters reflect only the local
   structure around the field values, so formats differing in advertisement
   sections or section order collapse together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core import bitset, parallel
from repro.core.caching import DistanceCache, active_timer
from repro.core.document import (
    Annotation,
    Domain,
    Location,
    ScoredLandmark,
    TrainingExample,
)

# Blocked-kernel tuning: edge length of one tile of the distance matrix,
# and the minimum number of pairwise computations before forking a worker
# pool pays for itself (pool startup is ~tens of ms; a Jaccard distance is
# microseconds, so small problems stay serial).
DISTANCE_TILE = 64
MIN_PARALLEL_PAIRS = 2048


@dataclass
class ClusterInfo:
    """A cluster of training examples with its inferred landmark."""

    examples: list[TrainingExample]
    landmark: str
    candidates: list[ScoredLandmark] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)


# ----------------------------------------------------------------------
# Blocked shared-memory pairwise kernel (PaLD-style tiling)
# ----------------------------------------------------------------------
def _matrix_tile(tile) -> list[tuple[int, int, float]]:
    """Worker: distances for one ``(rows, cols)`` tile of the matrix."""
    domain, blueprints, symmetric = parallel.shared_payload()
    (row_start, row_stop), (col_start, col_stop) = tile
    out: list[tuple[int, int, float]] = []
    for i in range(row_start, row_stop):
        for j in range(col_start, col_stop):
            if i == j or (symmetric and j < i):
                continue
            out.append(
                (i, j, domain.blueprint_distance(blueprints[i], blueprints[j]))
            )
    return out


def pairwise_distance_matrix(
    domain: Domain,
    blueprints: Sequence[Hashable],
    tile: int = DISTANCE_TILE,
    n_jobs: int | None = None,
) -> dict[tuple[int, int], float]:
    """All pairwise blueprint distances, computed in blocked tiles.

    The index space ``[0, n)²`` is partitioned into ``tile × tile`` blocks
    that fan out over a fork-shared worker pool (see
    :mod:`repro.core.parallel`); for symmetric metrics only the upper
    triangle is computed, for asymmetric metrics (image BoxSummary
    matching) both orientations.  Results merge in tile submission order,
    so the returned mapping is identical to a serial double loop —
    parallelism never changes a value.

    This is the generic per-pair path: every value is
    ``domain.blueprint_distance``, so it serves any metric (image
    BoxSummary region blueprints, custom domains).  Small inputs (fewer
    than :data:`MIN_PARALLEL_PAIRS` pairs) return via a serial double
    loop before any tile bookkeeping is built.
    """
    n = len(blueprints)
    if n <= 1:
        return {}
    symmetric = getattr(domain, "symmetric_distance", True)
    total_pairs = n * (n - 1) // (2 if symmetric else 1)
    n_jobs = parallel.kernel_jobs() if n_jobs is None else n_jobs
    if total_pairs < MIN_PARALLEL_PAIRS:
        n_jobs = 1
    if n_jobs <= 1:
        matrix: dict[tuple[int, int], float] = {}
        for i in range(n):
            for j in range(n):
                if i == j or (symmetric and j < i):
                    continue
                matrix[(i, j)] = domain.blueprint_distance(
                    blueprints[i], blueprints[j]
                )
        return matrix
    ranges = parallel.tile_ranges(n, tile)
    tiles = [
        (rows, cols)
        for rows in ranges
        for cols in ranges
        if not (symmetric and cols[1] <= rows[0])
    ]
    matrix = {}
    payload = (domain, list(blueprints), symmetric)
    results = parallel.run_sharded(payload, _matrix_tile, tiles, n_jobs)
    for tile_result in results:
        for i, j, value in tile_result:
            matrix[(i, j)] = value
    return matrix


def _pair_shard(shard) -> list[float]:
    """Worker: distances for one block of an explicit pair list."""
    domain, pairs = parallel.shared_payload()
    start, stop = shard
    return [
        domain.blueprint_distance(bp_a, bp_b)
        for bp_a, bp_b in pairs[start:stop]
    ]


def prefill_pairwise_distances(
    domain: Domain,
    pairs: Sequence[tuple[Hashable, Hashable]],
    cache: DistanceCache,
    tile: int = DISTANCE_TILE * 8,
) -> None:
    """Compute an explicit pair list in parallel and seed the cache.

    The merge loop's distance demand is a *sparse* matrix (only blueprint
    pairs sharing a landmark candidate), so rather than tiling the dense
    index space we tile the deduplicated pair list itself.  Each seeded
    value equals ``domain.blueprint_distance`` exactly, so the serial loop
    that follows is byte-identical to an unprefetched run — just faster.

    When the blueprints are bitset-encodable the whole pair list is
    interned once (each distinct blueprint encoded a single time) and
    evaluated by the packed kernel — worthwhile even serially, so no
    worker pool or minimum pair count is required.  Otherwise the generic
    per-pair path runs, and only when workers are available and the list
    is big enough to pay for the pool.
    """
    if not cache.enabled or not pairs:
        return
    pairs = list(pairs)
    unique = list(dict.fromkeys(itertools.chain.from_iterable(pairs)))
    encoded = bitset.universe_for(domain, unique)
    if encoded is not None:
        universe, masks = encoded
        position = {blueprint: k for k, blueprint in enumerate(unique)}
        # Two direct scans beat zip(*pairs): star-unpacking a large pair
        # list allocates one argument slot per pair.
        values = bitset.indexed_pair_distances(
            universe,
            masks,
            [position[bp_a] for bp_a, _ in pairs],
            [position[bp_b] for _, bp_b in pairs],
        )
        cache.prime_distances(pairs, values)
        return
    n_jobs = parallel.kernel_jobs()
    if n_jobs <= 1 or len(pairs) < MIN_PARALLEL_PAIRS:
        return
    shards = parallel.tile_ranges(len(pairs), tile)
    results = parallel.run_sharded((domain, pairs), _pair_shard, shards, n_jobs)
    for (start, stop), values in zip(shards, results):
        for (bp_a, bp_b), value in zip(pairs[start:stop], values):
            cache.prime_distance(bp_a, bp_b, value)


def _missing_merge_pairs(
    domain: Domain,
    clusters: Sequence[list[TrainingExample]],
    roi_of: dict[int, dict[str, Hashable]],
    cache: DistanceCache,
) -> list[tuple[Hashable, Hashable]]:
    """The distance pairs the first merge round will request, deduplicated."""
    symmetric = getattr(domain, "symmetric_distance", True)
    seen: set[tuple[Hashable, Hashable]] = set()
    pairs: list[tuple[Hashable, Hashable]] = []
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            for ex_a in clusters[i]:
                roi_a = roi_of[id(ex_a)]
                for ex_b in clusters[j]:
                    roi_b = roi_of[id(ex_b)]
                    for landmark in set(roi_a) & set(roi_b):
                        pair = (roi_a[landmark], roi_b[landmark])
                        if pair in seen:
                            continue
                        if symmetric and (pair[1], pair[0]) in seen:
                            continue
                        seen.add(pair)
                        if cache.distance_cached(*pair):
                            continue
                        pairs.append(pair)
    return pairs


def fine_cluster(
    domain: Domain,
    examples: Sequence[TrainingExample],
    threshold: float,
    cache: DistanceCache | None = None,
) -> list[list[TrainingExample]]:
    """Initial clustering by whole-document blueprint distance.

    Single-linkage agglomeration: an example joins the first cluster holding
    a document whose blueprint is within ``threshold``.  This produces the
    "large number of very fine-grained clusters" of Section 2.1.

    When the document blueprints are bitset-encodable they are interned
    once and placed by the packed kernel
    (:func:`repro.core.bitset.cluster_rows_packed`) — bit-identical
    distances, so placements equal the per-pair loop's.  Otherwise, with
    ``REPRO_JOBS > 1`` and enough documents, the full distance matrix is
    precomputed by the blocked parallel kernel and seeded into the cache
    first; the lookup loop's placements are again unchanged.
    """
    cache = cache or DistanceCache(domain)
    clusters: list[list[TrainingExample]] = []
    with active_timer().stage("cluster"):
        n = len(examples)
        doc_blueprints = [
            cache.document_blueprint(example.doc) for example in examples
        ]
        encoded = bitset.universe_for(domain, doc_blueprints)
        if encoded is not None:
            universe, masks = encoded
            clusters.extend(
                [examples[row] for row in rows]
                for rows in bitset.cluster_rows_packed(
                    universe.pack(masks), threshold
                )
            )
            return clusters
        if (
            cache.enabled
            and parallel.kernel_jobs() > 1
            and n * (n - 1) // 2 >= MIN_PARALLEL_PAIRS
        ):
            matrix = pairwise_distance_matrix(domain, doc_blueprints)
            for (i, j), value in matrix.items():
                # Speculative (full-matrix) values seed L1 only; the
                # serial loop's true demand is a sparse subset and the
                # store shouldn't carry the rest.
                cache.prime_distance(
                    doc_blueprints[i], doc_blueprints[j], value,
                    persist=False,
                )
        blueprints: list[list[Hashable]] = []
        for example, blueprint in zip(examples, doc_blueprints):
            placed = False
            for cluster, cluster_bps in zip(clusters, blueprints):
                if any(
                    cache.distance(blueprint, other) <= threshold
                    for other in cluster_bps
                ):
                    cluster.append(example)
                    cluster_bps.append(blueprint)
                    placed = True
                    break
            if not placed:
                clusters.append([example])
                blueprints.append([blueprint])
    return clusters


def pair_values_to_landmarks(
    domain: Domain,
    doc,
    annotation: Annotation,
    landmark: str,
) -> list[tuple[Location, list[tuple[tuple[Location, ...], str]]]]:
    """Assign each annotated value group to its nearest landmark occurrence.

    Algorithm 4 computes one ROI per document from the landmark location and
    the annotations; when a landmark occurs several times (the two
    ``Depart:`` rows of Figure 1(a)) each occurrence anchors the values
    closest to it in document order.  Returns ``(occurrence, groups)`` pairs
    for occurrences that anchor at least one value group.
    """
    occurrences = domain.locate(doc, landmark)
    if not occurrences:
        return []
    order = domain.location_order(doc)

    def position(loc: Location) -> int:
        return order.get(loc, 0)

    assigned: dict[int, list[tuple[tuple[Location, ...], str]]] = {
        i: [] for i in range(len(occurrences))
    }
    for group in annotation.groups:
        group_pos = min(position(loc) for loc in group.locations)
        best = min(
            range(len(occurrences)),
            key=lambda i: abs(position(occurrences[i]) - group_pos),
        )
        assigned[best].append((group.locations, group.value))

    return [
        (occurrences[i], groups)
        for i, groups in assigned.items()
        if groups
    ]


def _roi_blueprints(
    domain: Domain,
    example: TrainingExample,
    candidates: Sequence[ScoredLandmark],
    common_values: frozenset[str],
    cache: DistanceCache,
) -> dict[str, Hashable]:
    """ROI blueprint per landmark candidate for one document (Alg. 3, l. 8-9)."""

    def compute(landmark: str) -> Hashable | None:
        pairs = pair_values_to_landmarks(
            domain, example.doc, example.annotation, landmark
        )
        if not pairs:
            return None
        occurrence, groups = pairs[0]
        locations = [occurrence] + [
            loc for group_locs, _ in groups for loc in group_locs
        ]
        region = domain.enclosing_region(example.doc, locations)
        return domain.region_blueprint(example.doc, region, common_values)

    result: dict[str, Hashable] = {}
    for candidate in candidates:
        blueprint = cache.roi_blueprint(
            example.doc,
            candidate.value,
            common_values,
            lambda landmark=candidate.value: compute(landmark),
            annotation=example.annotation,
        )
        if blueprint is not None:
            result[candidate.value] = blueprint
    return result


def _cluster_distance(
    roi_of: dict[int, dict[str, Hashable]],
    cache: DistanceCache,
    cluster_a: list[TrainingExample],
    cluster_b: list[TrainingExample],
) -> float:
    """Average pairwise document distance ``Δ`` between two clusters.

    Distances go through the :class:`DistanceCache`: the merge loop
    re-evaluates unchanged cluster pairs every round, so memoizing the
    pairwise blueprint distances turns the O(n²)-per-round recomputation
    into dictionary lookups.
    """
    distances: list[float] = []
    for ex_a in cluster_a:
        for ex_b in cluster_b:
            roi_a = roi_of[id(ex_a)]
            roi_b = roi_of[id(ex_b)]
            shared = set(roi_a) & set(roi_b)
            if not shared:
                distances.append(1.0)
                continue
            distances.append(
                min(cache.distance(roi_a[m], roi_b[m]) for m in shared)
            )
    if not distances:
        return 1.0
    return sum(distances) / len(distances)


def infer_landmarks_and_clusters(
    domain: Domain,
    examples: Sequence[TrainingExample],
    fine_threshold: float = 0.05,
    merge_threshold: float = 0.0,
    max_candidates: int = 10,
    cache: DistanceCache | None = None,
) -> list[ClusterInfo]:
    """Algorithm 3: jointly cluster documents and infer landmarks."""
    if not examples:
        return []
    cache = cache or DistanceCache(domain)

    clusters = fine_cluster(domain, examples, fine_threshold, cache=cache)

    # Landmark candidates and per-document ROI blueprints (lines 4-9).
    # ROI blueprints use the common values of the *whole training set* so
    # they are comparable across fine clusters during merging; a fine
    # cluster's own common values would leak document-specific texts for
    # singleton clusters and block every merge.
    global_common = domain.common_values([ex.doc for ex in examples])
    # Candidates scored over the whole training set are added to every
    # cluster's ROI computation: tiny fine clusters treat document-specific
    # text as "invariant" and would otherwise share no candidate (hence no
    # merge opportunity) with the large clusters.
    global_candidates = cache.landmark_candidates(examples, max_candidates)
    roi_of: dict[int, dict[str, Hashable]] = {}
    for cluster in clusters:
        candidates = cache.landmark_candidates(cluster, max_candidates)
        cluster_values = {candidate.value for candidate in candidates}
        merged_candidates = candidates + [
            candidate
            for candidate in global_candidates
            if candidate.value not in cluster_values
        ]
        with active_timer().stage("cluster"):
            for example in cluster:
                roi_of[id(example)] = _roi_blueprints(
                    domain, example, merged_candidates, global_common, cache
                )

    # Merge clusters while some pair is within the merge threshold
    # (lines 10-15).  The first round's pairwise ROI distances — the full
    # demand of the whole loop, since merging never adds examples — are
    # precomputed when the packed kernel applies or workers are
    # available, so the serial decision loop below only performs lookups.
    with active_timer().stage("cluster"):
        if len(clusters) > 1 and cache.enabled:
            prefill_pairwise_distances(
                domain,
                _missing_merge_pairs(domain, clusters, roi_of, cache),
                cache,
            )
        merged = True
        while merged and len(clusters) > 1:
            merged = False
            best_pair: tuple[int, int] | None = None
            best_distance = merge_threshold
            for i in range(len(clusters)):
                for j in range(i + 1, len(clusters)):
                    distance = _cluster_distance(
                        roi_of, cache, clusters[i], clusters[j]
                    )
                    if distance <= best_distance:
                        best_pair = (i, j)
                        best_distance = distance
            if best_pair is not None:
                i, j = best_pair
                clusters[i] = clusters[i] + clusters[j]
                del clusters[j]
                merged = True

    # Finalize: recompute candidates on merged clusters and pick the top one
    # (line 16).
    result: list[ClusterInfo] = []
    for cluster in clusters:
        candidates = cache.landmark_candidates(cluster, max_candidates)
        if not candidates:
            continue
        result.append(
            ClusterInfo(
                examples=cluster,
                landmark=candidates[0].value,
                candidates=candidates,
            )
        )
    return result
