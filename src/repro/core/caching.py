"""Memoization and instrumentation for the synthesis pipeline.

Algorithm 3's coarse merging recomputes pairwise ROI-blueprint distances on
every merge round, and Algorithm 4's medoid (``typical_blueprint``) is
quadratic in the same distance function; the landmark-candidate scorer is
re-run for the global training set, every fine cluster and every merged
cluster even when the example set is unchanged.  :class:`DistanceCache`
memoizes all four behind per-run keyed tables so each quantity is computed
once per ``lrsyn`` invocation.

The module also hosts the wall-clock instrumentation used by the benchmark
suite: a :class:`StageTimer` accumulates per-stage seconds/call counts
(``cluster``, ``landmark``, ``region-synth``, ``value-synth``, ``score``)
plus arbitrary counters (cache hits/misses).  Parallel harness workers run
under their own timer (:func:`use_timer`) and ship a :meth:`snapshot` back to
the parent, which merges it — so timings survive process fan-out.

Since PR 2 the per-run tables are the L1 of a two-level hierarchy: on an
L1 miss the cache consults the persistent, content-hash-keyed
:class:`repro.store.BlueprintStore` (L2) before computing, and
publishes fresh results back to it — so blueprints, pairwise distances and
landmark-candidate lists survive across ``lrsyn`` calls, benchmark runs
and CI jobs.  Domains opt in by implementing
:meth:`repro.core.document.Domain.document_fingerprint`; every L2 key is
derived from document *content* (never identity or configuration), so a
regenerated corpus hits the same entries.  Blueprints cross this layer
only in their canonical ``frozenset`` form — the bitset encoding of
:mod:`repro.core.bitset` is kernel-internal — so distance keys
(``canonical_digest`` over sorted elements) and warm stores are
identical whether the packed kernel or the generic per-pair path
computed the value.

Environment knobs:

* ``REPRO_CACHE`` — set to ``0`` to disable memoization (every lookup
  recomputes); default on.  Disabling L1 also bypasses L2, which is what
  the uncached-equivalence baselines expect.
* ``REPRO_STORE`` / ``REPRO_STORE_DIR`` (and backend selection via
  ``REPRO_STORE_BACKEND`` / ``REPRO_STORE_URL``) — see :mod:`repro.store`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Hashable, Sequence

from repro.store import (
    BlueprintStore,
    canonical_digest,
    entry_key,
    shared_store,
)

_HIT = "cache.{kind}.hit"
_MISS = "cache.{kind}.miss"
_STORE_HIT = "store.{kind}.hit"
_STORE_MISS = "store.{kind}.miss"


def cache_enabled() -> bool:
    """Whether the memoization layer is active (``REPRO_CACHE`` env knob)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


class StageTimer:
    """Accumulates wall-clock seconds and call counts per pipeline stage.

    Besides the named pipeline stages, the timer records **per-task**
    wall-clock: each experiment driver wraps one canonical task (see
    :mod:`repro.harness.sharding`) in :meth:`task`, and the resulting
    ``tasks`` table — keyed by the task's string tuple — is what the
    predictive shard packer (:mod:`repro.harness.costmodel`) learns
    from.  Task keys ride through :meth:`snapshot`/:meth:`merge` like
    every other measurement, so per-task timings survive process
    fan-out and shard merges (task sets are disjoint across workers and
    partials, so summing on merge is exact).
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.tasks: dict[tuple[str, ...], float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def task(self, key: tuple[str, ...]):
        """Record wall-clock against one canonical experiment task."""
        key = tuple(key)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.tasks[key] = self.tasks.get(key, 0.0) + elapsed

    def count(self, name: str, increment: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + increment

    def snapshot(self) -> dict[str, dict]:
        """A picklable copy, suitable for shipping across process boundaries."""
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "tasks": dict(self.tasks),
        }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold a worker's :meth:`snapshot` into this timer."""
        for name, value in snapshot.get("seconds", {}).items():
            self.seconds[name] = self.seconds.get(name, 0.0) + value
        for name, value in snapshot.get("calls", {}).items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for key, value in snapshot.get("tasks", {}).items():
            key = tuple(key)
            self.tasks[key] = self.tasks.get(key, 0.0) + value

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counters.clear()
        self.tasks.clear()


GLOBAL_TIMER = StageTimer()
_active_timer = GLOBAL_TIMER


def active_timer() -> StageTimer:
    """The timer instrumentation currently records into."""
    return _active_timer


@contextmanager
def use_timer(timer: StageTimer):
    """Route stage/counter recording into ``timer`` for the duration.

    Used by benchmark drivers to isolate one experiment's timings and by
    parallel workers so their measurements can be snapshotted and merged
    into the parent process.
    """
    global _active_timer
    previous = _active_timer
    _active_timer = timer
    try:
        yield timer
    finally:
        _active_timer = previous


class DistanceCache:
    """Keyed memoization of the quantities the LRSyn pipeline recomputes.

    Four tables, all scoped to one cache instance (typically one ``lrsyn``
    call, so document identity is stable for the cache's lifetime):

    * whole-document blueprints, keyed by document identity;
    * ROI blueprints, keyed by ``(document, landmark, common_values)``;
    * pairwise blueprint distances, keyed symmetrically by the blueprint
      values themselves (blueprints are hashable by contract);
    * landmark-candidate lists, keyed by the example set — skipped for
      domains whose candidate scorer has side effects
      (``Domain.pure_landmarks`` is ``False``).

    Documents used as keys are pinned (a reference is kept) so ``id()``
    reuse after garbage collection cannot alias entries.

    When the domain provides content fingerprints and the persistent
    :class:`~repro.store.BlueprintStore` is enabled, the tables act
    as L1 over the store's L2: an L1 miss first consults the store before
    computing, and fresh computations are published back to it.
    """

    def __init__(
        self,
        domain,
        enabled: bool | None = None,
        store: BlueprintStore | None = None,
    ) -> None:
        self.domain = domain
        self.enabled = cache_enabled() if enabled is None else enabled
        self.store = store if store is not None else shared_store()
        self._doc_blueprints: dict[int, tuple[Any, Hashable]] = {}
        self._roi_blueprints: dict[tuple, tuple[Any, Hashable]] = {}
        self._distances: dict[tuple[Hashable, Hashable], float] = {}
        self._landmarks: dict[tuple, list] = {}
        self._pinned: list[Any] = []
        self._doc_fingerprints: dict[int, str | None] = {}
        self._annotation_fingerprints: dict[int, str | None] = {}
        self._example_fingerprints: dict[int, str | None] = {}
        self._blueprint_digests: dict[Hashable, str] = {}
        self.hit_counts: dict[str, int] = {}
        self.miss_counts: dict[str, int] = {}
        self.store_hit_counts: dict[str, int] = {}
        self.store_miss_counts: dict[str, int] = {}

    # -- stats ----------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(self.hit_counts.values())

    @property
    def misses(self) -> int:
        return sum(self.miss_counts.values())

    def _record(self, kind: str, hit: bool) -> None:
        table = self.hit_counts if hit else self.miss_counts
        table[kind] = table.get(kind, 0) + 1
        template = _HIT if hit else _MISS
        active_timer().count(template.format(kind=kind))

    def _record_store(self, kind: str, hit: bool) -> None:
        table = self.store_hit_counts if hit else self.store_miss_counts
        table[kind] = table.get(kind, 0) + 1
        template = _STORE_HIT if hit else _STORE_MISS
        active_timer().count(template.format(kind=kind))

    # -- persistent-store plumbing --------------------------------------
    @property
    def _store_active(self) -> bool:
        return (
            self.enabled
            and self.store is not None
            and self.store.enabled
            and getattr(self.domain, "substrate", None) is not None
        )

    def _doc_fingerprint(self, doc: Any) -> str | None:
        key = id(doc)
        if key not in self._doc_fingerprints:
            self._doc_fingerprints[key] = self.domain.document_fingerprint(
                doc
            )
        return self._doc_fingerprints[key]

    def _annotation_fingerprint(self, doc: Any, annotation) -> str | None:
        key = id(annotation)
        if key not in self._annotation_fingerprints:
            self._pinned.append(annotation)
            self._annotation_fingerprints[key] = (
                self.domain.annotation_fingerprint(doc, annotation)
            )
        return self._annotation_fingerprints[key]

    def _example_fingerprint(self, example) -> str | None:
        key = id(example)
        if key not in self._example_fingerprints:
            self._pinned.append(example)
            self._example_fingerprints[key] = (
                self.domain.example_fingerprint(example)
            )
        return self._example_fingerprints[key]

    def _blueprint_digest(self, blueprint: Hashable) -> str:
        digest = self._blueprint_digests.get(blueprint)
        if digest is None:
            digest = canonical_digest(blueprint)
            self._blueprint_digests[blueprint] = digest
        return digest

    def flush_store(self) -> None:
        """Flush batched persistent-store writes (no-op when disabled)."""
        if self.store is not None:
            self.store.flush()

    # -- blueprints -----------------------------------------------------
    def document_blueprint(self, doc: Any) -> Hashable:
        if not self.enabled:
            return self.domain.document_blueprint(doc)
        key = id(doc)
        entry = self._doc_blueprints.get(key)
        if entry is not None:
            self._record("doc_bp", hit=True)
            return entry[1]
        self._record("doc_bp", hit=False)
        store_key = None
        if self._store_active:
            fingerprint = self._doc_fingerprint(doc)
            if fingerprint is not None:
                store_key = entry_key(
                    self.domain.substrate, "doc_bp", fingerprint
                )
                stored = self.store.get("doc_bp", store_key)
                if stored is not BlueprintStore.MISS:
                    self._record_store("doc_bp", hit=True)
                    self._doc_blueprints[key] = (doc, stored)
                    return stored
                self._record_store("doc_bp", hit=False)
        blueprint = self.domain.document_blueprint(doc)
        self._doc_blueprints[key] = (doc, blueprint)
        if store_key is not None:
            self.store.put(
                "doc_bp", store_key, self.domain.substrate, blueprint
            )
        return blueprint

    def roi_blueprint(
        self,
        doc: Any,
        landmark: str,
        common_values: frozenset,
        compute: Callable[[], Hashable],
        annotation: Any = None,
    ) -> Hashable:
        """Memoized ROI blueprint for ``(doc, landmark, common_values)``.

        The ROI itself is derived from the document's annotation, which is
        immutable for a cache's lifetime, so the L1 key does not include
        it.  The persistent L2 spans *fields* (different annotations of
        one document), so its key folds in the annotation fingerprint —
        pass ``annotation`` to enable cross-run persistence; without it
        the entry stays L1-only.  ``compute`` runs on a miss and may
        return ``None`` ("landmark anchors no value here"), which is
        cached too.
        """
        if not self.enabled:
            return compute()
        key = (id(doc), landmark, common_values)
        entry = self._roi_blueprints.get(key)
        if entry is not None:
            self._record("roi_bp", hit=True)
            return entry[1]
        self._record("roi_bp", hit=False)
        store_key = None
        if self._store_active and annotation is not None:
            fingerprint = self._doc_fingerprint(doc)
            annotation_fp = self._annotation_fingerprint(doc, annotation)
            if fingerprint is not None and annotation_fp is not None:
                store_key = entry_key(
                    self.domain.substrate,
                    "roi_bp",
                    fingerprint,
                    annotation_fp,
                    landmark,
                    self._blueprint_digest(common_values),
                )
                stored = self.store.get("roi_bp", store_key)
                if stored is not BlueprintStore.MISS:
                    self._record_store("roi_bp", hit=True)
                    self._roi_blueprints[key] = (doc, stored)
                    return stored
                self._record_store("roi_bp", hit=False)
        blueprint = compute()
        self._roi_blueprints[key] = (doc, blueprint)
        if store_key is not None:
            self.store.put(
                "roi_bp", store_key, self.domain.substrate, blueprint
            )
        return blueprint

    def distance(self, bp_a: Hashable, bp_b: Hashable) -> float:
        """Memoized ``blueprint_distance``.

        The reversed-order entry is consulted only for domains declaring a
        symmetric metric; for asymmetric metrics (image BoxSummary
        matching) each orientation is cached separately so cached and
        uncached pipelines compute identical values.
        """
        if not self.enabled:
            return self.domain.blueprint_distance(bp_a, bp_b)
        key = (bp_a, bp_b)
        value = self._distances.get(key)
        if value is None and getattr(self.domain, "symmetric_distance", True):
            value = self._distances.get((bp_b, bp_a))
        if value is not None:
            self._record("distance", hit=True)
            return value
        self._record("distance", hit=False)
        store_key = None
        if self._store_active:
            store_key = self._distance_key(bp_a, bp_b)
            stored = self.store.get("dist", store_key)
            if stored is not BlueprintStore.MISS:
                self._record_store("dist", hit=True)
                self._distances[key] = stored
                return stored
            self._record_store("dist", hit=False)
        value = self.domain.blueprint_distance(bp_a, bp_b)
        self._distances[key] = value
        if store_key is not None:
            self.store.put("dist", store_key, self.domain.substrate, value)
        return value

    def _distance_key(self, bp_a: Hashable, bp_b: Hashable) -> str:
        """Persistent-store key for one distance lookup.

        Symmetric metrics normalize the orientation (one entry serves both
        directions); asymmetric metrics (image BoxSummary matching) keep
        the argument order in the key so each orientation is stored
        separately and cached runs stay bit-identical to uncached ones.
        """
        digest_a = self._blueprint_digest(bp_a)
        digest_b = self._blueprint_digest(bp_b)
        if getattr(self.domain, "symmetric_distance", True) and (
            digest_b < digest_a
        ):
            digest_a, digest_b = digest_b, digest_a
        return entry_key(self.domain.substrate, "dist", digest_a, digest_b)

    def distance_cached(self, bp_a: Hashable, bp_b: Hashable) -> bool:
        """Whether a distance is already resident in L1 (no L2 probe)."""
        if (bp_a, bp_b) in self._distances:
            return True
        return getattr(self.domain, "symmetric_distance", True) and (
            (bp_b, bp_a) in self._distances
        )

    def prime_distance(
        self,
        bp_a: Hashable,
        bp_b: Hashable,
        value: float,
        persist: bool = True,
    ) -> None:
        """Seed one pairwise distance computed out-of-band.

        Used by the blocked parallel kernel
        (:func:`repro.core.clustering.pairwise_distance_matrix`): workers
        compute ``domain.blueprint_distance`` directly and the parent
        seeds the results here, so the serial merge loop afterwards only
        performs lookups.  ``value`` must equal what
        ``domain.blueprint_distance(bp_a, bp_b)`` would return.

        ``persist=False`` seeds L1 only — for speculative prefills (the
        fine-clustering full matrix) whose extra pairs would bloat the
        persistent store with distances no serial run ever asks for.
        """
        if not self.enabled:
            return
        key = (bp_a, bp_b)
        if key in self._distances:
            return
        self._distances[key] = value
        if persist and self._store_active:
            self.store.put(
                "dist",
                self._distance_key(bp_a, bp_b),
                self.domain.substrate,
                value,
            )

    def prime_distances(
        self,
        pairs: Sequence[tuple[Hashable, Hashable]],
        values: Sequence[float],
        persist: bool = True,
    ) -> None:
        """Seed many out-of-band distances at once (see `prime_distance`).

        With no persistent store in play the whole batch lands in L1 via
        one C-level ``dict.update`` — the vectorized prefill kernel hands
        over tens of thousands of values, and a per-pair python loop here
        would cost more than computing them did.  Overwriting an existing
        entry is harmless by the priming contract (every seeded value
        equals what ``blueprint_distance`` would return).
        """
        if not self.enabled:
            return
        if persist and self._store_active:
            for (bp_a, bp_b), value in zip(pairs, values):
                self.prime_distance(bp_a, bp_b, value, persist=True)
            return
        self._distances.update(zip(pairs, values))

    # -- landmarks ------------------------------------------------------
    def landmark_candidates(
        self, examples: Sequence, max_candidates: int = 10
    ):
        """Memoized candidate scoring, keyed by the example set.

        Domains with a side-effectful scorer (``pure_landmarks = False``,
        e.g. the image domain's Relative-motion pattern refresh) always
        recompute so the side effects happen exactly as in the uncached
        pipeline.  Computation is timed under the ``landmark`` stage.
        """
        pure = getattr(self.domain, "pure_landmarks", True)
        if not self.enabled or not pure:
            with active_timer().stage("landmark"):
                return self.domain.landmark_candidates(
                    examples, max_candidates
                )
        key = (tuple(id(example) for example in examples), max_candidates)
        candidates = self._landmarks.get(key)
        if candidates is not None:
            self._record("landmark", hit=True)
            return list(candidates)
        self._record("landmark", hit=False)
        self._pinned.extend(examples)
        store_key = self._landmark_store_key(examples, max_candidates)
        if store_key is not None:
            stored = self.store.get("landmark", store_key)
            if stored is not BlueprintStore.MISS:
                self._record_store("landmark", hit=True)
                self._landmarks[key] = list(stored)
                return list(stored)
            self._record_store("landmark", hit=False)
        with active_timer().stage("landmark"):
            candidates = self.domain.landmark_candidates(
                examples, max_candidates
            )
        self._landmarks[key] = list(candidates)
        if store_key is not None:
            self.store.put(
                "landmark", store_key, self.domain.substrate, list(candidates)
            )
        return list(candidates)

    def _landmark_store_key(
        self, examples: Sequence, max_candidates: int
    ) -> str | None:
        """L2 key for a candidate list: the *ordered* example fingerprints.

        Order matters because the scorer samples a prefix of the example
        sequence; sorting the fingerprints would alias differently-ordered
        clusters that score differently.
        """
        if not self._store_active:
            return None
        fingerprints = []
        for example in examples:
            fingerprint = self._example_fingerprint(example)
            if fingerprint is None:
                return None
            fingerprints.append(fingerprint)
        return entry_key(
            self.domain.substrate,
            "landmark",
            f"k={max_candidates}",
            *fingerprints,
        )
