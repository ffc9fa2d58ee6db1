"""Catalog loading and blueprint-distance routing for the serving layer.

Two concerns live here, both deliberately *defensive* — the serving
process answers diagnostics, it never unpickles-and-crashes:

:class:`ServingCatalog`
    Reads the ``serving`` rows the exporter
    (:mod:`repro.harness.export`) wrote, **directly from the store
    backend** — bypassing the :class:`repro.store.BlueprintStore` front,
    whose per-kind hydration caches the first read forever.  Backend
    reads hit the medium every time, which is what makes hot reload
    possible: the watcher re-reads, compares :attr:`ServingCatalog.digest`
    (a hash of the raw rows plus the live
    ``BLUEPRINT_ALGO_VERSION`` generation) and swaps the router only
    when something actually changed.

    Every row degrades *per entry*: a stale-generation export, a stored
    synthesis-failure sentinel, a program the exporter couldn't pickle,
    a missing or unreadable program blob — each becomes a catalog entry
    with ``extractor=None`` and a machine-readable ``reason``, served as
    a diagnostic 404.  This is the serving half of the sentinel-leak
    audit: the ``_FAILURE`` sentinel and incompatible generations are
    detected *before* anything is treated as a program.

:class:`Router`
    Picks the best ``(provider, field)`` program for a document by
    blueprint distance.  The catalog's routing blueprints are interned
    into one :class:`repro.core.bitset.BitsetUniverse` at build time;
    per request, the document blueprint is encoded **within** that fixed
    universe and one packed popcount pass scores every routing row.
    Unknown elements drop out of the mask but still count toward the
    union — ``|a ∪ b| = |a| + |b| − |a ∩ b|`` over exact integers — so
    the distances are bit-identical to
    :func:`repro.core.distance.jaccard_distance` on the raw sets.
    A fixed universe also means batch composition cannot influence
    routing: one request scores the same alone or in a full batch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

import repro.store as store_mod
from repro.core.bitset import BitsetUniverse
from repro.store.backend import decode_value

# Entry states beyond the exporter's own (see repro.harness.export):
# reasons a row cannot serve, reported verbatim in 404 bodies.
REASON_STALE = "stale-generation"
REASON_SYNTH = "synthesis-failure"
REASON_UNPICKLABLE = "unpicklable-program"
REASON_MISSING = "missing-program"
REASON_UNREADABLE = "unreadable-program"

# Method preference when a request names none: the paper's system first,
# then any ready baseline in deterministic order.
PREFERRED_METHODS = ("LRSyn",)


@dataclass
class CatalogEntry:
    """One ``(provider, field, method)`` program as the server sees it."""

    key: str
    dataset: str
    provider: str
    field: str
    method: str
    program_key: str
    algo: int
    blueprints: tuple[frozenset, ...]
    extractor: object | None = None
    reason: str | None = None  # None iff servable

    @property
    def ready(self) -> bool:
        return self.extractor is not None and self.reason is None

    def describe(self) -> dict:
        return {
            "dataset": self.dataset,
            "provider": self.provider,
            "field": self.field,
            "method": self.method,
            "status": "ready" if self.ready else self.reason,
            "blueprints": len(self.blueprints),
        }


@dataclass
class ServingCatalog:
    """The decoded serving rows plus a change-detection digest."""

    entries: list[CatalogEntry]
    digest: str
    generation: str
    unreadable_rows: int = 0

    @property
    def ready(self) -> int:
        return sum(1 for entry in self.entries if entry.ready)


def catalog_digest(rows: dict[str, tuple[bytes, str]]) -> str:
    """A stable fingerprint of the raw serving rows *and* the live
    algo generation — either changing forces a reload."""
    hasher = hashlib.sha256()
    hasher.update(store_mod.default_generation().encode("ascii"))
    for key in sorted(rows):
        blob, codec = rows[key]
        hasher.update(key.encode("utf-8"))
        hasher.update(codec.encode("ascii"))
        hasher.update(hashlib.sha256(blob).digest())
    return hasher.hexdigest()


def _failure_sentinel() -> str:
    # The program kind's stored sentinel lives with its writer; import
    # lazily to keep this module importable without the harness.
    from repro.harness.runner import _FAILURE

    return _FAILURE


def peek_digest(store) -> str:
    """The digest a fresh load would produce (the watcher's cheap probe).

    Reads raw rows only — no unpickling, no program fetches."""
    from repro.harness.export import SERVING_KIND

    backend = store.backend
    rows = backend.get_many(SERVING_KIND) if backend is not None else {}
    return catalog_digest(rows)


def load_catalog(store) -> ServingCatalog:
    """Decode every serving row, degrading per entry instead of raising.

    ``store`` must be an enabled :class:`repro.store.BlueprintStore`;
    reads go through ``store.backend`` so repeated loads see fresh rows.
    """
    from repro.harness.export import (
        CATALOG_VERSION,
        SERVING_KIND,
        SYNTHESIS_FAILURE,
        UNPICKLABLE,
    )

    backend = store.backend
    rows = backend.get_many(SERVING_KIND) if backend is not None else {}
    digest = catalog_digest(rows)
    generation = store_mod.default_generation()
    sentinel = _failure_sentinel()
    entries: list[CatalogEntry] = []
    unreadable = 0
    program_cache: dict[str, tuple[object | None, str | None]] = {}
    for key in sorted(rows):
        blob, codec = rows[key]
        try:
            payload = decode_value(blob, codec)
            if not isinstance(payload, dict):
                raise TypeError(f"serving row is {type(payload).__name__}")
            entry = CatalogEntry(
                key=key,
                dataset=payload["dataset"],
                provider=payload["provider"],
                field=payload["field"],
                method=payload["method"],
                program_key=payload["program_key"],
                algo=int(payload["algo"]),
                blueprints=tuple(payload["blueprints"]),
            )
            status = payload.get("status")
            version = payload.get("version")
        except Exception:
            # A row we cannot even describe: count it, serve without it.
            unreadable += 1
            continue
        if version != CATALOG_VERSION or entry.algo != (
            store_mod.BLUEPRINT_ALGO_VERSION
        ):
            # Exported under incompatible code: the program it points at
            # was trained by a different algorithm revision.  Refuse to
            # unpickle it; answer 404s until a fresh export lands.
            entry.reason = REASON_STALE
        elif status == SYNTHESIS_FAILURE:
            entry.reason = REASON_SYNTH
        elif status == UNPICKLABLE:
            entry.reason = REASON_UNPICKLABLE
        else:
            extractor, reason = program_cache.get(
                entry.program_key, (None, "unprobed")
            )
            if reason == "unprobed":
                extractor, reason = _load_program(
                    backend, entry.program_key, sentinel
                )
                program_cache[entry.program_key] = (extractor, reason)
            entry.extractor, entry.reason = extractor, reason
        entries.append(entry)
    return ServingCatalog(
        entries=entries,
        digest=digest,
        generation=generation,
        unreadable_rows=unreadable,
    )


def _load_program(
    backend, program_key: str, sentinel: str
) -> tuple[object | None, str | None]:
    """One program blob → ``(extractor, None)`` or ``(None, reason)``."""
    row = (
        backend.get_many("program", [program_key]).get(program_key)
        if backend is not None
        else None
    )
    if row is None:
        return None, REASON_MISSING
    try:
        value = decode_value(row[0], row[1])
    except Exception:
        return None, REASON_UNREADABLE
    if value == sentinel:
        # The stored synthesis-failure sentinel: a legitimate entry (the
        # field deterministically fails to synthesize), not a program.
        return None, REASON_SYNTH
    if not hasattr(value, "extract"):
        return None, REASON_UNREADABLE
    return value, None


@dataclass
class _RoutingRow:
    provider: str
    field: str
    blueprint: frozenset


class Router:
    """Provider selection by blueprint distance over a fixed universe."""

    def __init__(self, catalog: ServingCatalog) -> None:
        self.catalog = catalog
        # (provider, field) -> {method: entry}, degraded entries included
        # so lookups can answer *why* a program is unavailable.
        self.table: dict[tuple[str, str], dict[str, CatalogEntry]] = {}
        for entry in catalog.entries:
            self.table.setdefault((entry.provider, entry.field), {})[
                entry.method
            ] = entry
        # Routing rows: one per distinct (provider, field, blueprint) of
        # the *servable* entries — degraded programs are not routing
        # destinations (routing to a guaranteed 404 helps nobody).
        rows: list[_RoutingRow] = []
        seen: set[tuple[str, str, frozenset]] = set()
        for entry in catalog.entries:
            if not entry.ready:
                continue
            for blueprint in entry.blueprints:
                fingerprint = (entry.provider, entry.field, blueprint)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                rows.append(
                    _RoutingRow(entry.provider, entry.field, blueprint)
                )
        self.rows = rows
        # Intern the catalog side once.  The universe is catalog-only:
        # request elements outside it vanish from the intersection but
        # are restored in the union via |b|, keeping Jaccard exact.
        self._universe = BitsetUniverse(
            element for row in rows for element in row.blueprint
        )
        self._packed = self._universe.pack(
            self._universe.encode_all(row.blueprint for row in rows)
        )
        self._sizes = np.array(
            [len(row.blueprint) for row in rows], dtype=np.int64
        )

    # -- distances -------------------------------------------------------
    def distances(self, blueprint: frozenset) -> list[float]:
        """Distance from ``blueprint`` to every routing row (row order).

        One packed popcount pass gives each row's exact intersection
        count; the union follows from the two set sizes, so every value
        divides the same integers as ``jaccard_distance``.
        """
        universe = self._universe
        needle = universe.pack([universe.encode_within(blueprint)])[0]
        inter = np.bitwise_count(self._packed & needle).sum(
            axis=1, dtype=np.int64
        )
        union = self._sizes + len(blueprint) - inter
        safe = np.where(union == 0, 1, union)
        return np.where(union == 0, 0.0, 1.0 - inter / safe).tolist()

    # -- selection -------------------------------------------------------
    def route(
        self,
        field: str,
        blueprint: frozenset,
        method: str | None = None,
    ) -> tuple[CatalogEntry | None, float | None, dict | None]:
        """Best servable program for ``field`` given a document blueprint.

        Returns ``(entry, distance, None)`` on success or
        ``(None, None, diagnostic)`` when no provider can serve the
        field (optionally restricted to ``method``).  Ties break on the
        smaller provider name, so routing is deterministic.
        """
        all_distances = self.distances(blueprint)
        best: tuple[float, str] | None = None
        for row, distance in zip(self.rows, all_distances):
            if row.field != field:
                continue
            if self._select(row.provider, field, method) is None:
                continue
            candidate = (distance, row.provider)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            return None, None, self._route_diagnostic(field, method)
        distance, provider = best
        entry = self._select(provider, field, method)
        assert entry is not None
        return entry, distance, None

    def lookup(
        self, provider: str, field: str, method: str | None = None
    ) -> tuple[CatalogEntry | None, dict | None]:
        """The explicit-provider path: exact lookup, diagnostic on miss."""
        methods = self.table.get((provider, field))
        if not methods:
            return None, {
                "reason": "unknown-provider-field",
                "provider": provider,
                "field": field,
                "detail": "no exported program for this provider/field",
            }
        entry = self._select(provider, field, method)
        if entry is not None:
            return entry, None
        if method is not None and method not in methods:
            return None, {
                "reason": "unknown-method",
                "provider": provider,
                "field": field,
                "method": method,
                "available": sorted(methods),
            }
        # Exported but not servable: surface each method's reason —
        # this is the 404-with-diagnostic the degrade contract promises.
        wanted = [methods[method]] if method else list(methods.values())
        return None, {
            "reason": _primary_reason(wanted),
            "provider": provider,
            "field": field,
            "methods": {
                entry.method: entry.reason or "ready" for entry in wanted
            },
        }

    def _select(
        self, provider: str, field: str, method: str | None
    ) -> CatalogEntry | None:
        """The ready entry to serve, honoring the method preference."""
        methods = self.table.get((provider, field))
        if not methods:
            return None
        if method is not None:
            entry = methods.get(method)
            return entry if entry is not None and entry.ready else None
        for name in PREFERRED_METHODS:
            entry = methods.get(name)
            if entry is not None and entry.ready:
                return entry
        for name in sorted(methods):
            entry = methods[name]
            if entry.ready:
                return entry
        return None

    def _route_diagnostic(self, field: str, method: str | None) -> dict:
        exported = {
            entry.method: entry.reason or "ready"
            for entry in self.catalog.entries
            if entry.field == field
        }
        if not exported:
            return {
                "reason": "unknown-field",
                "field": field,
                "detail": "no exported program for this field",
            }
        wanted = [
            entry
            for entry in self.catalog.entries
            if entry.field == field
            and (method is None or entry.method == method)
        ]
        return {
            "reason": _primary_reason(wanted) if wanted else "unknown-method",
            "field": field,
            **({"method": method} if method is not None else {}),
            "methods": exported,
        }

    def programs(self) -> list[dict]:
        """The ``GET /programs`` listing."""
        return [entry.describe() for entry in self.catalog.entries]


def _primary_reason(entries: Sequence[CatalogEntry]) -> str:
    """The most informative reason across degraded sibling entries."""
    reasons = [entry.reason for entry in entries if entry.reason]
    if not reasons:
        return "unavailable"
    for preferred in (
        REASON_STALE,
        REASON_SYNTH,
        REASON_UNPICKLABLE,
        REASON_MISSING,
        REASON_UNREADABLE,
    ):
        if preferred in reasons:
            return preferred
    return reasons[0]


__all__ = [
    "CatalogEntry",
    "Router",
    "ServingCatalog",
    "load_catalog",
    "peek_digest",
]
