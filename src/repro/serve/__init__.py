"""Extraction-as-a-service: the infer-time half of the repository.

Everything under :mod:`repro.harness` optimizes *training* runs; this
package serves the programs those runs produce.  ``repro-serve run``
starts a long-lived asyncio HTTP service (stdlib ``asyncio`` + ``http``
only) that

* loads the serving catalog — ``(provider, field, method)`` rows written
  by :mod:`repro.harness.export` — from the blueprint store at startup,
  and **hot-reloads** it when the rows or the
  :data:`repro.store.BLUEPRINT_ALGO_VERSION` generation change;
* accepts documents over ``POST /extract`` and routes each to the best
  provider by **bitset blueprint distance** (the packed Jaccard kernel
  from :mod:`repro.core.bitset` sits on the per-request routing path);
* micro-batches requests behind a **bounded admission queue** that sheds
  load with 429s instead of growing without bound;
* degrades per entry instead of crashing: a stored synthesis-failure
  sentinel, a stale-generation export or an unreadable program answers
  with a diagnostic 404 (:mod:`repro.serve.router`);
* exposes per-stage latency metrics (queue / decode / route / extract /
  encode) on ``GET /metrics`` and drains gracefully on SIGTERM — every
  admitted request is answered before the process exits, mirroring the
  store daemon's drain.

Environment knobs (flags override; see ``docs/serving.md``)
-----------------------------------------------------------

``REPRO_SERVE_PORT``
    TCP port for ``repro-serve run`` (default ``7464``; ``0`` picks a
    free port — combine with ``--addr-file``).

``REPRO_SERVE_QUEUE``
    Admission-queue bound (default ``128``).  A request arriving with the
    queue full is shed with a 429 and counted; it never waits.

``REPRO_SERVE_BATCH``
    Micro-batch size (default ``8``): after the first queued request is
    claimed, up to ``BATCH-1`` more are collected within the batch window
    and processed as one unit, so routing is one vectorized distance
    evaluation per batch.  Outputs are byte-identical at every batch
    size.

``REPRO_SERVE_BATCH_WAIT_MS``
    The batch window (default ``2`` ms): how long the batcher waits for
    followers after the first request before processing a short batch.

``REPRO_SERVE_WATCH``
    Catalog watch interval in seconds (default ``2``; ``0`` disables the
    watcher — ``POST /reload`` still forces a reload).

``REPRO_SERVE_DELAY_MS``
    Debug-only artificial per-request extract latency (default ``0``) so
    drain/overflow behavior can be exercised deterministically.
"""

from __future__ import annotations

import os

DEFAULT_PORT = 7464
DEFAULT_QUEUE = 128
DEFAULT_BATCH = 8
DEFAULT_BATCH_WAIT_MS = 2.0
DEFAULT_WATCH_SECONDS = 2.0

__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_BATCH_WAIT_MS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE",
    "DEFAULT_WATCH_SECONDS",
    "serve_batch",
    "serve_batch_wait",
    "serve_delay",
    "serve_port",
    "serve_queue",
    "serve_watch",
    "main",
]


def _positive_int(name: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    return max(minimum, value)


def _seconds(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None
    return max(0.0, value)


def serve_port() -> int:
    """Default port for ``repro-serve run`` (``REPRO_SERVE_PORT``)."""
    return _positive_int("REPRO_SERVE_PORT", DEFAULT_PORT, minimum=0)


def serve_queue() -> int:
    """Admission-queue bound (``REPRO_SERVE_QUEUE``)."""
    return _positive_int("REPRO_SERVE_QUEUE", DEFAULT_QUEUE)


def serve_batch() -> int:
    """Micro-batch size (``REPRO_SERVE_BATCH``)."""
    return _positive_int("REPRO_SERVE_BATCH", DEFAULT_BATCH)


def serve_batch_wait() -> float:
    """Batch window in *seconds* (``REPRO_SERVE_BATCH_WAIT_MS``)."""
    return _seconds("REPRO_SERVE_BATCH_WAIT_MS", DEFAULT_BATCH_WAIT_MS) / 1000.0


def serve_watch() -> float:
    """Catalog watch interval in seconds (``REPRO_SERVE_WATCH``)."""
    return _seconds("REPRO_SERVE_WATCH", DEFAULT_WATCH_SECONDS)


def serve_delay() -> float:
    """Debug per-request extract delay in *seconds* (``REPRO_SERVE_DELAY_MS``)."""
    return _seconds("REPRO_SERVE_DELAY_MS", 0.0) / 1000.0


def main(argv: list[str] | None = None) -> int:
    """The ``repro-serve`` console script (see :mod:`repro.serve.cli`)."""
    from repro.serve.cli import main as cli_main

    return cli_main(argv)
