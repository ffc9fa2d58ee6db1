"""Shared-memory parallel kernels (PaLD-style blocked pairwise work).

The pairwise-comparison kernels of the synthesis pipeline (blueprint
distance matrices, landmark-candidate scoring) parallelize well with
blocked partitioning: the inputs are immutable, each tile is independent,
and only small index ranges plus per-tile results cross process
boundaries.  On Linux the worker pool is created with the ``fork`` start
method *after* the payload is staged in a module global, so children read
the payload through copy-on-write shared memory — the Python analogue of
the shared-memory PaLD kernel — and no document is ever pickled.  The
distance tiles here serve the generic per-pair path (metrics the packed
Jaccard kernel of :mod:`repro.core.bitset` does not cover, such as image
BoxSummary matching), so children share the blueprints/documents
themselves.

Guard rails:

* ``REPRO_JOBS`` (the same knob the experiment harness uses) sets the
  worker count; the default of 1 keeps every kernel serial.
* Kernels never nest: harness worker processes (and the kernels' own
  workers) are marked via an environment flag, and :func:`kernel_jobs`
  reports 1 inside them, so a parallel harness run keeps its per-task
  pipelines serial instead of forking a pool per ``lrsyn`` call.
* Platforms without a ``fork`` context (Windows) silently run serially —
  results are identical either way, by construction: parallel callers
  compute the same values in the same deterministic order and merge them
  in submission order.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")

_WORKER_ENV = "REPRO_WORKER"


def jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` env var (default 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer (worker count), got {raw!r}"
        ) from None


def mark_worker() -> None:
    """Flag this process as a pool worker so kernels inside it stay serial."""
    os.environ[_WORKER_ENV] = "1"


def in_worker() -> bool:
    return os.environ.get(_WORKER_ENV) == "1"


def fork_context():
    """The ``fork`` multiprocessing context, or ``None`` if unavailable."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def kernel_jobs() -> int:
    """Workers available to in-process parallel kernels.

    1 (serial) inside pool workers, in daemonic processes, and on
    platforms without ``fork``; otherwise the ``REPRO_JOBS`` setting.
    """
    if in_worker() or multiprocessing.current_process().daemon:
        return 1
    if fork_context() is None:  # pragma: no cover - non-POSIX platforms
        return 1
    return jobs()


def tile_ranges(n: int, tile: int) -> list[tuple[int, int]]:
    """Partition ``range(n)`` into ``[start, stop)`` blocks of size ``tile``.

    Degenerate inputs are handled the obvious way: ``n <= 0`` yields no
    tiles, ``n == 1`` yields one singleton tile, and a tile size larger
    than ``n`` yields a single block covering everything.
    """
    if n <= 0:
        return []
    tile = max(1, tile)
    return [(start, min(start + tile, n)) for start in range(0, n, tile)]


# Payload shared with forked workers through copy-on-write memory: staged
# before the pool is created, read by workers via :func:`shared_payload`.
_PAYLOAD: Any = None


def shared_payload() -> Any:
    """The payload staged by :func:`run_sharded` (fork-inherited)."""
    return _PAYLOAD


def _init_worker() -> None:
    mark_worker()


def run_sharded(
    payload: Any,
    worker: Callable[[T], Any],
    shards: Sequence[T],
    max_workers: int,
) -> list:
    """Fan ``worker(shard)`` over a fork pool sharing ``payload``.

    Results are returned in shard submission order, so callers observe
    exactly the serial ordering.  ``worker`` must be a module-level
    function that reads the big inputs via :func:`shared_payload` — only
    the shard descriptors (index ranges) and the per-shard results are
    pickled.  With ``max_workers <= 1`` (or no fork support) the shards
    run serially in-process against the same payload.
    """
    global _PAYLOAD
    context = fork_context()
    _PAYLOAD = payload
    try:
        if context is None or max_workers <= 1 or len(shards) <= 1:
            return [worker(shard) for shard in shards]
        with ProcessPoolExecutor(
            max_workers=min(max_workers, len(shards)),
            mp_context=context,
            initializer=_init_worker,
        ) as pool:
            futures = [pool.submit(worker, shard) for shard in shards]
            return [future.result() for future in futures]
    finally:
        _PAYLOAD = None
