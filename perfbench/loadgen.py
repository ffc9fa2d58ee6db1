"""Open-loop HTTP load against a ``repro-serve`` process.

One asyncio process drives at most ``connections`` keep-alive
connections.  A scheduler coroutine releases request ``i`` at its due time
``t0 + i / rate`` whether or not earlier requests have finished (an open
loop: independent users), and a free connection sends it.  Each request
is timed from its *due* time, so a stall also charges the requests queued
behind it.  The scheduler's own lateness (release time minus due time)
is recorded separately: if the generator cannot keep its schedule the
phase is invalid, because the server was then offered less load than
claimed.

A response counts as a failure when it is not a 200, times out, or its
bytes differ from the reference response for the same payload (the
server's responses are canonical JSON, byte-identical batched or alone).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

# The same keep-alive HTTP/1.1 client the serving benchmarks use, and the
# server's own nearest-rank percentile.
from benchmarks.bench_serving import _fetch_json as get_json  # noqa: F401
from benchmarks.bench_serving import _http as http
from repro.serve.metrics import percentile  # noqa: F401

REQUEST_TIMEOUT_S = 2.0


async def reference_responses(
    host: str, port: int, bodies: list[bytes]
) -> list[bytes | None]:
    """Each payload sent once, alone; ``None`` for a non-200 answer."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        answers = []
        for body in bodies:
            status, raw = await http(reader, writer, "POST", "/extract", body)
            answers.append(raw if status == 200 else None)
        return answers
    finally:
        writer.close()
        await writer.wait_closed()


@dataclass
class Phase:
    """What one fixed-rate phase observed."""

    rate: float
    sent: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    # Requests released but not yet answered when the last one fell due.
    backlog_at_end: int = 0
    # From the first due time until the last answer arrived.
    elapsed_s: float = 0.0

    @property
    def goodput(self) -> float:
        """Successful answers per second over the phase."""
        return len(self.latencies_ms) / self.elapsed_s


async def open_loop(
    host: str,
    port: int,
    bodies: list[bytes],
    expected: list[bytes],
    order: list[int],
    rate: float,
    seconds: float,
    connections: int,
    offset: int = 0,
) -> Phase:
    """Send ``rate * seconds`` requests on a fixed schedule.

    Request ``i`` carries payload ``order[(offset + i) % len(order)]``.
    """
    loop = asyncio.get_running_loop()
    total = max(1, int(round(rate * seconds)))
    phase = Phase(rate=rate, sent=total)
    released: asyncio.Queue = asyncio.Queue()
    completed = 0
    t0 = loop.time() + 0.02

    async def scheduler() -> None:
        for i in range(total):
            due = t0 + i / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags_ms.append((loop.time() - due) * 1000.0)
            released.put_nowait((i, due))
        phase.backlog_at_end = total - completed
        for _ in range(connections):
            released.put_nowait(None)

    async def connection() -> None:
        nonlocal completed
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                item = await released.get()
                if item is None:
                    return
                i, due = item
                index = order[(offset + i) % len(order)]
                try:
                    status, raw = await asyncio.wait_for(
                        http(reader, writer, "POST", "/extract",
                             bodies[index]),
                        REQUEST_TIMEOUT_S,
                    )
                except (asyncio.TimeoutError, ConnectionError,
                        asyncio.IncompleteReadError):
                    # The connection's state is unknown: replace it.
                    phase.failed += 1
                    completed += 1
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    continue
                completed += 1
                if status != 200 or raw != expected[index]:
                    phase.failed += 1
                    continue
                phase.latencies_ms.append((loop.time() - due) * 1000.0)
        finally:
            writer.close()

    await asyncio.gather(
        scheduler(), *(connection() for _ in range(connections))
    )
    phase.elapsed_s = loop.time() - t0
    return phase


def tail_rank(count: int) -> int:
    """0-based index of the highest sample with at least ten beyond it."""
    return max(0, count - 11)
