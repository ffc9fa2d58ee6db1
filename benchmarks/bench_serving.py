"""Serving-layer load generator: latency/throughput vs concurrency.

Benchmarks a **real** ``repro-serve`` process over TCP — the server is
started as a subprocess against a store populated by the real export
path (`repro.harness.export`), and forge-generated documents are POSTed
at it from N concurrent keep-alive connections.  No fixtures: corpus,
programs and requests all come from the synthetic document forge.

For each concurrency level (default 2 / 8 / 16) the generator reports
client-observed p50/p99/mean latency and sustained throughput, plus the
server's own ``/metrics`` stage breakdown (queue / decode / route /
extract / encode), and writes everything to
``benchmarks/results/BENCH_serving.json``.  The pytest entry point
(`test_serving_latency_and_throughput`) runs a small version and gates
on every level answering 200s — the CI leg (`serving_check.py`) builds
on the same helpers and additionally diffs served extractions against
the offline harness.

Usage::

    python benchmarks/bench_serving.py [--providers 3] [--train 4]
        [--test 6] [--levels 2,8,16] [--requests 300] [--seed 0]
        [--store-dir DIR]   # reuse an exported store instead of a temp one
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for benchmarks.common

RESULTS_DIR = REPO / "benchmarks" / "results"
RESULT_FILE = RESULTS_DIR / "BENCH_serving.json"

DEFAULT_LEVELS = (2, 8, 16)


# ---------------------------------------------------------------------
# Workload: export a forge catalog, collect request payloads
# ---------------------------------------------------------------------
def export_catalog(
    store_dir: pathlib.Path, providers: int, train: int, test: int, seed: int
) -> dict:
    """Export a forge serving catalog into ``store_dir`` (real training)."""
    os.environ["REPRO_STORE_DIR"] = str(store_dir)
    from repro.harness.export import export_experiment
    from repro.harness.runner import LrsynHtmlMethod

    names = [f"forge{index:03d}" for index in range(providers)]
    return export_experiment(
        "forge_html",
        methods=[LrsynHtmlMethod()],
        providers=names,
        train_size=train,
        test_size=test,
        seed=seed,
    )


def forge_payloads(
    providers: int, train: int, test: int, seed: int
) -> list[dict]:
    """One ``POST /extract`` body per (document, field) of the workload."""
    from repro.datasets import forge
    from repro.datasets.base import CONTEMPORARY
    from repro.harness.forge import forge_corpora

    payloads = []
    for index in range(providers):
        provider = f"forge{index:03d}"
        corpus = forge_corpora(provider, train, test, seed)[CONTEMPORARY]
        fields = forge.fields_for(provider)
        for labeled in corpus.train + corpus.test:
            for field in fields:
                payloads.append(
                    {"html": labeled.doc.source, "field": field}
                )
    return payloads


# ---------------------------------------------------------------------
# Server subprocess
# ---------------------------------------------------------------------
def start_server(
    store_dir: pathlib.Path,
    addr_file: pathlib.Path,
    extra_env: dict | None = None,
    timeout: float = 60.0,
) -> tuple[subprocess.Popen, str, int]:
    """Start ``repro-serve run`` and wait for its published address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.serve import main;"
            " sys.exit(main(sys.argv[1:]))",
            "--store-dir",
            str(store_dir),
            "run",
            "--port",
            "0",
            "--watch",
            "0",
            "--addr-file",
            str(addr_file),
        ],
        env=env,
        cwd=REPO,
    )
    deadline = time.time() + timeout
    while time.time() < deadline:
        if addr_file.exists() and addr_file.read_text().strip():
            address = addr_file.read_text().strip()
            host, port = address.removeprefix("http://").split(":")
            return proc, host, int(port)
        if proc.poll() is not None:
            raise RuntimeError(
                f"repro-serve died at startup (exit {proc.returncode})"
            )
        time.sleep(0.05)
    proc.kill()
    raise RuntimeError("repro-serve never published its address")


def stop_server(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
        return -9


# ---------------------------------------------------------------------
# The load generator proper
# ---------------------------------------------------------------------
async def _http(reader, writer, method, path, body: bytes):
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        + body
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length)
    return status, raw


async def _run_level(
    host: str, port: int, bodies: list[bytes], concurrency: int, total: int
) -> dict:
    """``total`` requests from ``concurrency`` keep-alive connections."""
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    counter = {"next": 0}

    async def worker():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                index = counter["next"]
                if index >= total:
                    return
                counter["next"] = index + 1
                body = bodies[index % len(bodies)]
                start = time.perf_counter()
                status, _ = await _http(
                    reader, writer, "POST", "/extract", body
                )
                latencies.append(time.perf_counter() - start)
                statuses[status] = statuses.get(status, 0) + 1
        finally:
            writer.close()

    wall_start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(concurrency)))
    wall = time.perf_counter() - wall_start

    from repro.serve.metrics import percentile

    ordered = sorted(latencies)
    return {
        "concurrency": concurrency,
        "requests": total,
        "statuses": {str(code): n for code, n in sorted(statuses.items())},
        "p50_ms": round(percentile(ordered, 0.50) * 1000.0, 3),
        "p99_ms": round(percentile(ordered, 0.99) * 1000.0, 3),
        "mean_ms": round(sum(ordered) / len(ordered) * 1000.0, 3),
        "max_ms": round(ordered[-1] * 1000.0, 3),
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(total / wall, 1),
    }


async def _fetch_json(host: str, port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        _, raw = await _http(reader, writer, "GET", path, b"")
        return json.loads(raw)
    finally:
        writer.close()


def run_load(
    host: str,
    port: int,
    payloads: list[dict],
    levels: tuple[int, ...],
    requests_per_level: int,
) -> dict:
    """Every concurrency level against one server, plus its /metrics."""
    bodies = [json.dumps(payload).encode() for payload in payloads]

    async def main():
        # One warmup pass so the first level doesn't pay import/JIT noise.
        await _run_level(host, port, bodies, 2, min(20, requests_per_level))
        results = []
        for concurrency in levels:
            results.append(
                await _run_level(
                    host, port, bodies, concurrency, requests_per_level
                )
            )
            print(json.dumps(results[-1]))
        metrics = await _fetch_json(host, port, "/metrics")
        health = await _fetch_json(host, port, "/healthz")
        return {"levels": results, "server_metrics": metrics, "health": health}

    return asyncio.run(main())


def run_benchmark(
    providers: int = 3,
    train: int = 4,
    test: int = 6,
    seed: int = 0,
    levels: tuple[int, ...] = DEFAULT_LEVELS,
    requests_per_level: int = 300,
    store_dir: str | None = None,
) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-serving-") as tmp:
        tmp_path = pathlib.Path(tmp)
        directory = pathlib.Path(store_dir) if store_dir else tmp_path / "store"
        directory.mkdir(parents=True, exist_ok=True)
        export_report = export_catalog(directory, providers, train, test, seed)
        payloads = forge_payloads(providers, train, test, seed)
        proc, host, port = start_server(directory, tmp_path / "addr")
        try:
            load = run_load(host, port, payloads, levels, requests_per_level)
            exit_code = stop_server(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
        report = {
            "workload": {
                "providers": providers,
                "train_docs": train,
                "test_docs": test,
                "seed": seed,
                "distinct_payloads": len(payloads),
                "exported": export_report["counts"],
            },
            "levels": load["levels"],
            "server_metrics": load["server_metrics"],
            "server_drain_exit": exit_code,
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        RESULT_FILE.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {RESULT_FILE}")
        return report


def test_serving_latency_and_throughput():
    """Pytest/CI entry: 3 concurrency levels must all serve cleanly."""
    report = run_benchmark(
        providers=2, train=3, test=3, levels=(2, 4, 8), requests_per_level=60
    )
    assert len(report["levels"]) >= 3
    for level in report["levels"]:
        assert level["statuses"].get("200", 0) > 0, level
        assert 0 < level["p50_ms"] <= level["p99_ms"], level
        assert level["throughput_rps"] > 0, level
    assert report["server_drain_exit"] == 0
    stages = report["server_metrics"]["stages_ms"]
    for stage in ("queue", "decode", "route", "extract", "encode", "total"):
        assert stages[stage]["count"] > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--providers", type=int, default=3)
    parser.add_argument("--train", type=int, default=4)
    parser.add_argument("--test", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--levels", default=",".join(str(level) for level in DEFAULT_LEVELS)
    )
    parser.add_argument("--requests", type=int, default=300)
    parser.add_argument("--store-dir", default=None)
    args = parser.parse_args(argv)
    levels = tuple(
        int(part) for part in args.levels.split(",") if part.strip()
    )
    report = run_benchmark(
        providers=args.providers,
        train=args.train,
        test=args.test,
        seed=args.seed,
        levels=levels,
        requests_per_level=args.requests,
        store_dir=args.store_dir,
    )
    slowest = max(level["p99_ms"] for level in report["levels"])
    print(f"done: {len(report['levels'])} levels, worst p99 {slowest}ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
