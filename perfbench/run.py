"""The repository benchmark: synthesis and serving, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload html_cold --seed 0 --seconds 24 \
        --trace 0

Workloads (all single-process: ``REPRO_JOBS=1``, ``REPRO_SCALE=0.15``,
``PYTHONHASHSEED=0``; the seed picks the generated corpora).  Batch
passes draw corpus seeds from ``CORPUS_SEEDS`` in orders ``--seed``
shuffles, so a run spans several corpora (:func:`pass_plans`):

``html_cold``
    The m2h experiment (FXP, NDSyn, LRSyn: 53 tasks, 159 trainings) on an
    empty private store, one fresh process per pass, each pass on one
    corpus seed.  The only workload where HTML parsing, the baselines,
    clustering and store writes all run.
``image_cold``
    The finance experiment (AFR, LRSyn: 34 tasks, 68 trainings) the same
    way, except that each task of a pass takes its own corpus seed: one
    seed's ten training images can make every region synthesis of a pass
    twice as costly as another seed's.  Image region synthesis dominates
    it.
``serve_open``
    ``repro-serve`` over an exported forge_html catalog (3 providers),
    driven open-loop (:mod:`loadgen`) from this process over at most
    ``nproc`` keep-alive connections: a low fixed rate, then a fixed
    ladder of rates.

End-to-end metrics (``--trace 0``), one meaning per workload kind:

* ``setup_s``: batch: process start until the empty store is open (median
  over passes); serve: catalog export plus server start until
  ``/healthz`` answers (median of three set-ups).
* ``latency_ms``: the median wait for one unit of work.  Batch: the
  per-task wall from ``StageTimer.snapshot()["tasks"]`` (one field task
  builds its corpora if no earlier task of the pass did, then trains and
  scores every method), pooled over passes; serve: request latency at
  the low rate.
* ``peak_rss_mb``: peak resident memory of the pass process or server.

Printed with every run but not gated, because on a shared 2-core host
their spread over ten seeds reached 27-47 %: batch trainings per second
and the per-task tail, and for serve the low-rate tail, the highest
ladder rate with p99 within 20 ms, no failure and no growing backlog, and
the p99 at the high rate.  A tail is the highest sample with ten beyond
it; its rank is printed.

Outputs are checked: every batch pass's score digest per (corpus seed,
task), ``sha256(canonical_scores(rows))[:16]``, must match the golden in
``goldens.json`` (``record_goldens.py`` writes it) and any other pass of
the run over the same pair; every
served response must be a 200 whose bytes equal the reference answer for
its payload, and the reference answers must equal offline routing and
extraction over the same catalog.

``--trace 1`` reruns the workload with span wrappers (:mod:`spans`) and
prints the per-layer metrics instead, with ``trace.overhead_s``.  Human
readable lines go to stdout first; the last line is the JSON result.
Work files (stores, traces, full result records) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

SCALE = os.environ.get("PERFBENCH_SCALE", "0.15")  # smaller only in self-tests
KNOBS = {
    "REPRO_JOBS": "1",
    "REPRO_SCALE": SCALE,
    "PYTHONHASHSEED": "0",
    "REPRO_STORE": "1",
}
PASS_TIMEOUT_S = 150
# Batch passes generate their corpora from these seeds, each (seed, task)
# with a golden score digest in goldens.json; --seed picks the order in
# which passes take them.  A run covers several corpus seeds, so its
# figures do not hang on how costly one seed's documents happen to be.
CORPUS_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000)
# Workloads whose passes give every task its own corpus seed.  An image
# task's cost is mostly its own region synthesis, so one pass spans
# dozens of corpora; an m2h corpus build (parsing every page) is a large
# part of a pass and costs too much to repeat per task, so html passes
# share one seed.
PER_TASK_SEEDS = ("image_cold",)

WORKLOADS = {
    "html_cold": "m2h",
    "image_cold": "finance",
    "serve_open": "forge_html",
}

END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Every traced run reports all of them; a layer
# a workload does not exercise reads 0.
SPAN_SECONDS = {
    "datasets.generate_s": ("datasets.generate", "total_s"),
    "html.parse_s": ("html.parse", "total_s"),
    "html.landmark_s": ("html.landmark", "total_s"),
    "html.region_synth_s": ("html.region_synth", "total_s"),
    "html.value_synth_s": ("html.value_synth", "total_s"),
    "images.landmark_s": ("images.landmark", "total_s"),
    "images.region_synth_s": ("images.region_synth", "total_s"),
    "images.value_synth_s": ("images.value_synth", "total_s"),
    "core.cluster_s": ("core.cluster", "self_s"),
    "core.pairwise_s": ("core.pairwise", "total_s"),
    "core.extract_s": ("core.extract", "total_s"),
    "core.score_s": ("core.score", "self_s"),
    "baselines.ndsyn_s": ("baselines.ndsyn", "total_s"),
    "baselines.fxp_s": ("baselines.fxp", "total_s"),
    "baselines.afr_s": ("baselines.afr", "total_s"),
    "harness.train_s": ("harness.train", "self_s"),
    "harness.corpus_s": ("harness.corpus", "self_s"),
    "harness.pickle_probe_s": ("harness.pickle_probe", "total_s"),
    "store.get_s": ("store.get", "total_s"),
    "store.flush_s": ("store.flush", "total_s"),
}
SPAN_CALLS = {
    "images.region_synth_calls": "images.region_synth",
    "images.neighbor_calls": "images.neighbor",
    "core.extract_calls": "core.extract",
    "harness.train_calls": "harness.train",
    "store.get_calls": "store.get",
    "store.put_calls": "store.put",
}
SERVE_STAGES = ("queue", "decode", "route", "extract", "encode")
PER_LAYER = {
    **{name: "s" for name in SPAN_SECONDS},
    **{name: "count" for name in SPAN_CALLS},
    "core.cache_hit_ratio": "ratio",
    "harness.unattributed_s": "s",
    **{f"serve.{stage}_{q}_ms": "ms"
       for stage in SERVE_STAGES for q in ("p50", "p99")},
    "serve.batch_size_mean": "count",
    "serve.shed_ratio": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "trace.overhead_s": "s",
}

# Spans each workload must exercise; a traced run where one records no
# call means a wrapper sits where nothing looks the name up.
REQUIRED_SPANS = {
    "html_cold": (
        "datasets.generate", "html.parse", "html.landmark",
        "html.region_synth", "html.value_synth", "core.cluster",
        "core.pairwise", "core.extract", "core.score", "baselines.ndsyn",
        "baselines.fxp", "harness.train", "harness.corpus",
        "harness.pickle_probe", "store.get", "store.put", "store.flush",
    ),
    "image_cold": (
        "datasets.generate", "images.landmark", "images.region_synth",
        "images.value_synth", "images.neighbor", "core.cluster",
        "core.extract", "core.score", "baselines.afr", "harness.train",
        "harness.corpus", "harness.pickle_probe", "store.get", "store.put",
        "store.flush",
    ),
    "serve_open": ("html.parse", "core.extract"),
}

# serve_open shape.
SERVE_PROVIDERS = ("forge000", "forge001", "forge002")
SERVE_TRAIN, SERVE_TEST = 4, 6
SERVE_SETUPS = 3
LOW_RATE = 100.0
HIGH_RATE = 250.0
LADDER_COARSE = tuple(range(100, 1001, 50))
LADDER_FINE = 10
LATENCY_LIMIT_MS = 20.0
LAG_LIMIT_MS = 10.0


class Run:
    """Accumulates one benchmark run's outcome."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, int]] = {}
        self.notes: dict[str, object] = {}

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"FAIL: {text}", flush=True)

    def metric(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), samples)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(store_dir: Path | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(KNOBS)
    if store_dir is not None:
        env["REPRO_STORE_DIR"] = str(store_dir)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def batch_pass(experiment: str, plan: list, store_dir: Path,
               trace_out: Path | None = None) -> dict | None:
    """One pass in a fresh process; its report, or ``None`` if it failed."""
    report = WORK / "pass-report.json"
    report.unlink(missing_ok=True)
    command = [
        sys.executable, str(HERE / "batch_pass.py"),
        "--experiment", experiment, "--plan", json.dumps(plan),
        "--report", str(report),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    spawned = time.time()
    try:
        proc = subprocess.run(
            command, env=child_env(store_dir), cwd=ROOT,
            stdout=sys.stderr, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not report.exists():
        return None
    result = json.loads(report.read_text())
    result["setup_s"] = result["ready_at"] - spawned
    result["cost_s"] = time.time() - spawned
    return result


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------
def load_goldens() -> dict:
    if SCALE != "0.15":
        return {}
    return json.loads((HERE / "goldens.json").read_text())


def pass_plans(seed: int, tasks: list, per_task: bool):
    """The plan of each pass in turn: ``[(corpus seed, tasks)]`` groups.

    ``seed`` shuffles ``CORPUS_SEEDS`` into an order, and pass ``i`` takes
    the ``i``-th seed of it: one order for the whole pass, or with
    ``per_task`` one order per task, so that one pass runs every task,
    each on corpora of its own seed.
    """
    rng = random.Random(seed)
    orders = [rng.sample(CORPUS_SEEDS, len(CORPUS_SEEDS))
              for _ in (tasks if per_task else [None])]
    index = 0
    while True:
        groups: dict[int, list] = {}
        for number, task in enumerate(tasks):
            order = orders[number if per_task else 0]
            groups.setdefault(order[index % len(order)], []).append(task)
        yield list(groups.items())
        index += 1


def check_digests(run: Run, experiment: str, passes: list[dict]) -> None:
    """Each (corpus seed, task) score digest against its golden, and
    passes that ran the same one against each other."""
    goldens = load_goldens().get(experiment, {})
    seen: dict[tuple[str, str], set[str]] = {}
    for report in passes:
        for corpus, digests in report["digests"].items():
            for task, digest in digests.items():
                seen.setdefault((corpus, task), set()).add(digest)
    run.notes["tasks_checked"] = len(seen)
    bad = 0
    for (corpus, task), digests in sorted(seen.items()):
        golden = goldens.get(corpus, {}).get(task)
        if len(digests) > 1 or (goldens and digests != {golden}):
            bad += 1
            run.problem(f"corpus seed {corpus}, task {task}: score digest"
                        f" {sorted(digests)} != golden {golden}")
    if bad:
        # Scores are compared per task, but a wrong score anywhere means
        # no training of the run is known to be right.
        run.failed = run.attempted


def timed_passes(run: Run, experiment: str, seconds: float,
                 traced: bool) -> list[dict]:
    """At least two passes, then passes until ``seconds`` have elapsed.

    Every pass gets a fresh empty store and the next plan of
    :func:`pass_plans`.  Traced runs run each plan twice, first untraced
    and then traced, so the tracing overhead is measured on the same
    inputs.
    """
    from repro.harness import sharding

    tasks = [list(task) for task in sharding.get_experiment(
        experiment).tasks()]
    plans = pass_plans(run.seed, tasks, run.workload in PER_TASK_SEEDS)
    passes: list[dict] = []
    start = time.perf_counter()
    index = 0
    while True:
        tracing = traced and index % 2 == 1
        if not tracing:
            plan = next(plans)
        store = fresh_dir("store-pass")
        trace_out = None
        if tracing:
            trace_out = WORK / f"trace-{run.workload}.json"
        report = batch_pass(experiment, plan, store, trace_out)
        shutil.rmtree(store, ignore_errors=True)
        if report is None:
            run.problem(f"pass {index} failed")
            run.failed += passes[0]["trainings"] if passes else 1
            run.attempted += passes[0]["trainings"] if passes else 1
        else:
            report["traced"] = tracing
            report["plan"] = index // 2 if traced else index
            report["corpus_seeds"] = sorted({seed for seed, _ in plan})
            passes.append(report)
            run.attempted += report["trainings"]
        index += 1
        elapsed = time.perf_counter() - start
        # At least two passes, so a median exists; then stop when one more
        # pass would end over half a pass past the window.  A traced run
        # ends on a traced pass, so each pair is complete.
        if (index >= 2 and elapsed + elapsed / index / 2 >= seconds
                and not (traced and index % 2)):
            return passes


def batch_workload(run: Run, seconds: float) -> None:
    from loadgen import tail_rank

    experiment = WORKLOADS[run.workload]
    passes = timed_passes(run, experiment, seconds, run.trace)
    check_digests(run, experiment, passes)
    if not passes:
        return
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if not plain or (run.trace and not traced):
        return  # the failed passes are already reported as problems
    run.notes["synthesis_failures"] = passes[0]["synthesis_failures"]
    run.notes["f1_mean"] = passes[0]["f1_mean"]
    run.notes["passes"] = [
        {k: p[k] for k in ("corpus_seeds", "wall_s", "run_s", "flush_s",
                           "setup_s", "cost_s", "traced")}
        for p in passes
    ]
    if not run.trace:
        tasks = [p["task_ms"] for p in plain]
        pooled = [ms for t in tasks for ms in t]
        run.metric("setup_s", statistics.median(
            p["setup_s"] for p in plain), len(plain))
        run.metric("latency_ms", statistics.median(pooled), len(pooled))
        run.metric("peak_rss_mb", statistics.median(
            p["peak_rss_mb"] for p in plain), len(plain))
        run.notes["throughput_per_s"] = statistics.median(
            p["trainings"] / p["wall_s"] for p in plain)
        run.notes["task_tail_ms"] = statistics.median(
            t[tail_rank(len(t))] for t in tasks)
        run.notes["task_tail_rank"] = (
            f"{len(tasks[0]) - 10} of {len(tasks[0])} tasks per pass"
        )
        return
    layers = [span_layers(p["spans"], p["counters"], p["wall_s"])
              for p in traced]
    for name in PER_LAYER:
        values = [layer.get(name, 0.0) for layer in layers]
        run.metric(name, statistics.median(values), len(values))
    # Paired on one plan: the untraced pass just before each traced one.
    untraced = {p["plan"]: p["wall_s"] for p in plain}
    overheads = [p["wall_s"] - untraced[p["plan"]] for p in traced
                 if p["plan"] in untraced]
    if overheads:
        run.metric("trace.overhead_s", statistics.median(overheads),
                   len(overheads))
    check_coverage(run, [p["spans"] for p in traced])


def cache_hit_ratio(counters: dict) -> float:
    """Hits over lookups across every ``cache.<kind>.hit|miss`` counter."""
    hits = misses = 0
    for name, value in counters.items():
        if name.startswith("cache.") and name.endswith(".hit"):
            hits += value
        elif name.startswith("cache.") and name.endswith(".miss"):
            misses += value
    return hits / (hits + misses) if hits + misses else 0.0


def span_layers(summary: dict, counters: dict, wall: float | None) -> dict:
    names = summary["names"]
    layers = {
        metric: names.get(span, {}).get(key, 0.0)
        for metric, (span, key) in SPAN_SECONDS.items()
    }
    layers.update({
        metric: names.get(span, {}).get("calls", 0)
        for metric, span in SPAN_CALLS.items()
    })
    layers["core.cache_hit_ratio"] = cache_hit_ratio(counters)
    if wall is not None:
        layers["harness.unattributed_s"] = wall - summary["roots_s"]
    return layers


def check_coverage(run: Run, summaries: list[dict]) -> None:
    for span in REQUIRED_SPANS[run.workload]:
        for summary in summaries:
            if not summary["names"].get(span, {}).get("calls"):
                run.problem(f"span {span} recorded no call")
                break


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
class Server:
    """A catalog export plus a ``repro-serve`` process on top of it."""

    def __init__(self, run: Run, name: str) -> None:
        self.run = run
        self.store = fresh_dir(name)
        self.proc: subprocess.Popen | None = None
        self.report = self.store / "server-report.json"
        self.host = ""
        self.port = 0

    def export(self) -> None:
        # In-process export through the harness's shared store, as
        # benchmarks/bench_serving.py does: `repro-serve export` checks
        # for the stored program through a second store front that has
        # not seen the unflushed puts, and marks every program
        # unpicklable.
        subprocess.run(
            [sys.executable, "-c",
             "import sys, pathlib;"
             " from benchmarks.bench_serving import export_catalog;"
             " report = export_catalog(pathlib.Path(sys.argv[1]),"
             " *map(int, sys.argv[2:]));"
             " sys.exit(set(report['counts']) != {'ready'})",
             str(self.store), str(len(SERVE_PROVIDERS)), str(SERVE_TRAIN),
             str(SERVE_TEST), str(self.run.seed)],
            env=child_env(self.store), cwd=ROOT, stdout=sys.stderr,
            timeout=PASS_TIMEOUT_S, check=True,
        )

    def start(self, trace_out: Path | None = None) -> None:
        addr = self.store / "addr"
        addr.unlink(missing_ok=True)
        self.report.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "serve_child.py"),
                   "--report", str(self.report)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", "--store-dir", str(self.store), "run", "--port",
                    "0", "--watch", "0", "--addr-file", str(addr)]
        self.proc = subprocess.Popen(command, env=child_env(self.store),
                                     cwd=ROOT, stdout=sys.stderr)
        deadline = time.perf_counter() + 60
        while not (addr.exists() and addr.read_text().strip()):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError("repro-serve did not start")
            time.sleep(0.01)
        address = addr.read_text().strip().removeprefix("http://")
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        while True:
            try:
                health = asyncio.run(self.get("/healthz"))
            except OSError:
                health = {}
            if health.get("status") == "ok":
                return
            if time.perf_counter() > deadline:
                raise RuntimeError("repro-serve never became healthy")
            time.sleep(0.01)

    async def get(self, path: str) -> dict:
        from loadgen import get_json

        return await get_json(self.host, self.port, path)

    def stop(self) -> dict:
        """SIGTERM drain; a non-zero exit counts as a failure."""
        if self.proc is None:
            return {}
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(timeout=10)
        self.proc = None
        if code != 0:
            self.run.problem(f"repro-serve exited {code} after SIGTERM")
            self.run.failed += 1
            return {}
        return json.loads(self.report.read_text())

    def close(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)
        shutil.rmtree(self.store, ignore_errors=True)


def serve_payloads(seed: int) -> tuple[list[bytes], list[str]]:
    """One ``POST /extract`` body per (document, field), with the
    provider that generated each document."""
    from repro.datasets import forge
    from repro.datasets.base import CONTEMPORARY
    from repro.harness.forge import forge_corpora

    bodies, owners = [], []
    for provider in SERVE_PROVIDERS:
        corpus = forge_corpora(provider, SERVE_TRAIN, SERVE_TEST, seed)
        for labeled in corpus[CONTEMPORARY].train + corpus[CONTEMPORARY].test:
            for field in forge.fields_for(provider):
                bodies.append(json.dumps(
                    {"html": labeled.doc.source, "field": field}
                ).encode())
                owners.append(provider)
    return bodies, owners


def check_served(run: Run, server: Server, bodies: list[bytes],
                 owners: list[str]) -> list:
    """Reference answers, each checked against offline routing and
    extraction over the same catalog.

    The served answer must equal what ``Router.route`` and
    ``entry.extractor.extract`` produce offline.  Whether the router
    picked the document's own provider is reported, not gated: with some
    seeds two forge providers share a layout family, their documents'
    blueprints coincide, and the tie-break sends both to one program.
    """
    from loadgen import reference_responses
    from repro.html.domain import HtmlDomain
    from repro.html.parser import parse_html
    from repro.serve.router import Router, load_catalog
    from repro.store import BlueprintStore

    expected = asyncio.run(
        reference_responses(server.host, server.port, bodies)
    )
    store = BlueprintStore(directory=server.store, enabled=True)
    try:
        router = Router(load_catalog(store))
    finally:
        store.close()
    domain = HtmlDomain()
    mismatches = own = 0
    for body, owner, served in zip(bodies, owners, expected):
        request = json.loads(body)
        doc = parse_html(request["html"])
        entry, distance, _ = router.route(
            request["field"], domain.document_blueprint(doc)
        )
        offline = None if entry is None else {
            "provider": entry.provider, "field": entry.field,
            "method": entry.method, "values": entry.extractor.extract(doc),
            "distance": distance,
        }
        if served is None or offline is None or json.loads(served) != offline:
            mismatches += 1
        elif entry.provider == owner:
            own += 1
    run.attempted += len(bodies)
    run.failed += mismatches
    run.notes["served_equals_offline"] = (
        f"{len(bodies) - mismatches}/{len(bodies)}"
    )
    run.notes["routed_to_own_provider"] = f"{own}/{len(bodies)}"
    if mismatches:
        run.problem(f"served != offline on {mismatches} of {len(bodies)}")
    return expected


def phase(run: Run, server: Server, bodies, expected, order, rate, seconds,
          offset: int, phases: list):
    from loadgen import open_loop

    connections = min(2, os.cpu_count() or 1)
    result = asyncio.run(open_loop(
        server.host, server.port, bodies, expected, order, rate, seconds,
        connections, offset,
    ))
    run.attempted += result.sent
    run.failed += result.failed
    phases.append(result)
    return result


def step_passes(step) -> bool:
    from loadgen import percentile

    if step.failed or not step.latencies_ms:
        return False
    allowed_backlog = 2 + step.rate * LATENCY_LIMIT_MS / 1000.0
    return (percentile(sorted(step.latencies_ms), 0.99) <= LATENCY_LIMIT_MS
            and step.backlog_at_end <= allowed_backlog)


def climb_ladder(run: Run, server: Server, bodies, expected, order,
                 step_seconds: float, offset: int, phases: list):
    """The highest rate of the fixed ladder that meets the limit.

    Coarse rungs climb until one fails, then fine rungs refine between the
    last pass and that failure.  A failing rung is run once more and fails
    only if the retry fails too, so one slow second does not end the
    climb.  Returns ``(rate, goodput at that rate, {rate: ok}, p99 at
    HIGH_RATE)``.
    """
    from loadgen import percentile

    ladder: dict[float, bool] = {}
    best, best_goodput, hi_p99 = 0.0, 0.0, None

    def attempt(rate: float) -> bool:
        nonlocal offset, best, best_goodput, hi_p99
        for _ in range(2):
            step = phase(run, server, bodies, expected, order, rate,
                         step_seconds, offset, phases)
            offset += step.sent
            if rate == HIGH_RATE and step.latencies_ms and hi_p99 is None:
                hi_p99 = percentile(sorted(step.latencies_ms), 0.99)
            if step_passes(step):
                ladder[rate] = True
                best, best_goodput = rate, step.goodput
                return True
        ladder[rate] = False
        return False

    failed = None
    for rate in LADDER_COARSE:
        if not attempt(rate):
            failed = rate
            break
    if failed is not None and best:
        for rate in range(int(best) + LADDER_FINE, int(failed), LADDER_FINE):
            if not attempt(rate):
                break
    return best, best_goodput, ladder, hi_p99


def serve_workload(run: Run, seconds: float) -> None:
    from loadgen import percentile, tail_rank

    bodies, owners = serve_payloads(run.seed)
    order = list(range(len(bodies)))
    random.Random(run.seed).shuffle(order)
    setups: list[float] = []
    servers: list[Server] = []
    phases: list = []
    try:
        count = 1 if run.trace else SERVE_SETUPS
        for index in range(count):
            server = Server(run, f"serve-{index}")
            servers.append(server)
            start = time.perf_counter()
            server.export()
            server.start()
            setups.append(time.perf_counter() - start)
            if index < count - 1:
                server.stop()
                server.close()
        server = servers[-1]
        expected = check_served(run, server, bodies, owners)
        if run.trace:
            serve_traced(run, server, bodies, expected, order, seconds,
                         phases)
            return
        low = phase(run, server, bodies, expected, order, LOW_RATE,
                    seconds / 2, 0, phases)
        low_ms = sorted(low.latencies_ms)
        offset = low.sent
        best, best_goodput, ladder, hi_p99 = climb_ladder(
            run, server, bodies, expected, order, seconds / 20, offset,
            phases,
        )
        exit_report = server.stop()
        if low_ms:
            run.metric("setup_s", statistics.median(setups), len(setups))
            run.metric("latency_ms", percentile(low_ms, 0.5), len(low_ms))
            run.metric("peak_rss_mb", exit_report.get("peak_rss_mb", 0.0), 1)
            run.notes["tail_ms"] = low_ms[tail_rank(len(low_ms))]
            run.notes["tail_rank"] = f"{len(low_ms) - 10} of {len(low_ms)}"
        run.notes["ladder"] = {str(int(r)): ok for r, ok in ladder.items()}
        run.notes["max_rps"] = best
        run.notes["max_rps_goodput"] = best_goodput
        run.notes["hi_p99_ms"] = hi_p99
    finally:
        for server in servers:
            server.close()
        check_lag(run, phases)


def serve_traced(run: Run, server: Server, bodies, expected, order, seconds,
                 phases: list) -> None:
    """Untraced then traced server on one catalog; per-layer numbers."""
    from loadgen import percentile

    plain = phase(run, server, bodies, expected, order, LOW_RATE,
                  seconds / 4, 0, phases)
    server.stop()
    trace_out = WORK / f"trace-{run.workload}.json"
    server.start(trace_out)
    traced = phase(run, server, bodies, expected, order, LOW_RATE,
                   seconds / 4, 0, phases)
    low_metrics = asyncio.run(server.get("/metrics"))
    before = low_metrics["counters"]
    high = phase(run, server, bodies, expected, order, HIGH_RATE,
                 seconds / 8, traced.sent, phases)
    after = asyncio.run(server.get("/metrics"))["counters"]
    exit_report = server.stop()
    stages = low_metrics["stages_ms"]
    layers = {}
    if exit_report:
        layers = span_layers(exit_report["spans"], {}, None)
        check_coverage(run, [exit_report["spans"]])
    for stage in SERVE_STAGES:
        for q in ("p50", "p99"):
            layers[f"serve.{stage}_{q}_ms"] = stages[stage][q]
    batches = after.get("batches", 0) - before.get("batches", 0)
    batched = (after.get("batched_requests", 0)
               - before.get("batched_requests", 0))
    layers["serve.batch_size_mean"] = batched / batches if batches else 0.0
    sent = plain.sent + traced.sent + high.sent
    layers["serve.shed_ratio"] = after.get("shed", 0) / sent
    overhead_ms = (percentile(sorted(traced.latencies_ms), 0.5)
                   - percentile(sorted(plain.latencies_ms), 0.5))
    layers["trace.overhead_s"] = overhead_ms / 1000.0
    for name in PER_LAYER:
        run.metric(name, layers.get(name, 0.0), 1)


def check_lag(run: Run, phases: list) -> None:
    from loadgen import percentile

    lags = sorted(lag for p in phases for lag in p.lags_ms)
    if not lags:
        return
    lag_p99 = percentile(lags, 0.99)
    run.notes["loadgen_lag_p99_ms"] = lag_p99
    if run.trace:
        run.metric("loadgen.lag_p99_ms", lag_p99, len(lags))
    # Requests are timed from their due time, so a late generator inflates
    # the latencies it reports and never hides any: flag the run, do not
    # fail it.
    run.notes["generator_kept_schedule"] = lag_p99 <= LAG_LIMIT_MS
    if lag_p99 > LAG_LIMIT_MS:
        print(f"WARNING: the generator fell behind (lag p99 {lag_p99:.2f}"
              " ms); this run's latencies are inflated", flush=True)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy

    return {
        "knobs": KNOBS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a full"
              " checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # This process only generates payloads and compares answers: keep it
    # off the store so it never touches the workloads' private stores.
    os.environ["REPRO_STORE"] = "0"
    WORK.mkdir(exist_ok=True)

    run = Run(args.workload, args.seed, bool(args.trace))
    started = time.perf_counter()
    if args.workload == "serve_open":
        serve_workload(run, args.seconds)
    else:
        batch_workload(run, args.seconds)
    wanted = PER_LAYER if run.trace else END_TO_END
    for name in wanted:
        if name not in run.metrics:
            run.problem(f"metric {name} was not measured")
    record = {
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - started,
        "environment": environment(), "notes": run.notes,
        "problems": run.problems,
        "metrics": {name: {"value": value, "unit": wanted[name],
                           "samples": samples}
                    for name, (value, samples) in run.metrics.items()
                    if name in wanted},
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: record[k] for k in ("environment", "notes")}))
    for name, entry in record["metrics"].items():
        print(f"{name:28s} {entry['value']:14.6f} {entry['unit']:6s}"
              f" n={entry['samples']}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
