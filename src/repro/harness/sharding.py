"""Sharded experiment scheduler: split experiment tasks across machines.

PR 1 made the experiment drivers fan ``(provider, field)`` tasks over a
process pool; this module splits the same task graph across *jobs or
machines*.  A shard is ``REPRO_SHARD=i/N``: the canonical task list of an
experiment (exactly the order the unsharded serial loop visits) is
partitioned deterministically, shard ``i`` runs every task whose
canonical position is ``i (mod N)``, and the per-shard partial results
serialize to a file.  ``repro-shard merge`` reassembles partials into the
canonical order, so the merged result list — and every table rendered
from it — is **byte-identical** to the unsharded run (enforced by
``tests/harness/test_sharding.py`` and
``benchmarks/shard_equivalence_check.py``).

Task keys are string tuples whose shape belongs to the experiment: the
table experiments use ``(provider, field)``, the Section 7.4 robustness
experiment ``(provider, field, seed-label)``, the ablation experiment
``(mechanism, provider, field)``.  Each registered
:class:`Experiment` carries a ``result_key`` projecting one driver result
back onto its task — the scheduler itself never interprets key
components, so every bench of the suite is schedulable through one
registry.

The decomposition mirrors the blocked partitioning of the PaLD
shared-memory kernels (``repro.core.parallel``) one level up: tasks are
independent, assignment is a pure function of canonical position, and the
merge is a deterministic reorder, never a reduction.  Inside a shard the
ordinary ``REPRO_JOBS`` pools still apply, so a two-machine, eight-core
run shards twice and forks eight ways.

Round-robin assignment balances task *counts*; the tasks themselves are
heterogeneous, so count-balanced shards can be badly time-imbalanced.
The **predictive packer** fixes that: a :class:`PackedPlan` assigns
arbitrary task keys to N shards by LPT (longest-processing-time-first)
greedy packing over per-task wall-clock predictions from the
:class:`~repro.harness.costmodel.CostModel` — cost-aware tiling in the
spirit of the shared-memory PaLD work, one level up.  When the
predictions are degenerate enough that plain round-robin would finish
sooner, the packer keeps round-robin, so a packed plan's predicted
makespan is never worse than the round-robin split of the same graph.
Plans serialize to JSON (``repro-shard plan``), drivers honour them via
``REPRO_SHARD_PLAN=<file>`` next to ``REPRO_SHARD=i/N``, and every
shard run records its observed per-task seconds back into the timing
store, so plans improve across CI runs.  The store itself is pluggable
(:mod:`repro.store`): point every shard of a fleet at one ``repro-store
serve`` daemon via ``REPRO_STORE_URL`` and they share a single warm
cache — blueprints, corpora, programs and timings discovered by one
shard are hits for the rest.  Packing only moves tasks
between shards — the merge contract below is assignment-agnostic, so
packed partials merge byte-identical to round-robin and unsharded runs.

Command line (installed as ``repro-shard``)::

    repro-shard tasks                                  # registry summary
    repro-shard tasks --experiment robustness --shards 3
    REPRO_SCALE=0.15 repro-shard run --experiment m2h --shard 0/3 \
        --out part0.pkl
    repro-shard plan --experiment robustness --shards 2 --out plan.json
    REPRO_SCALE=0.15 repro-shard run --experiment robustness \
        --shard 0/2 --plan plan.json --out packed0.pkl
    repro-shard plan --experiment robustness --shards 2 \
        --plan plan.json --observed packed*.pkl   # prediction error
    repro-shard pack --experiment robustness --shards 2 \
        --out merged.pkl                          # plan + run + merge
    repro-shard merge part*.pkl --out merged.pkl --table table.txt \
        --timing-json benchmarks/results/BENCH_synthesis_speed.json
    repro-shard retry part0.pkl part2.pkl --out residual.pkl
    repro-shard diff merged.pkl baseline.pkl

Partial files embed a digest of (experiment, task graph, seed, scale), so
merging partials from incompatible configurations fails loudly instead of
producing a quietly wrong table.  When a shard job dies, ``merge``
reports the exact residual task set and the ``retry`` command that reruns
it: ``retry`` reads the surviving partials, runs precisely the missing
tasks, and writes a residual partial that completes the merge — still
byte-identical to an unsharded run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.harness.experiments import (  # noqa: F401 - registry API
    EXPERIMENTS,
    Experiment,
    TaskKey,
    field_task_key,
    get_experiment,
)

PARTIAL_SCHEMA = 1
PLAN_SCHEMA = 1


# ----------------------------------------------------------------------
# Shard specification (the REPRO_SHARD knob)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard of an ``N``-way split: ``index`` in ``range(count)``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index}"
            )

    def owns(self, position: int) -> bool:
        """Whether the task at canonical ``position`` belongs to this shard."""
        return position % self.count == self.index

    def __str__(self) -> str:
        return f"{self.index}/{self.count}"


FULL_RUN = ShardSpec(0, 1)


def parse_shard(text: str) -> ShardSpec:
    """Parse ``"i/N"`` (e.g. ``0/2``, ``2/3``) into a :class:`ShardSpec`."""
    head, sep, tail = text.strip().partition("/")
    try:
        if not sep:
            raise ValueError
        spec = ShardSpec(int(head), int(tail))
    except ValueError:
        raise ValueError(
            f"shard must look like i/N with 0 <= i < N, got {text!r}"
        ) from None
    return spec


def env_shard() -> ShardSpec:
    """The shard from ``REPRO_SHARD`` (default ``0/1`` = the whole graph)."""
    raw = os.environ.get("REPRO_SHARD", "").strip()
    if not raw:
        return FULL_RUN
    return parse_shard(raw)


def resolve_shard(shard: "ShardSpec | str | None") -> ShardSpec:
    """Normalize an explicit shard argument, falling back to the env knob."""
    if shard is None:
        return env_shard()
    if isinstance(shard, str):
        return parse_shard(shard)
    return shard


def assign(tasks: Sequence[TaskKey], shard: ShardSpec) -> list[TaskKey]:
    """The sub-list of canonical ``tasks`` owned by ``shard``.

    Assignment is round-robin over canonical position — a pure function of
    the task's place in the canonical enumeration, never of runtime state —
    so every shard of a split agrees on ownership without coordination,
    shards are balanced to within one task, and a provider's owned tasks
    stay consecutive (the serial loop's one-provider corpus memo still
    applies inside a shard).  ``count > len(tasks)`` simply leaves the
    surplus shards empty.
    """
    return [task for i, task in enumerate(tasks) if shard.owns(i)]


def registry_graphs() -> dict[str, list[TaskKey]]:
    """Every registered experiment's canonical task graph.

    The cost model probes all of them so its global-mean fallback can
    draw on cross-experiment timing history.
    """
    return {name: exp.tasks() for name, exp in sorted(EXPERIMENTS.items())}


# ----------------------------------------------------------------------
# Predictive packing: LPT over per-task cost predictions
# ----------------------------------------------------------------------
def lpt_pack(
    graph: Sequence[TaskKey],
    costs: Sequence[float],
    count: int,
) -> list[list[TaskKey]]:
    """Assign ``graph`` to ``count`` shards by LPT greedy packing.

    Tasks are placed heaviest-first onto the currently least-loaded
    shard — Graham's classic bound: the resulting makespan is within
    ``4/3 - 1/(3N)`` of optimal.  Every tie breaks deterministically
    and content-independently (equal costs by canonical position, equal
    loads by shard index), and nothing iterates a set or dict, so the
    same inputs pack identically under every hash seed and on every
    machine — the same no-coordination contract round-robin gives.

    Each shard's task list comes back sorted by canonical position, so
    tasks sharing a live corpus stay in canonical relative order inside
    a shard (the serial driver loop's one-live-corpus memo still
    applies), and ``count > len(graph)`` leaves the surplus shards
    empty, exactly like :func:`assign`.
    """
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if len(costs) != len(graph):
        raise ValueError(
            f"{len(graph)} tasks but {len(costs)} costs"
        )
    order = sorted(range(len(graph)), key=lambda i: (-costs[i], i))
    loads = [0.0] * count
    assigned: list[list[int]] = [[] for _ in range(count)]
    for position in order:
        target = min(range(count), key=lambda s: (loads[s], s))
        loads[target] += costs[position]
        assigned[target].append(position)
    return [
        [graph[position] for position in sorted(positions)]
        for positions in assigned
    ]


def shard_loads(
    shards: Sequence[Sequence[TaskKey]],
    cost_of: Mapping[TaskKey, float],
) -> list[float]:
    """Total cost per shard under ``cost_of`` (missing tasks cost 0)."""
    return [
        sum(cost_of.get(tuple(task), 0.0) for task in shard)
        for shard in shards
    ]


def round_robin_split(
    graph: Sequence[TaskKey], count: int
) -> list[list[TaskKey]]:
    """All ``count`` round-robin shards of ``graph`` — the packer's
    baseline assignment, defined once so the fallback comparison, the
    plan's counterfactual and the observed report can never drift
    apart."""
    return [
        assign(graph, ShardSpec(index, count)) for index in range(count)
    ]


def pack_tasks(
    graph: Sequence[TaskKey],
    costs: Sequence[float],
    count: int,
) -> tuple[list[list[TaskKey]], str]:
    """The better of LPT and round-robin for ``graph`` under ``costs``.

    LPT is a 4/3-approximation but not optimal, and on contrived cost
    vectors the fixed round-robin split can land closer to optimal than
    the greedy does — so the packer computes both makespans and keeps
    round-robin when it strictly wins.  That makes the packed plan's
    predicted makespan **never worse than round-robin's** by
    construction, which is the invariant the property tests pin.
    Returns ``(shards, strategy)`` with strategy ``"lpt"`` or
    ``"round-robin"``.
    """
    graph = [tuple(task) for task in graph]
    cost_of = {task: costs[i] for i, task in enumerate(graph)}
    packed = lpt_pack(graph, costs, count)
    round_robin = round_robin_split(graph, count)
    packed_makespan = max(shard_loads(packed, cost_of), default=0.0)
    rr_makespan = max(shard_loads(round_robin, cost_of), default=0.0)
    if rr_makespan < packed_makespan:
        return round_robin, "round-robin"
    return packed, "lpt"


@dataclass
class PackedPlan:
    """A cost-model shard assignment for one experiment split.

    ``shards[i]`` is shard ``i``'s owned task list (canonical relative
    order); ``predicted``/``round_robin_predicted`` are the per-shard
    predicted seconds under the model that built the plan; ``sources``
    counts how many tasks were predicted at each fallback level (see
    :mod:`repro.harness.costmodel`).  Plans are advisory metadata: the
    partial/merge machinery re-validates coverage from scratch, so a
    stale or hand-edited plan can at worst fail loudly, never corrupt a
    table.
    """

    experiment: str
    seed: int
    scale: float
    graph: list[TaskKey]
    shards: list[list[TaskKey]]
    predicted: list[float]
    round_robin_predicted: list[float]
    strategy: str = "lpt"
    sources: dict[str, int] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.shards)

    def predicted_makespan(self) -> float:
        return max(self.predicted, default=0.0)


def build_plan(
    experiment: str,
    count: int,
    *,
    seed: int = 0,
    model=None,
    graph: Sequence[TaskKey] | None = None,
) -> PackedPlan:
    """Pack ``experiment``'s graph into ``count`` shards by predicted cost.

    ``model`` defaults to a :class:`~repro.harness.costmodel.CostModel`
    loaded from the timing store over every registry graph (so the
    global-mean fallback sees cross-experiment history); ``graph``
    overrides the registered canonical graph for test-sized splits.
    """
    from repro.harness.costmodel import CostModel
    from repro.harness.runner import scale

    if graph is None:
        graph = get_experiment(experiment).tasks()
    graph = [tuple(task) for task in graph]
    if model is None:
        graphs = registry_graphs()
        graphs.setdefault(experiment, graph)
        model = CostModel.load(graphs, scale=scale())
    costs = []
    sources: dict[str, int] = {}
    for task in graph:
        seconds, source = model.predict_with_source(experiment, task)
        costs.append(seconds)
        sources[source] = sources.get(source, 0) + 1
    cost_of = {task: costs[i] for i, task in enumerate(graph)}
    shards, strategy = pack_tasks(graph, costs, count)
    round_robin = round_robin_split(graph, count)
    return PackedPlan(
        experiment=experiment,
        seed=seed,
        scale=scale(),
        graph=graph,
        shards=shards,
        predicted=shard_loads(shards, cost_of),
        round_robin_predicted=shard_loads(round_robin, cost_of),
        strategy=strategy,
        sources=sources,
    )


def save_plan(path: "str | os.PathLike", plan: PackedPlan) -> None:
    payload = {
        "schema": PLAN_SCHEMA,
        "experiment": plan.experiment,
        "seed": plan.seed,
        "scale": plan.scale,
        "graph": [list(task) for task in plan.graph],
        "shards": [
            {
                "tasks": [list(task) for task in shard],
                "predicted_seconds": round(predicted, 6),
            }
            for shard, predicted in zip(plan.shards, plan.predicted)
        ],
        "round_robin_predicted_seconds": [
            round(predicted, 6) for predicted in plan.round_robin_predicted
        ],
        "strategy": plan.strategy,
        "sources": dict(plan.sources),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def load_plan(path: "str | os.PathLike") -> PackedPlan:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ValueError(f"{path}: cannot read shard plan: {err}") from None
    if not isinstance(payload, dict) or payload.get("schema") != PLAN_SCHEMA:
        raise ValueError(f"{path}: not a repro-shard plan (schema mismatch)")
    try:
        return PackedPlan(
            experiment=payload["experiment"],
            seed=int(payload["seed"]),
            scale=float(payload["scale"]),
            graph=[tuple(task) for task in payload["graph"]],
            shards=[
                [tuple(task) for task in shard["tasks"]]
                for shard in payload["shards"]
            ],
            predicted=[
                float(shard["predicted_seconds"])
                for shard in payload["shards"]
            ],
            round_robin_predicted=[
                float(value)
                for value in payload["round_robin_predicted_seconds"]
            ],
            strategy=payload.get("strategy", "lpt"),
            sources=dict(payload.get("sources", {})),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed shard plan: {err}") from None


def env_plan() -> PackedPlan | None:
    """The plan from ``REPRO_SHARD_PLAN`` (``None`` when unset).

    An unreadable plan file raises rather than silently reverting to
    round-robin: the operator asked for a specific assignment, and a
    quiet fallback would run different task sets than they believe.
    """
    path = os.environ.get("REPRO_SHARD_PLAN", "").strip()
    if not path:
        return None
    return load_plan(path)


def plan_shard_tasks(
    plan: PackedPlan,
    spec: ShardSpec,
    graph: Sequence[TaskKey],
    experiment: str | None = None,
) -> list[TaskKey]:
    """Shard ``spec``'s owned tasks under ``plan``, validated against
    ``graph``.

    A plan is only honoured when it describes exactly the split being
    run: same experiment (when the caller knows its name), same shard
    count, and the same canonical graph — any drift (new fields, a
    scaled-down test graph, a stale plan artifact) fails loudly here
    instead of producing a partial the merge would reject hours later.
    """
    if experiment is not None and plan.experiment != experiment:
        raise ValueError(
            f"shard plan is for experiment {plan.experiment!r},"
            f" not {experiment!r}"
        )
    if spec.count != plan.count:
        raise ValueError(
            f"shard plan has {plan.count} shard(s) but the run asked for"
            f" {spec.count} (REPRO_SHARD={spec})"
        )
    graph = [tuple(task) for task in graph]
    if plan.graph != graph:
        raise ValueError(
            "shard plan was built for a different task graph"
            f" ({len(plan.graph)} task(s) vs {len(graph)});"
            " rebuild it with `repro-shard plan`"
        )
    return [tuple(task) for task in plan.shards[spec.index]]


def balance_ratio(loads: Sequence[float]) -> float:
    """Max/min per-shard load — 1.0 is perfect balance, ``inf`` an idle
    shard."""
    if not loads:
        return 1.0
    low = min(loads)
    if low <= 0:
        return math.inf
    return max(loads) / low


def plan_report(
    plan: PackedPlan,
    observed_partials: Sequence[dict] | None = None,
) -> dict:
    """Makespan/prediction report for a plan, optionally scored against
    observed shard partials.

    The predicted block restates the plan's per-shard makespans (packed
    vs the round-robin counterfactual).  Given partials, the observed
    block re-aggregates their recorded per-task seconds under *both*
    assignments — packed shards and round-robin — so the balance
    comparison uses one measurement basis, plus per-task prediction
    error for the tasks the model had predicted.  Everything in the
    returned dict is JSON-serializable (CI uploads it as an artifact).
    """
    report: dict = {
        "schema": PLAN_SCHEMA,
        "experiment": plan.experiment,
        "shards": plan.count,
        "scale": plan.scale,
        "strategy": plan.strategy,
        "sources": dict(plan.sources),
        "predicted": {
            "per_shard_seconds": list(plan.predicted),
            "makespan_seconds": plan.predicted_makespan(),
            "balance_ratio": _json_ratio(balance_ratio(plan.predicted)),
            "round_robin_per_shard_seconds": list(
                plan.round_robin_predicted
            ),
            "round_robin_makespan_seconds": max(
                plan.round_robin_predicted, default=0.0
            ),
            "round_robin_balance_ratio": _json_ratio(
                balance_ratio(plan.round_robin_predicted)
            ),
        },
    }
    if not observed_partials:
        return report
    observed: dict[TaskKey, float] = {}
    wall_by_index: dict[int, float] = {}
    wall_by_owned: dict[tuple, float] = {}
    for partial in observed_partials:
        for task, seconds in partial.get("task_seconds", {}).items():
            observed[tuple(task)] = seconds
        # Prefer the partial's recorded shard index: owned-set keying
        # aliases shards with identical task lists (e.g. two empty
        # shards when count > len(graph)).
        shard = partial.get("shard")
        if (
            isinstance(shard, (tuple, list))
            and len(shard) == 2
            and shard[1] == plan.count
        ):
            wall_by_index[shard[0]] = partial.get("wall_seconds", 0.0)
        owned = tuple(tuple(task) for task in partial.get("owned", []))
        wall_by_owned[owned] = partial.get("wall_seconds", 0.0)
    packed_loads = shard_loads(plan.shards, observed)
    rr_loads = shard_loads(
        round_robin_split(plan.graph, plan.count), observed
    )
    shard_walls = [
        wall_by_index.get(
            index,
            wall_by_owned.get(tuple(tuple(task) for task in shard)),
        )
        for index, shard in enumerate(plan.shards)
    ]
    report["observed"] = {
        "tasks_observed": len(observed),
        "tasks_missing": len(plan.graph) - len(observed),
        "per_shard_task_seconds": [round(v, 4) for v in packed_loads],
        "per_shard_wall_seconds": [
            round(v, 4) if v is not None else None for v in shard_walls
        ],
        "makespan_seconds": round(max(packed_loads, default=0.0), 4),
        "balance_ratio": _json_ratio(balance_ratio(packed_loads)),
        "round_robin_per_shard_task_seconds": [
            round(v, 4) for v in rr_loads
        ],
        "round_robin_makespan_seconds": round(
            max(rr_loads, default=0.0), 4
        ),
        "round_robin_balance_ratio": _json_ratio(
            balance_ratio(rr_loads)
        ),
        "prediction_error": _prediction_error(plan, observed),
    }
    return report


def _json_ratio(value: float) -> float | None:
    """``inf`` is not valid JSON; report an idle shard as ``None``."""
    return None if math.isinf(value) else round(value, 4)


def _prediction_error(
    plan: PackedPlan, observed: Mapping[TaskKey, float]
) -> dict:
    """Per-shard predicted-vs-observed error for the plan's assignment."""
    per_shard = []
    for shard, predicted in zip(plan.shards, plan.predicted):
        seconds = sum(observed.get(tuple(task), 0.0) for task in shard)
        entry = {
            "predicted_seconds": round(predicted, 4),
            "observed_seconds": round(seconds, 4),
        }
        if seconds > 0:
            entry["abs_pct_error"] = round(
                abs(predicted - seconds) / seconds * 100.0, 2
            )
        per_shard.append(entry)
    scored = [e["abs_pct_error"] for e in per_shard if "abs_pct_error" in e]
    return {
        "per_shard": per_shard,
        "mean_abs_pct_error": (
            round(sum(scored) / len(scored), 2) if scored else None
        ),
    }


# ----------------------------------------------------------------------
# Partial results: run one shard, serialize, merge
# ----------------------------------------------------------------------
class IncompleteMergeError(ValueError):
    """Partials do not cover the task graph (a shard job died or is lost).

    Carries the exact residual: ``missing`` is the uncovered tasks in
    canonical order — precisely what ``repro-shard retry`` (or
    :func:`retry_partial`) will rerun.
    """

    def __init__(self, missing: list[TaskKey]):
        self.missing = missing
        super().__init__(
            f"incomplete merge: {len(missing)} tasks unowned"
            f" (first missing: {missing[0]})"
        )
def _graph_digest(
    experiment: str,
    graph: Sequence[TaskKey],
    seed: int,
    scale: float,
    method_names: Sequence[str],
    config: str = "",
) -> str:
    """Compatibility fingerprint for a shard split.

    Two partials merge only when they agree on experiment, the full
    canonical graph, the method set, the corpus seed, the dataset
    scale and any experiment-specific ``config`` string — everything that
    determines the task set and its scores.  (Shard geometry is
    deliberately *not* part of the digest: a 2-way and a 3-way split of
    the same run share it, which is what lets ``diff`` compare a merged
    run against an unsharded baseline.)
    """
    hasher = hashlib.sha256()
    hasher.update(f"schema={PARTIAL_SCHEMA}|{experiment}".encode())
    hasher.update(f"|seed={seed}|scale={scale!r}".encode())
    hasher.update(("|methods=" + ",".join(method_names)).encode())
    if config:
        # Only hashed when present, keeping every config-free experiment's
        # digests byte-compatible with partials from earlier versions.
        hasher.update(f"|config={config}".encode())
    for task in graph:
        # ":".join keeps 2-tuple digests byte-compatible with the
        # pre-generalization format.
        hasher.update(("|" + ":".join(task)).encode())
    return hasher.hexdigest()


def run_shard(
    experiment: str,
    shard: "ShardSpec | str | None" = None,
    seed: int = 0,
    *,
    methods: list | None = None,
    graph: Sequence[TaskKey] | None = None,
    owned: Sequence[TaskKey] | None = None,
    run: Callable[[list, list[TaskKey], int], list] | None = None,
    plan: "PackedPlan | str | os.PathLike | None" = None,
) -> dict:
    """Run one shard of ``experiment`` and return its partial-result dict.

    The keyword overrides exist for the test suite (smaller graphs, custom
    method sets, arbitrary task partitions); the CLI always runs the
    registered full graph.  ``owned`` overrides the round-robin assignment
    with an explicit task set — ownership validation then happens at merge
    time, where the union over partials must cover the graph exactly once.
    ``plan`` (a :class:`PackedPlan`, a plan-file path, or the
    ``REPRO_SHARD_PLAN`` env knob when neither ``plan`` nor ``owned`` is
    given) replaces round-robin assignment with the plan's packed shard.

    The partial records observed per-task wall-clock (``task_seconds``),
    and — for cache-enabled, store-enabled runs — feeds those timings
    back into the persistent timing store, so the next ``repro-shard
    plan`` predicts from them.
    """
    from repro.core.caching import StageTimer, cache_enabled, use_timer
    from repro.harness.costmodel import record_task_timings
    from repro.harness.runner import flush_corpus_store, scale

    spec = resolve_shard(shard)
    registered = get_experiment(experiment)
    graph = list(graph if graph is not None else registered.tasks())
    if owned is None:
        if plan is None:
            plan = env_plan()
        elif not isinstance(plan, PackedPlan):
            plan = load_plan(plan)
        if plan is not None:
            owned = plan_shard_tasks(plan, spec, graph, experiment)
    owned = list(owned if owned is not None else assign(graph, spec))
    methods = methods if methods is not None else registered.methods()
    run = run if run is not None else registered.run

    timer = StageTimer()
    start = time.perf_counter()
    with use_timer(timer):
        results = run(methods, owned, seed)
    wall = time.perf_counter() - start
    flush_corpus_store()

    grouped: dict[TaskKey, list] = {task: [] for task in owned}
    for result in results:
        key = registered.result_key(result)
        if key not in grouped:
            raise RuntimeError(
                f"driver returned result for unowned task {key}"
            )
        grouped[key].append(result)
    task_seconds = {
        task: seconds
        for task, seconds in timer.tasks.items()
        if task in grouped
    }
    if cache_enabled():
        # REPRO_CACHE=0 baselines run without any memo layer, so their
        # wall-clock is not representative of a normal run — recording
        # it would mis-shape future plans.
        record_task_timings(experiment, task_seconds, scale=scale())
    method_names = [method.name for method in methods]
    return {
        "schema": PARTIAL_SCHEMA,
        "experiment": experiment,
        "shard": (spec.index, spec.count),
        "seed": seed,
        "scale": scale(),
        "graph": graph,
        "graph_digest": _graph_digest(
            experiment, graph, seed, scale(), method_names,
            registered.config(),
        ),
        "owned": owned,
        "methods": method_names,
        "results": grouped,
        "wall_seconds": wall,
        "task_seconds": task_seconds,
        "timer": timer.snapshot(),
    }


def save_partial(path: "str | os.PathLike", partial: dict) -> None:
    """Serialize a partial, dropping non-picklable extractors first.

    The write is atomic (tmp + ``os.replace``), so a *live* writer never
    exposes a torn file — the work-stealing worker rewrites its partial
    after every completed task, and an interrupt between tasks must not
    corrupt the previous snapshot.  A torn partial on disk therefore
    always means a crashed writer; merge tolerates it and recovery
    re-runs exactly the tasks it failed to carry.
    """
    from repro.harness import chaos
    from repro.harness.runner import _transportable

    payload = dict(partial)
    payload["results"] = {
        task: [_transportable(result) for result in results]
        for task, results in partial["results"].items()
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = pickle.dumps(payload)
    if chaos.trip("truncate_partial"):
        # Crash mid-flush: half the bytes land directly in the final
        # path (no tmp/rename — this models dying inside write()), then
        # the process is gone.
        with open(path, "wb") as handle:
            handle.write(blob[: max(1, len(blob) // 2)])
        chaos.kill()
        return  # reached only when tests stub chaos.kill
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)


def load_partial(path: "str | os.PathLike") -> dict:
    with open(path, "rb") as handle:
        partial = pickle.load(handle)
    if not isinstance(partial, dict) or partial.get("schema") != PARTIAL_SCHEMA:
        raise ValueError(f"{path}: not a repro-shard partial (schema mismatch)")
    return partial


def merge_partials(partials: Sequence[dict]) -> dict:
    """Merge shard partials into one full-coverage result set.

    Validates that every partial belongs to the same split (graph digest),
    that ownership tiles the graph — each canonical task claimed by
    exactly one partial, none missing, none duplicated — and reassembles
    results in canonical task order, which makes the merged list (and any
    table rendered from it) independent of how tasks were distributed or
    in which order the partials are supplied.
    """
    if not partials:
        raise ValueError("nothing to merge: no partials given")
    _check_same_split(partials)
    first = partials[0]
    graph = [tuple(task) for task in first["graph"]]
    owner_of: dict[TaskKey, int] = {}
    for position, partial in enumerate(partials):
        owned_set = set()
        for task in partial["owned"]:
            task = tuple(task)
            if task in owner_of:
                raise ValueError(
                    f"task {task} owned by two partials"
                    f" (#{owner_of[task]} and #{position})"
                )
            owner_of[task] = position
            owned_set.add(task)
        unowned_results = [
            task for task in partial["results"]
            if tuple(task) not in owned_set
        ]
        if unowned_results:
            # A results entry outside the owned list would otherwise
            # silently overwrite the rightful owner's rows.
            raise ValueError(
                f"partial #{position} carries results for tasks it does"
                f" not own: {sorted(map(tuple, unowned_results))[:3]}"
            )
    missing = [task for task in graph if task not in owner_of]
    if missing:
        raise IncompleteMergeError(missing)
    stray = sorted(set(owner_of) - set(graph))
    if stray:
        raise ValueError(f"partials own tasks outside the graph: {stray[:3]}")

    from repro.core.caching import StageTimer

    merged_results: dict[TaskKey, list] = {}
    task_seconds: dict[TaskKey, float] = {}
    timer = StageTimer()
    wall = 0.0
    for partial in partials:
        for task, results in partial["results"].items():
            merged_results[tuple(task)] = results
        for task, seconds in partial.get("task_seconds", {}).items():
            task_seconds[tuple(task)] = seconds
        timer.merge(partial.get("timer", {}))
        wall += partial.get("wall_seconds", 0.0)
    return {
        "schema": PARTIAL_SCHEMA,
        "experiment": first["experiment"],
        "shard": (0, 1),
        "seed": first["seed"],
        "scale": first["scale"],
        "graph": graph,
        "graph_digest": first["graph_digest"],
        "owned": graph,
        "methods": list(first.get("methods", [])),
        "results": merged_results,
        "wall_seconds": wall,
        "task_seconds": task_seconds,
        "timer": timer.snapshot(),
    }


def _check_same_split(partials: Sequence[dict]) -> None:
    """Every partial must share the first one's graph digest."""
    first = partials[0]
    for partial in partials[1:]:
        if partial["graph_digest"] != first["graph_digest"]:
            raise ValueError(
                "incompatible partials: "
                f"{partial['experiment']} seed={partial['seed']} "
                f"scale={partial['scale']} vs "
                f"{first['experiment']} seed={first['seed']} "
                f"scale={first['scale']}"
            )


def residual_tasks(partials: Sequence[dict]) -> list[TaskKey]:
    """The canonical tasks no surviving partial owns (empty = complete)."""
    if not partials:
        raise ValueError("no partials: cannot derive the task graph")
    _check_same_split(partials)
    owned = {
        tuple(task) for partial in partials for task in partial["owned"]
    }
    return [
        task
        for task in (tuple(t) for t in partials[0]["graph"])
        if task not in owned
    ]


def retry_partial(
    partials: Sequence[dict],
    *,
    methods: list | None = None,
    run: Callable[[list, list[TaskKey], int], list] | None = None,
) -> dict:
    """Rerun exactly the tasks missing from ``partials``.

    The requeue half of the retry story: surviving partials define the
    split (experiment, graph, seed, scale), the residual task set is
    everything they do not cover, and the returned partial owns precisely
    that set — so ``merge_partials([*partials, residual])`` completes to
    the byte-identical full table.  The keyword overrides mirror
    :func:`run_shard` (test-sized graphs).

    Raises :class:`ValueError` when there is nothing to retry, when the
    current ``REPRO_SCALE`` does not match the partials' recorded scale,
    or when the rerun's configuration no longer digests to the same split
    (e.g. the method set changed since the original run).
    """
    from repro.harness.runner import scale

    missing = residual_tasks(partials)
    if not missing:
        raise ValueError(
            "nothing to retry: partials already cover the task graph"
        )
    first = partials[0]
    if scale() != first["scale"]:
        raise ValueError(
            f"scale mismatch: partials ran at REPRO_SCALE={first['scale']}"
            f" but the current scale is {scale()};"
            " set REPRO_SCALE to match before retrying"
        )
    graph = [tuple(task) for task in first["graph"]]
    # Validate the digest *before* rerunning anything: the residual may
    # be hours of synthesis, and an incompatible configuration (changed
    # method set / task graph) is knowable up front.
    registered = get_experiment(first["experiment"])
    if methods is None:
        methods = registered.methods()
    expected = _graph_digest(
        first["experiment"],
        graph,
        first["seed"],
        scale(),
        [method.name for method in methods],
        registered.config(),
    )
    if expected != first["graph_digest"]:
        raise ValueError(
            "cannot retry: the experiment configuration (method set /"
            " task graph) changed since the original shards ran — the"
            " residual would not merge"
        )
    return run_shard(
        first["experiment"],
        FULL_RUN,
        seed=first["seed"],
        methods=methods,
        graph=graph,
        owned=missing,
        run=run,
    )


def flat_results(partial: dict) -> list:
    """The partial's results flattened in canonical task order."""
    owned = {tuple(task) for task in partial["owned"]}
    ordered = []
    for task in partial["graph"]:
        task = tuple(task)
        if task in owned:
            ordered.extend(partial["results"].get(task, []))
    return ordered


# ----------------------------------------------------------------------
# Rendering and comparison
# ----------------------------------------------------------------------
def canonical_scores(results: Sequence) -> str:
    """A byte-stable dump of every score, for equivalence comparison.

    Full ``repr`` precision on the float metrics: two runs compare equal
    here only if their scores are *bit*-identical, not merely rounded
    alike.
    """
    lines = []
    for r in results:
        metrics = " ".join(
            "NaN" if math.isnan(value) else repr(value)
            for value in (r.precision, r.recall, r.f1)
        )
        lines.append(
            f"{r.method}\t{r.provider}\t{r.field}\t{r.setting}\t{metrics}"
        )
    return "\n".join(lines) + "\n"


def render_tables(partial: dict) -> str:
    """Paper-style tables for a partial/merged result set."""
    from repro.harness.reporting import overall_scores_table, per_field_table

    experiment = get_experiment(partial["experiment"])
    settings = experiment.settings()
    # The partial records the method set it actually ran (the digest pins
    # it at merge time); fall back to the registry for older files.
    methods = partial.get("methods") or [
        method.name for method in experiment.methods()
    ]
    methods = list(dict.fromkeys(methods))
    results = flat_results(partial)
    shard = ShardSpec(*partial["shard"])
    label = "" if shard == FULL_RUN else f" [shard {shard}]"
    blocks = [
        overall_scores_table(
            results,
            methods,
            setting,
            f"{partial['experiment']}{label} overall ({setting})",
        )
        for setting in settings
    ]
    blocks.append(
        per_field_table(
            results,
            methods,
            settings,
            f"{partial['experiment']}{label} per field",
        )
    )
    return "\n\n".join(blocks)


def diff_partials(left: dict, right: dict) -> str | None:
    """``None`` when two result sets are byte-identical, else a summary."""
    if left["graph_digest"] != right["graph_digest"]:
        return (
            "different splits: "
            f"{left['experiment']}/seed={left['seed']}/scale={left['scale']}"
            " vs "
            f"{right['experiment']}/seed={right['seed']}/scale={right['scale']}"
        )
    left_scores = canonical_scores(flat_results(left))
    right_scores = canonical_scores(flat_results(right))
    if left_scores == right_scores:
        return None
    left_lines = left_scores.splitlines()
    right_lines = right_scores.splitlines()
    if len(left_lines) != len(right_lines):
        return (
            f"result counts differ: {len(left_lines)} vs {len(right_lines)}"
        )
    for a, b in zip(left_lines, right_lines):
        if a != b:
            return f"first differing row:\n  {a}\n  {b}"
    return "score dumps differ"


# ----------------------------------------------------------------------
# CLI (the ``repro-shard`` console script)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-shard",
        description=(
            "Partition an experiment's field tasks into shards, run them"
            " on separate jobs/machines, and merge the partial results"
            " into tables byte-identical to an unsharded run."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tasks_cmd = sub.add_parser(
        "tasks", help="list the canonical task graph and shard assignment"
    )
    tasks_cmd.add_argument(
        "--experiment",
        default=None,
        choices=sorted(EXPERIMENTS),
        help="experiment to list (default: summarize every experiment)",
    )
    tasks_cmd.add_argument("--shards", type=int, default=1)

    run_cmd = sub.add_parser(
        "run", help="run one shard and write its partial-result file"
    )
    run_cmd.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    run_cmd.add_argument(
        "--shard",
        default=None,
        help="i/N (default: REPRO_SHARD, else the whole graph)",
    )
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--plan",
        default=None,
        help=(
            "packed-plan file: own the plan's shard --shard instead of"
            " the round-robin slice (default: REPRO_SHARD_PLAN)"
        ),
    )
    run_cmd.add_argument("--out", required=True)

    plan_cmd = sub.add_parser(
        "plan",
        help=(
            "pack the task graph into N shards by predicted wall-clock"
            " (LPT over the recorded timing history)"
        ),
    )
    plan_cmd.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    plan_cmd.add_argument("--shards", type=int, required=True)
    plan_cmd.add_argument("--seed", type=int, default=0)
    plan_cmd.add_argument(
        "--plan",
        default=None,
        help="report on an existing plan file instead of building one",
    )
    plan_cmd.add_argument(
        "--out", default=None, help="write the plan JSON here"
    )
    plan_cmd.add_argument(
        "--observed",
        nargs="+",
        default=None,
        help=(
            "shard partials from a completed run: report observed"
            " per-shard makespans and prediction error"
        ),
    )
    plan_cmd.add_argument(
        "--report-out",
        default=None,
        help="write the makespan/prediction report JSON here",
    )

    pack_cmd = sub.add_parser(
        "pack",
        help=(
            "plan, run every packed shard in this process, merge, and"
            " report observed balance vs round-robin"
        ),
    )
    pack_cmd.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    pack_cmd.add_argument("--shards", type=int, required=True)
    pack_cmd.add_argument("--seed", type=int, default=0)
    pack_cmd.add_argument(
        "--plan",
        default=None,
        help="run an existing plan file instead of building one",
    )
    pack_cmd.add_argument(
        "--plan-out", default=None, help="also write the plan JSON here"
    )
    pack_cmd.add_argument("--out", required=True)
    pack_cmd.add_argument(
        "--table", default=None, help="also write rendered tables here"
    )
    pack_cmd.add_argument(
        "--report-out",
        default=None,
        help="write the makespan/prediction report JSON here",
    )

    work_cmd = sub.add_parser(
        "work",
        help=(
            "work-stealing run: N workers pull tasks from a shared"
            " leased claim queue; dead workers' claims are reclaimed"
            " and the merge stays byte-identical"
        ),
    )
    work_cmd.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )
    work_cmd.add_argument("--seed", type=int, default=0)
    work_cmd.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker subprocesses to spawn (orchestrator mode)",
    )
    work_cmd.add_argument(
        "--worker",
        default=None,
        help=(
            "i/N: run a single worker loop in this process instead of"
            " orchestrating (spawned internally by the orchestrator)"
        ),
    )
    work_cmd.add_argument("--out", required=True)
    work_cmd.add_argument(
        "--fresh",
        action="store_true",
        help="reset the split's queue instead of resuming it",
    )
    work_cmd.add_argument(
        "--keep-queue",
        action="store_true",
        help="keep the claim rows after a successful merge",
    )
    work_cmd.add_argument(
        "--lease",
        type=float,
        default=None,
        help="claim lease seconds (default: REPRO_QUEUE_LEASE)",
    )
    work_cmd.add_argument(
        "--poll",
        type=float,
        default=None,
        help="idle claim retry seconds (default: REPRO_QUEUE_POLL)",
    )
    work_cmd.add_argument(
        "--max-rounds",
        type=int,
        default=None,
        help="recovery rounds before giving up (default 4)",
    )
    work_cmd.add_argument(
        "--table", default=None, help="also write rendered tables here"
    )
    work_cmd.add_argument(
        "--stats-out",
        default=None,
        help="write the final queue snapshot (reclaims etc.) as JSON",
    )

    merge_cmd = sub.add_parser(
        "merge", help="merge shard partials into one result file"
    )
    merge_cmd.add_argument("partials", nargs="+")
    merge_cmd.add_argument("--out", required=True)
    merge_cmd.add_argument(
        "--table", default=None, help="also write rendered tables here"
    )
    merge_cmd.add_argument(
        "--timing-json",
        default=None,
        help="append the merged wall-clock/stage timings to this trajectory",
    )

    retry_cmd = sub.add_parser(
        "retry",
        help=(
            "rerun the tasks missing from the surviving partials and"
            " write a residual partial that completes the merge"
        ),
    )
    retry_cmd.add_argument("partials", nargs="+")
    retry_cmd.add_argument("--out", required=True)

    diff_cmd = sub.add_parser(
        "diff", help="compare two partial/merged files for score identity"
    )
    diff_cmd.add_argument("left")
    diff_cmd.add_argument("right")

    args = parser.parse_args(argv)

    if args.command == "tasks":
        if args.experiment is None:
            for name, experiment in EXPERIMENTS.items():
                graph = experiment.tasks()
                names = ", ".join(
                    dict.fromkeys(m.name for m in experiment.methods())
                )
                print(f"{name}: {len(graph)} tasks (methods: {names})")
            return 0
        experiment = get_experiment(args.experiment)
        graph = experiment.tasks()
        shards = ShardSpec(0, max(1, args.shards)).count
        print(f"{args.experiment}: {len(graph)} tasks, {shards} shard(s)")
        for position, task in enumerate(graph):
            print(
                f"  [{position:3d}] shard {position % shards}/{shards}"
                f"  {' / '.join(task)}"
            )
        return 0

    if args.command == "run":
        spec = resolve_shard(args.shard)
        partial = run_shard(
            args.experiment, spec, seed=args.seed, plan=args.plan
        )
        save_partial(args.out, partial)
        count = sum(len(r) for r in partial["results"].values())
        packed = " [packed]" if args.plan or os.environ.get(
            "REPRO_SHARD_PLAN"
        ) else ""
        print(
            f"shard {spec} of {args.experiment}{packed}:"
            f" {len(partial['owned'])}/{len(partial['graph'])} tasks,"
            f" {count} results, {partial['wall_seconds']:.2f}s"
            f" -> {args.out}"
        )
        return 0

    if args.command == "plan":
        if args.plan:
            plan = load_plan(args.plan)
            if plan.experiment != args.experiment or plan.count != args.shards:
                print(
                    f"PLAN MISMATCH: {args.plan} is"
                    f" {plan.experiment} x{plan.count}, asked for"
                    f" {args.experiment} x{args.shards}"
                )
                return 1
        else:
            plan = build_plan(
                args.experiment, args.shards, seed=args.seed
            )
        observed = None
        if args.observed:
            loaded, skipped = _load_partials_tolerant(args.observed)
            if not loaded:
                print("PLAN REPORT FAILED: no readable observed partials")
                return 1
            if skipped:
                print(f"({len(skipped)} observed partial(s) unreadable)")
            observed = [partial for _, partial in loaded]
        report = plan_report(plan, observed)
        _print_plan_report(plan, report)
        if args.out:
            save_plan(args.out, plan)
            print(f"plan -> {args.out}")
        if args.report_out:
            Path(args.report_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.report_out).write_text(
                json.dumps(report, indent=2) + "\n"
            )
            print(f"report -> {args.report_out}")
        return 0

    if args.command == "pack":
        if args.plan:
            plan = load_plan(args.plan)
            # Same loud up-front validation as `run --plan`: a stale or
            # mismatched plan (experiment, shard count, graph) must fail
            # before a single task runs, not at merge time hours later.
            try:
                plan_shard_tasks(
                    plan,
                    ShardSpec(0, args.shards),
                    get_experiment(args.experiment).tasks(),
                    args.experiment,
                )
            except ValueError as err:
                print(f"PACK FAILED: {err}")
                return 1
        else:
            plan = build_plan(
                args.experiment, args.shards, seed=args.seed
            )
        if args.plan_out:
            save_plan(args.plan_out, plan)
        _print_plan_report(plan, plan_report(plan))
        partials = []
        for index in range(plan.count):
            partial = run_shard(
                args.experiment,
                ShardSpec(index, plan.count),
                seed=args.seed,
                owned=plan.shards[index],
            )
            partials.append(partial)
            print(
                f"  shard {index}/{plan.count}:"
                f" {len(partial['owned'])} tasks,"
                f" {partial['wall_seconds']:.2f}s"
            )
        merged = merge_partials(partials)
        save_partial(args.out, merged)
        if args.table:
            Path(args.table).write_text(render_tables(merged) + "\n")
        report = plan_report(plan, partials)
        _print_observed_report(report)
        if args.report_out:
            Path(args.report_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.report_out).write_text(
                json.dumps(report, indent=2) + "\n"
            )
            print(f"report -> {args.report_out}")
        count = sum(len(r) for r in merged["results"].values())
        print(
            f"packed {plan.count} shard(s) of {plan.experiment}:"
            f" {len(merged['graph'])} tasks, {count} results"
            f" -> {args.out}"
        )
        return 0

    if args.command == "work":
        from repro.harness import queue as work_queue

        if args.worker is not None:
            # Single-worker mode: one pull loop, spawned by the
            # orchestrator (or run by hand against a live queue).
            spec = parse_shard(args.worker)
            digest = work_queue.experiment_digest(args.experiment, args.seed)
            claim_queue = work_queue.ClaimQueue(work_queue.queue_id(digest))
            try:
                partial = work_queue.work_shard(
                    args.experiment,
                    work_queue.default_worker_name(spec.index),
                    claim_queue,
                    seed=args.seed,
                    shard=spec,
                    out=args.out,
                    lease=args.lease,
                    poll=args.poll,
                )
            finally:
                claim_queue.close()
            count = sum(len(r) for r in partial["results"].values())
            print(
                f"worker {spec} of {args.experiment}:"
                f" {len(partial['owned'])}/{len(partial['graph'])} tasks won,"
                f" {count} results, {partial['wall_seconds']:.2f}s"
                f" -> {args.out}"
            )
            return 0
        try:
            merged = work_queue.run_work_pool(
                args.experiment,
                args.workers,
                seed=args.seed,
                out=args.out,
                fresh=args.fresh,
                keep_queue=args.keep_queue,
                lease=args.lease,
                poll=args.poll,
                max_rounds=(
                    args.max_rounds
                    if args.max_rounds is not None
                    else work_queue.DEFAULT_MAX_ROUNDS
                ),
                stats_out=args.stats_out,
            )
        except (RuntimeError, work_queue.QueueUnavailableError) as err:
            print(f"WORK FAILED: {err}")
            return 1
        if args.table:
            Path(args.table).write_text(render_tables(merged) + "\n")
        count = sum(len(r) for r in merged["results"].values())
        print(
            f"work-stealing merge of {merged['experiment']}"
            f" ({args.workers} workers, {merged['rounds']} round(s)):"
            f" {len(merged['graph'])} tasks, {count} results -> {args.out}"
        )
        return 0

    if args.command == "merge":
        partials, skipped = _load_partials_tolerant(args.partials)
        if not partials:
            print("MERGE FAILED: no readable partials")
            return 1
        loaded_paths = [path for path, _ in partials]
        try:
            merged = merge_partials([partial for _, partial in partials])
        except IncompleteMergeError as err:
            print(
                f"MERGE INCOMPLETE: {len(err.missing)} task(s) have no"
                " surviving partial"
                + (f" ({len(skipped)} file(s) unreadable)" if skipped else "")
            )
            for task in err.missing:
                print(f"  missing: {' / '.join(task)}")
            survivors = " ".join(loaded_paths)
            # The recipe must be copy-pasteable: pin the recorded scale
            # (retry refuses a mismatch) and carry the merge options.
            scale_prefix = f"REPRO_SCALE={partials[0][1]['scale']} "
            merge_options = ""
            if args.table:
                merge_options += f" --table {args.table}"
            if args.timing_json:
                merge_options += f" --timing-json {args.timing_json}"
            print("rerun exactly the residual tasks with:")
            print(
                f"  {scale_prefix}repro-shard retry {survivors}"
                " --out residual.pkl"
            )
            print(
                f"  repro-shard merge {survivors} residual.pkl"
                f" --out {args.out}{merge_options}"
            )
            return 1
        save_partial(args.out, merged)
        if args.table:
            Path(args.table).write_text(render_tables(merged) + "\n")
        if args.timing_json:
            from repro.harness.reporting import record_synthesis_speed

            record_synthesis_speed(
                args.timing_json,
                f"{merged['experiment']}[merged x{len(partials)}]",
                merged["wall_seconds"],
                merged["timer"],
                scale=merged["scale"],
                shards=len(partials),
            )
        count = sum(len(r) for r in merged["results"].values())
        print(
            f"merged {len(partials)} partials of {merged['experiment']}:"
            f" {len(merged['graph'])} tasks, {count} results -> {args.out}"
        )
        return 0

    if args.command == "retry":
        partials, skipped = _load_partials_tolerant(args.partials)
        if not partials:
            print("RETRY FAILED: no readable partials to derive the split")
            return 1
        try:
            missing = residual_tasks([partial for _, partial in partials])
        except ValueError as err:
            print(f"RETRY FAILED: {err}")
            return 1
        if not missing:
            print(
                "nothing to retry: the given partials already cover the"
                " task graph"
            )
            return 0
        first = partials[0][1]
        print(
            f"retrying {len(missing)} task(s) of {first['experiment']}"
            f" (seed={first['seed']}, scale={first['scale']})"
            + (f"; {len(skipped)} partial file(s) unreadable" if skipped else "")
        )
        try:
            residual = retry_partial([partial for _, partial in partials])
        except ValueError as err:
            print(f"RETRY FAILED: {err}")
            return 1
        save_partial(args.out, residual)
        count = sum(len(r) for r in residual["results"].values())
        print(
            f"residual partial: {len(residual['owned'])} tasks,"
            f" {count} results, {residual['wall_seconds']:.2f}s"
            f" -> {args.out}"
        )
        return 0

    if args.command == "diff":
        left = load_partial(args.left)
        right = load_partial(args.right)
        verdict = diff_partials(left, right)
        if verdict is None:
            print(f"identical: {args.left} == {args.right}")
            return 0
        print(f"MISMATCH: {verdict}")
        return 1

    return 2  # pragma: no cover - argparse enforces the choices


def _print_plan_report(plan: PackedPlan, report: dict) -> None:
    predicted = report["predicted"]
    sources = ", ".join(
        f"{name}={count}" for name, count in sorted(plan.sources.items())
    ) or "none"
    print(
        f"plan: {plan.experiment} x{plan.count} shards"
        f" (strategy {plan.strategy}, scale {plan.scale},"
        f" cost sources: {sources})"
    )
    for index, (shard, seconds) in enumerate(
        zip(plan.shards, plan.predicted)
    ):
        print(
            f"  shard {index}/{plan.count}: {len(shard)} tasks,"
            f" predicted {seconds:.2f}s"
        )
    print(
        f"  predicted makespan {predicted['makespan_seconds']:.2f}s"
        f" (round-robin {predicted['round_robin_makespan_seconds']:.2f}s),"
        f" balance ratio {_ratio_text(predicted['balance_ratio'])}"
        f" vs round-robin"
        f" {_ratio_text(predicted['round_robin_balance_ratio'])}"
    )
    if "observed" in report:
        _print_observed_report(report)


def _print_observed_report(report: dict) -> None:
    observed = report.get("observed")
    if not observed:
        return
    packed = _ratio_text(observed["balance_ratio"])
    round_robin = _ratio_text(observed["round_robin_balance_ratio"])
    print(
        f"observed: packed shards {observed['per_shard_task_seconds']}"
        f" (makespan {observed['makespan_seconds']:.2f}s,"
        f" max/min {packed})"
    )
    print(
        "          round-robin counterfactual"
        f" {observed['round_robin_per_shard_task_seconds']}"
        f" (makespan {observed['round_robin_makespan_seconds']:.2f}s,"
        f" max/min {round_robin})"
    )
    error = observed["prediction_error"]["mean_abs_pct_error"]
    if error is not None:
        print(f"          per-shard prediction error: {error:.2f}% mean")
    if observed["tasks_missing"]:
        print(
            f"          ({observed['tasks_missing']} task(s) without"
            " observed timings)"
        )


def _ratio_text(ratio: float | None) -> str:
    return "inf (idle shard)" if ratio is None else f"{ratio:.2f}"


def _load_partials_tolerant(
    paths: Sequence[str],
) -> tuple[list[tuple[str, dict]], list[str]]:
    """Load every readable partial; report the rest instead of dying.

    A crashed shard job leaves a missing or truncated file — exactly the
    situation ``merge``/``retry`` must diagnose, so unreadable inputs
    become warnings and the survivors carry on.
    """
    loaded: list[tuple[str, dict]] = []
    skipped: list[str] = []
    for path in paths:
        try:
            loaded.append((path, load_partial(path)))
        except (OSError, ValueError, pickle.UnpicklingError, EOFError) as err:
            print(f"WARNING: skipping unreadable partial {path}: {err}")
            skipped.append(path)
    return loaded, skipped


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
