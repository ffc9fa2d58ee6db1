"""CI golden-digest gate: scores and tables must match the committed truth.

For each requested experiment the script runs the full pipeline
(``repro-shard run`` over the one shard ``0/1``) twice, each run in its
own subprocess under a **distinct ``PYTHONHASHSEED``**, and asserts that
both runs reproduce the digests recorded in
``benchmarks/golden_digests.json`` for that (experiment, scale, seed):

* ``scores`` — ``sha256`` of the canonical score dump
  (:func:`repro.harness.sharding.canonical_scores`, full-``repr`` float
  precision), so a score that moves by one ulp fails;
* ``tables`` — ``sha256`` of the rendered paper-style tables.

Each digest is the first 16 hex digits.  Checking against a recorded
golden, rather than one arm against another, also catches a bug that
shifts every arm the same way.  The store is disabled
(``REPRO_STORE=0``): nothing precomputed may paper over a difference.

When an intended change moves a score, rerun the script: every mismatch
prints the measured digests, which replace the old entry by hand.

Usage::

    python benchmarks/golden_digest_check.py [--scale 0.15]
        [--experiment m2h forge_html] [--seed 0]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))  # for benchmarks.common

from benchmarks.common import run_shard_subprocess  # noqa: E402

GOLDEN_FILE = pathlib.Path(__file__).resolve().parent / "golden_digests.json"
HASH_SEEDS = (101, 202)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_goldens() -> dict[tuple[str, str, int], dict[str, str]]:
    """The committed digests keyed by ``(experiment, scale, seed)``."""
    records = json.loads(GOLDEN_FILE.read_text())["digests"]
    return {
        (record["experiment"], record["scale"], record["seed"]): {
            "scores": record["scores"],
            "tables": record["tables"],
        }
        for record in records
    }


def measure(
    experiment: str, seed: int, scale: str, hash_seed: int
) -> dict[str, str]:
    """One store-less run in a child process → its score/table digests."""
    from repro.harness import sharding

    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        out = pathlib.Path(tmp) / "partial.pkl"
        run_shard_subprocess(
            experiment, "0/1", seed, scale, out,
            hash_seed=hash_seed,
            extra_env={"REPRO_STORE": "0"},
        )
        partial = sharding.load_partial(out)
    return {
        "scores": digest(
            sharding.canonical_scores(sharding.flat_results(partial))
        ),
        "tables": digest(sharding.render_tables(partial)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="0.15")
    parser.add_argument(
        "--experiment",
        nargs="+",
        default=["m2h", "forge_html"],
        help="registry experiments to check (e.g. m2h forge_html)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    goldens = load_goldens()
    failures = 0
    for experiment in args.experiment:
        key = (experiment, args.scale, args.seed)
        golden = goldens.get(key)
        if golden is None:
            print(f"  {experiment}: no golden for scale {args.scale},"
                  f" seed {args.seed} in {GOLDEN_FILE.name}")
            failures += 1
            continue
        for hash_seed in HASH_SEEDS:
            measured = measure(experiment, args.seed, args.scale, hash_seed)
            verdicts = [
                f"{name} {'ok' if measured[name] == golden[name] else 'DIFF'}"
                for name in ("scores", "tables")
            ]
            print(
                f"  {experiment} scale {args.scale} seed {args.seed}"
                f" PYTHONHASHSEED={hash_seed}: {', '.join(verdicts)}"
            )
            if measured != golden:
                print(f"    measured {json.dumps(measured)}")
                failures += 1

    if failures:
        print(f"FAIL: {failures} run(s) differ from {GOLDEN_FILE.name}")
        return 1
    print(
        "PASS: scores and tables match the golden digests"
        f" (PYTHONHASHSEED {', '.join(map(str, HASH_SEEDS))})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
