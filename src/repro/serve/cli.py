"""The ``repro-serve`` console script.

Two subcommands — the infer-time pair to ``repro-store``'s hygiene::

    repro-serve export --experiment forge_html [--providers p1,p2]
                       [--methods LRSyn,NDSyn] [--train N] [--test N]
                       [--seed N] [--json]
        Train (or warm-load) every (provider, field, method) program of
        an experiment and write the serving catalog rows the server
        routes with (see repro.harness.export).  Rides the warm store:
        after a harness run this is nearly free.

    repro-serve run [--host H] [--port N] [--queue N] [--batch N]
                    [--batch-wait-ms MS] [--watch S] [--addr-file F]
        Serve extractions over HTTP until SIGTERM (see
        repro.serve.server).  Port 0 picks a free port; --addr-file
        publishes the bound address for CI jobs that start the server
        in the background.

Both honor ``--store-dir`` (default ``REPRO_STORE_DIR`` /
``~/.cache/repro``); flags override the ``REPRO_SERVE_*`` env knobs.
"""

from __future__ import annotations

import json


def main(argv: list[str] | None = None) -> int:
    import argparse

    from repro.serve import (
        DEFAULT_BATCH,
        DEFAULT_BATCH_WAIT_MS,
        DEFAULT_PORT,
        DEFAULT_QUEUE,
        DEFAULT_WATCH_SECONDS,
    )

    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve trained extraction programs over HTTP.",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="blueprint store directory"
        " (default: REPRO_STORE_DIR or ~/.cache/repro)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="serve extractions until SIGTERM (drains gracefully)"
    )
    run.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1; the service is"
        " unauthenticated — do not expose beyond the job boundary)",
    )
    run.add_argument(
        "--port",
        type=int,
        default=None,
        help=f"TCP port (default REPRO_SERVE_PORT or {DEFAULT_PORT};"
        " 0 picks a free port)",
    )
    run.add_argument(
        "--queue",
        type=int,
        default=None,
        help="admission-queue bound; requests past it are shed with 429"
        f" (default REPRO_SERVE_QUEUE or {DEFAULT_QUEUE})",
    )
    run.add_argument(
        "--batch",
        type=int,
        default=None,
        help="micro-batch size"
        f" (default REPRO_SERVE_BATCH or {DEFAULT_BATCH})",
    )
    run.add_argument(
        "--batch-wait-ms",
        type=float,
        default=None,
        help="batch fill window in milliseconds (default"
        f" REPRO_SERVE_BATCH_WAIT_MS or {DEFAULT_BATCH_WAIT_MS:g})",
    )
    run.add_argument(
        "--watch",
        type=float,
        default=None,
        help="catalog watch interval in seconds; 0 disables hot reload"
        f" (default REPRO_SERVE_WATCH or {DEFAULT_WATCH_SECONDS:g})",
    )
    run.add_argument(
        "--addr-file",
        default=None,
        help="write the bound http://host:port address to this file",
    )

    export = sub.add_parser(
        "export",
        help="write the serving catalog for an experiment's programs",
    )
    export.add_argument(
        "--experiment",
        required=True,
        help="experiment to export (forge_html or m2h)",
    )
    export.add_argument(
        "--providers",
        default=None,
        help="comma-separated provider subset (default: all)",
    )
    export.add_argument(
        "--methods",
        default=None,
        help="comma-separated methods (default: LRSyn,NDSyn)",
    )
    export.add_argument(
        "--train", type=int, default=None, help="training docs per provider"
    )
    export.add_argument(
        "--test", type=int, default=None, help="test docs per provider"
    )
    export.add_argument("--seed", type=int, default=0, help="corpus seed")
    export.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )

    args = parser.parse_args(argv)

    if args.command == "run":
        from repro.serve.server import run_server
        from repro.store import BlueprintStore

        return run_server(
            BlueprintStore(directory=args.store_dir, enabled=True),
            host=args.host,
            port=args.port,
            queue_size=args.queue,
            batch_size=args.batch,
            batch_wait=(
                args.batch_wait_ms / 1000.0
                if args.batch_wait_ms is not None
                else None
            ),
            watch=args.watch,
            addr_file=args.addr_file,
        )

    import os

    from repro.harness.export import export_experiment
    from repro.store import shared_store

    # Export trains, probes and writes the catalog through the process's
    # shared store, so --store-dir has to select that store.
    if args.store_dir is not None:
        os.environ["REPRO_STORE_DIR"] = args.store_dir
    report = export_experiment(
        args.experiment,
        methods=args.methods.split(",") if args.methods else None,
        providers=args.providers.split(",") if args.providers else None,
        train_size=args.train,
        test_size=args.test,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        counts = ", ".join(
            f"{status}={n}" for status, n in sorted(report["counts"].items())
        ) or "nothing exported"
        print(
            f"exported {len(report['entries'])} serving entries for"
            f" {report['experiment']}: {counts}"
        )
    shared_store().close()
    return 0
