"""``repro-serve`` with an exit report, optionally under span wrappers.

Usage::

    python perfbench/serve_child.py --report out.json [--trace-out t.json] \
        -- <repro-serve arguments>

Runs the server's own entry point until its SIGTERM drain returns, then
writes the process's peak resident memory (and, traced, the span
summary) to ``--report`` and exits with the server's exit code.
"""

from __future__ import annotations

import argparse
import json
import resource
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    from repro.serve import main as serve_main

    code = serve_main(serve_args)
    report = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        report["spans"] = spans.summarize(tracer.spans, tracer.counts)
        spans.write_trace(args.trace_out, tracer.spans, tracer.counts)
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
