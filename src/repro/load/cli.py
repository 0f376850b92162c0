"""``repro load`` — replay a traffic trace against a live server.

Open-loop mode (``--mode open``) generates Poisson/burst arrivals
(``--rate``/``--duration``/``--burst-size``) or replays a recorded
``--trace`` schedule; closed-loop mode (``--mode closed``, the
default) drives ``--concurrency`` workers with ``--think`` seconds of
think time for ``--requests`` requests.  ``--virtual`` switches to
the deterministic simulated clock (no server contacted); otherwise
requests go to ``--url``.  ``--output`` writes the full
``BENCH_load.json``-shaped report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import (
    http_url,
    nonnegative_float,
    positive_float,
    positive_int,
    scenario_spec,
)
from repro.load.client import ServeTransport, VirtualTransport
from repro.load.harness import run_closed_loop, run_open_loop
from repro.load.trace import (
    LoadRequest,
    TraceError,
    poisson_trace,
    read_trace,
)

OPEN_ONLY = ("rate", "duration", "burst_size")
CLOSED_ONLY = ("concurrency", "think", "requests")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli load",
        description="Replay a traffic trace against a repro serve "
                    "endpoint (open/closed loop, virtual or wall clock).",
    )
    parser.add_argument(
        "--url", type=http_url, default="http://127.0.0.1:8377",
        help="repro serve base URL (wall-clock mode)",
    )
    parser.add_argument(
        "--mode", choices=("open", "closed"), default="closed",
        help="open loop replays an arrival schedule; closed loop "
             "drives a fixed concurrency with think time",
    )
    parser.add_argument(
        "--virtual", action="store_true",
        help="virtual clock: deterministic simulated timeline, no "
             "server contacted (for tests and regression pinning)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="JSON-lines trace to replay (default: generate from the "
             "flags below)",
    )
    # Open-loop arrival generation.
    parser.add_argument(
        "--rate", type=positive_float, default=None,
        help="open loop: mean request arrivals per second (default 8)",
    )
    parser.add_argument(
        "--duration", type=positive_float, default=None,
        metavar="SECONDS",
        help="open loop: length of the generated schedule (default 2)",
    )
    parser.add_argument(
        "--burst-size", type=positive_int, default=None,
        help="open loop: requests per Poisson burst epoch (default 1)",
    )
    # Closed-loop driving.
    parser.add_argument(
        "--concurrency", type=positive_int, default=None,
        help="closed loop: concurrent workers (default 4)",
    )
    parser.add_argument(
        "--think", type=nonnegative_float, default=None,
        metavar="SECONDS",
        help="closed loop: think time between a worker's requests "
             "(default 0)",
    )
    parser.add_argument(
        "--requests", type=positive_int, default=None,
        help="closed loop: total requests to issue (default 16)",
    )
    # Request template (ignored when --trace is given).
    parser.add_argument(
        "--experiments", nargs="+", default=["fig13"],
        help="experiments each request runs (default: fig13)",
    )
    parser.add_argument(
        "--samples", type=positive_int, default=1,
        help="samples per request (default 1)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="trace-generation / virtual-service seed")
    parser.add_argument(
        "--scenario", type=scenario_spec, default=None, metavar="SPEC",
        help="scenario spec for requests running the 'scenario' "
             "experiment",
    )
    parser.add_argument(
        "--subscribers", type=positive_int, default=1,
        help="event-stream subscribers per request (fan-out; default 1)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the full report JSON (BENCH_load.json shape) here",
    )
    return parser


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    conflicts = CLOSED_ONLY if args.mode == "open" else OPEN_ONLY
    bad = [_flag(name) for name in conflicts
           if getattr(args, name) is not None]
    if bad:
        other = "closed" if args.mode == "open" else "open"
        parser.error(
            f"--mode {args.mode} conflicts with {other}-loop "
            f"flags: {', '.join(bad)}"
        )
    try:
        template = LoadRequest.from_record({
            "experiments": args.experiments, "samples": args.samples,
            "seed": args.seed, "scenario": args.scenario,
            "subscribers": args.subscribers,
        }, where="request template")
    except TraceError as exc:
        parser.error(str(exc))
    trace = None
    if args.trace is not None:
        try:
            trace = read_trace(args.trace)
        except TraceError as exc:
            parser.error(f"bad trace file: {exc}")

    transport = (
        VirtualTransport(seed=args.seed) if args.virtual
        else ServeTransport(args.url)
    )
    if args.mode == "open":
        if trace is None:
            trace = poisson_trace(
                rate=args.rate if args.rate is not None else 8.0,
                duration_s=(args.duration if args.duration is not None
                            else 2.0),
                seed=args.seed,
                template=template,
                burst_size=(args.burst_size
                            if args.burst_size is not None else 1),
            )
        report = run_open_loop(trace, transport, virtual=args.virtual)
    else:
        report = run_closed_loop(
            trace if trace is not None else [template],
            concurrency=(args.concurrency
                         if args.concurrency is not None else 4),
            transport=transport,
            think_s=args.think if args.think is not None else 0.0,
            max_requests=(args.requests
                          if args.requests is not None else 16),
            virtual=args.virtual,
        )

    summary = report.summary()
    fmt = lambda ms: "n/a" if ms is None else f"{ms:.1f}ms"  # noqa: E731
    latency = summary["latency_ms"]
    ttfe = summary["ttfe_ms"]
    fanout = summary["fanout"]
    print(
        f"[load {summary['mode']}/{summary['clock']}] "
        f"{summary['requests']} requests "
        f"({summary['failed']} failed) in {summary['wall_s']:.2f}s | "
        f"latency p50 {fmt(latency['p50'])} p95 {fmt(latency['p95'])} "
        f"p99 {fmt(latency['p99'])} | ttfe p50 {fmt(ttfe['p50'])} | "
        f"fanout {fanout['subscribers']} subs, {fanout['events']} "
        f"events | peak concurrency "
        f"{summary['concurrency']['peak']}"
    )
    edges = summary["histogram_ms"]["edges"]
    counts = summary["histogram_ms"]["counts"]
    occupied = [
        f"<={edges[i]:g}ms:{counts[i]}"
        for i in range(len(counts)) if counts[i]
    ]
    print(f"histogram: {' '.join(occupied) if occupied else '(empty)'}")
    for error in summary["errors"]:
        print(f"error: {error}", file=sys.stderr)
    if args.output is not None:
        Path(args.output).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
