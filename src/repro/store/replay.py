"""Re-stream stored runs: ``repro replay`` and ``repro runs``.

``repro replay <run-id>`` emits a historical run's event stream
through the same codec and framing as the live server, byte-identical
to what a subscriber of the original run received:

* ``--format sse`` (default) reproduces the body of
  ``GET /runs/{id}/events`` — the ``retry:`` preamble followed by one
  SSE frame per event;
* ``--format jsonl`` reproduces ``GET /runs/{id}/events?format=jsonl``
  — one canonical JSON line per event.

Byte-identity is by construction, not re-encoding: the store holds
each event's canonical JSON line verbatim (``id`` included), and the
live server frames the very same ``(id, event, line)`` rows with
:func:`frame_raw`.
``--last-event-id N`` resumes mid-replay precisely like the live
header: the output is the recorded stream's suffix after id ``N``.

``repro runs`` lists stored runs (or inspects one), including status,
event counts, and per-report sha256 digests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Iterable, Iterator

from repro.serve import events as codec
from repro.store.runstore import DEFAULT_STORE_PATH, RunStore


def frame_raw(event_id: int, name: str, payload: str, jsonl: bool) -> str:
    """Frame one ``(id, event, payload)`` row — a stored one, or a
    live server's log row — without re-encoding the payload."""
    if jsonl:
        return payload + "\n"
    return f"id: {event_id}\nevent: {name}\ndata: {payload}\n\n"


def iter_frames(
    store: RunStore,
    run_id: str,
    jsonl: bool = False,
    last_event_id: int = 0,
    chunk: int = 1024,
) -> Iterator[str]:
    """Yield a stored run's stream exactly as the live server sent it.

    The first yield of an SSE replay is the ``retry:`` preamble (the
    live endpoint writes it before any frame); every subsequent yield
    is one framed event.  ``last_event_id`` skips the recorded prefix,
    matching a live ``Last-Event-ID`` resume.
    """
    if not jsonl:
        yield codec.SSE_RETRY_PREAMBLE
    for event_id, name, payload in store.iter_raw_events(
        run_id, last_event_id, chunk=chunk
    ):
        yield frame_raw(event_id, name, payload, jsonl)


def replay_run(
    store: RunStore,
    run_id: str,
    jsonl: bool = False,
    last_event_id: int = 0,
) -> str:
    """The full replayed stream as one string (tests, small runs)."""
    return "".join(
        iter_frames(store, run_id, jsonl=jsonl, last_event_id=last_event_id)
    )


def _open_store(path: str) -> RunStore:
    import os

    if not os.path.exists(path):
        raise SystemExit(
            f"repro replay: no run store at {path!r} "
            "(record one with 'repro serve --store-path')"
        )
    return RunStore(path)


def build_replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli replay",
        description="Re-stream a stored run byte-identically to its "
                    "recorded live SSE/JSON-lines stream.",
    )
    parser.add_argument("run_id", help="stored run id (see 'repro runs')")
    parser.add_argument(
        "--store-path", default=DEFAULT_STORE_PATH,
        help=f"run-store database (default: {DEFAULT_STORE_PATH})",
    )
    parser.add_argument(
        "--format", choices=("sse", "jsonl"), default="sse",
        help="framing: 'sse' matches GET /runs/{id}/events, 'jsonl' "
             "matches ?format=jsonl (default: sse)",
    )
    parser.add_argument(
        "--last-event-id", type=int, default=0, metavar="N",
        help="resume mid-replay: emit only events with id > N "
             "(default: 0, the full stream)",
    )
    parser.add_argument(
        "--output", default="-", metavar="PATH",
        help="write the stream to PATH instead of stdout",
    )
    return parser


def replay_main(argv: Iterable[str] | None = None) -> int:
    args = build_replay_parser().parse_args(
        list(argv) if argv is not None else None
    )
    with _open_store(args.store_path) as store:
        if store.get_run(args.run_id) is None:
            known = [run["run_id"] for run in store.list_runs(limit=10)]
            print(
                f"repro replay: no run {args.run_id!r} in "
                f"{args.store_path} (recent: {known})", file=sys.stderr,
            )
            return 2
        out = (
            sys.stdout if args.output == "-"
            else open(args.output, "w", encoding="utf-8", newline="")
        )
        try:
            for piece in iter_frames(
                store, args.run_id,
                jsonl=args.format == "jsonl",
                last_event_id=max(0, args.last_event_id),
            ):
                out.write(piece)
            out.flush()
        except BrokenPipeError:
            # Downstream (e.g. ``| head``) closed the pipe.  Point the
            # stdout fd at devnull so the interpreter's exit-time flush
            # of the dead pipe can't error, and exit quietly like cat.
            if out is sys.stdout:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


def _format_run_row(run: dict[str, Any]) -> str:
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(run["created_at"])
    )
    elapsed = (
        f"{run['elapsed_s']:.1f}s" if run["elapsed_s"] is not None else "-"
    )
    return (
        f"{run['run_id']:<18} {run['status']:<9} {created}  "
        f"{run['last_event_id']:>6} ev  {elapsed:>8}  "
        f"{','.join(run['experiments'])}"
    )


def build_runs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli runs",
        description="List or inspect runs recorded in the run store.",
    )
    parser.add_argument(
        "run_id", nargs="?", default=None,
        help="inspect one run (default: list recent runs)",
    )
    parser.add_argument(
        "--store-path", default=DEFAULT_STORE_PATH,
        help=f"run-store database (default: {DEFAULT_STORE_PATH})",
    )
    parser.add_argument(
        "--limit", type=int, default=20,
        help="runs listed, newest first (default: 20)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON instead of the table",
    )
    parser.add_argument(
        "--latest", action="store_true",
        help="print only the newest run id (for scripts)",
    )
    return parser


def runs_main(argv: Iterable[str] | None = None) -> int:
    args = build_runs_parser().parse_args(
        list(argv) if argv is not None else None
    )
    with _open_store(args.store_path) as store:
        if args.latest:
            runs = store.list_runs(limit=1)
            if not runs:
                print("repro runs: store is empty", file=sys.stderr)
                return 1
            print(runs[0]["run_id"])
            return 0
        if args.run_id is not None:
            run = store.get_run(args.run_id)
            if run is None:
                print(
                    f"repro runs: no run {args.run_id!r} in "
                    f"{args.store_path}", file=sys.stderr,
                )
                return 2
            run["reports"] = store.report_digests(args.run_id)
            if args.json:
                print(json.dumps(run, indent=2, sort_keys=True))
            else:
                print(_format_run_row(run))
                if run["error"]:
                    print(f"  error: {run['error']}")
                for name, digest in run["reports"].items():
                    print(
                        f"  report {name}: sha256={digest['sha256']} "
                        f"({digest['chars']} chars)"
                    )
            return 0
        runs = store.list_runs(limit=args.limit)
        if args.json:
            print(json.dumps(runs, indent=2, sort_keys=True))
            return 0
        if not runs:
            print("repro runs: store is empty", file=sys.stderr)
            return 1
        print(f"{'run id':<18} {'status':<9} {'created':<19} "
              f"{'events':>9}  {'elapsed':>8}  experiments")
        for run in runs:
            print(_format_run_row(run))
    return 0
