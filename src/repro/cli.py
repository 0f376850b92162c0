"""Command-line interface: regenerate any paper experiment through the
experiment engine.

Usage::

    python -m repro.cli list
    python -m repro.cli table2 --samples 8
    python -m repro.cli fig9 --samples 4 --workers 4
    python -m repro.cli table2 fig9 --samples 4      # shared cells run once
    python -m repro.cli all --cache-dir ~/.cache/repro-focus
    python -m repro.cli serve --port 8377 --workers 4

Experiments come from the declarative registry
(:mod:`repro.engine.registry`); requesting several at once collects
their jobs into *one* deduplicated schedule, so evaluations shared
between tables and figures (Table II and Fig. 9 overlap on every video
cell) are computed a single time.

Flags:

``--samples N``
    Samples per evaluation cell (default: each driver's own default).
    Each sample is cached on its own, so growing ``--samples`` on a
    warm cache executes only the new samples.
``--seed S``
    Experiment seed; all sample streams derive from it.
``--scenario SPEC``
    Generative workload spec ``family[:key=value,...]`` for the
    ``scenario`` experiment (families: ``mtconv``, ``stream``,
    ``tenantmix`` — see :mod:`repro.workloads.scenarios`).  Specs are
    canonicalized, so every spelling of one ``(family, seed, params)``
    triple shares one content-addressed cache entry, and scenario
    cells are prefix-stable: growing ``--samples`` re-executes only
    the suffix, exactly like the base datasets.
``--workers N``
    Process-pool size (default: the CPUs this process may run on,
    at most :data:`AUTO_WORKERS_MAX`; an explicit ``N`` is never
    capped).  Pool workers run one BLAS thread each; ``--workers 1``
    executes in-process under the environment's BLAS threading.
    Results are bit-identical for any ``N``; only wall-clock changes.
``--forward-batch N``
    Lanes per forward pass for every executed job (default: 1, one
    sample per pass).  Same-shape samples stack into one tensorized
    pass, and a cell's missing samples execute in chunks of ``N``;
    results are bit-identical for any batch size, only wall-clock
    differs, so the lane count is not part of any job key and a warm
    cache serves every value.  Methods whose plugin does
    not stack (``dense``, ``focus-topp`` and the baselines) run one
    lane at a time.
``--retries N``
    Extra attempts per failed job (default: 0).  Attempts back off
    exponentially from ``--retry-backoff`` with deterministic jitter
    derived from the job key; every retry re-derives the same seeds,
    so retried results are bit-identical to first-try ones.
``--retry-backoff SECONDS``
    Base backoff before a job's second attempt (default: 0.05);
    doubles per retry, capped at 5s.
``--job-timeout SECONDS``
    Per-job wall-clock budget, enforced on the worker pool (the
    default on a multi-core host; ``--workers 1`` runs in-process and
    disables enforcement): a hung job's worker is reclaimed, innocent
    in-flight jobs are re-dispatched without penalty, and the job
    retries or fails per ``--retries``.
``--on-error {raise,collect}``
    What to do when a job exhausts its attempts: ``raise`` (default)
    aborts the run with the original error; ``collect`` keeps going,
    renders failed experiments as structured failure summaries, and
    exits with code 3 (partial results).  Worker-crash recovery is
    always on: a crashed worker's pool is respawned and only
    un-completed jobs are re-dispatched; a job that repeatedly kills
    its worker is quarantined as poisoned.
``--cache-dir DIR``
    On-disk content-addressed result cache.  A warm re-run of any
    experiment performs zero new evaluations.
``--cache-max-mb MB``
    LRU-prune the disk cache tier to at most ``MB`` megabytes, evicting
    the least-recently-used entries first.
``--no-cache``
    Disable result caching (memory and disk) entirely.
``--remote-cache URL``
    Shared result-cache server (``python -m repro.cli cache-server``)
    consulted as the third tier after memory and disk; fetched
    payloads are sha256-verified before use and new results are
    published back asynchronously.  Conflicts with ``--no-cache``.
``--peers URLS``
    Comma-separated ``repro serve`` peer base URLs.  Job batches are
    partitioned over the fleet (local engine included) by rendezvous
    hashing on each job's content address; an unreachable peer's
    share is requeued for local execution without penalty, so the
    run's results are bit-identical for any peer count.
``--progress``
    Stream per-job progress lines to stderr.
``--progress-jsonl PATH``
    Stream progress as canonical JSON-lines events (the same codec the
    serving frontend speaks — :mod:`repro.serve.events`) to ``PATH``,
    or to stderr with ``-``.  The stream ends with a terminal
    ``run-done`` event carrying per-report content digests, so offline
    and served runs of one spec are byte-comparable.

``serve`` subcommand
    ``python -m repro.cli serve`` starts the asyncio HTTP frontend
    (:mod:`repro.serve.server`): ``POST /runs`` launches any registry
    spec, ``GET /runs/{id}/events`` streams progress as Server-Sent
    Events or JSON lines with ``Last-Event-ID`` resume, and
    ``GET /runs/{id}/result`` returns the assembled reports.  Every
    event writes through to a durable SQLite run store (default
    ``repro-runs.sqlite``; disable with ``--no-store``), so resume is
    lossless past ring eviction and across restarts.  Serve flags:
    ``--host/--port/--ring-size/--store-path/--no-store`` plus every
    engine flag above (:func:`add_engine_flags`, same defaults).

``replay`` subcommand
    ``python -m repro.cli replay <run-id>`` re-streams a stored run
    byte-identically to the recorded live SSE stream (``--format
    jsonl`` for the JSON-lines body), with ``--last-event-id N`` for
    mid-replay resume — the offline twin of the events endpoint.

``runs`` subcommand
    ``python -m repro.cli runs [run-id]`` lists stored runs (newest
    first) or inspects one: status, event count, per-report sha256
    digests.  ``--latest`` prints only the newest run id; ``--json``
    for machines.

``load`` subcommand
    ``python -m repro.cli load`` replays a traffic trace against a
    live ``repro serve`` endpoint (:mod:`repro.load`): open-loop
    Poisson/burst arrivals or closed-loop concurrency with think
    time, a ``--virtual`` clock for deterministic simulated
    timelines, and per-request p50/p95/p99 latency, time-to-first-
    event, and subscriber fan-out written as a ``BENCH_load.json``-
    shaped report via ``--output``.

``cache-server`` subcommand
    ``python -m repro.cli cache-server`` starts the standalone
    content-addressed result-cache server
    (:mod:`repro.remote.cache_server`): ``GET/PUT/HEAD
    /cache/{job_id}`` plus a batched ``POST /cache/manifest``
    presence probe, with LRU pruning past ``--max-mb``.  Point any
    number of engines at it with ``--remote-cache``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.engine import (
    ExperimentEngine,
    ExperimentFailure,
    ProgressEvent,
    ResultCache,
    RetryPolicy,
)
from repro.engine import registry
from repro.engine.registry import (
    EXPERIMENT_REGISTRY,
    RunSpec,
    experiment_names,
)
from repro.eval import reporting as rep  # noqa: F401  (attaches formatters)

EXIT_PARTIAL = 3
"""Exit status of an ``--on-error collect`` run that lost experiments."""

AUTO_WORKERS_MAX = 8
"""Cap on the default ``--workers``.  Each worker holds its own models
and samples (~190 MB), so a large host should not fork one per CPU."""


def auto_workers() -> int:
    """Default ``--workers``: the usable CPUs, capped at
    :data:`AUTO_WORKERS_MAX`; 1 (the in-process path) on one CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, AUTO_WORKERS_MAX)


def positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (>= 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    """Argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """Argparse type: a strictly positive, finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value > 0 or value != value or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def nonnegative_float(text: str) -> float:
    """Argparse type: a finite number >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not value >= 0 or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def http_url(text: str) -> str:
    """Argparse type: an ``http://host[:port]`` base URL."""
    from urllib.parse import urlsplit

    candidate = text.strip().rstrip("/")
    parts = urlsplit(candidate)
    if parts.scheme != "http" or not parts.hostname:
        raise argparse.ArgumentTypeError(
            f"must look like http://host[:port], got {text!r}"
        )
    if parts.path or parts.query or parts.fragment:
        raise argparse.ArgumentTypeError(
            f"must be a bare base URL (no path/query), got {text!r}"
        )
    try:
        parts.port  # raises ValueError on a malformed port
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad port in {text!r}")
    return candidate


def peer_list(text: str) -> list[str]:
    """Argparse type: comma-separated peer base URLs, each validated."""
    urls = [piece for piece in
            (chunk.strip() for chunk in text.split(",")) if piece]
    if not urls:
        raise argparse.ArgumentTypeError("no peer URLs given")
    return [http_url(url) for url in urls]


def scenario_spec(text: str) -> str:
    """Argparse type: a ``family[:key=value,...]`` scenario spec.

    The spec is canonicalized (defaults filled in, params sorted), so
    every spelling of one ``(family, seed, params)`` triple produces
    byte-identical engine job keys — and therefore shared cache
    entries.
    """
    from repro.workloads.scenarios import parse_scenario

    try:
        return parse_scenario(text).name
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def directory(text: str) -> str:
    """Argparse type: a directory path (created later if missing)."""
    if Path(text).exists() and not Path(text).is_dir():
        raise argparse.ArgumentTypeError(
            f"{text!r} exists and is not a directory"
        )
    return text


def add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Declare the engine flags :func:`make_engine` reads.

    The CLI and ``repro serve`` both call this, so the two accept the
    same engine flags with the same defaults.
    """
    group = parser.add_argument_group("engine")
    group.add_argument(
        "--workers", type=positive_int, default=auto_workers(),
        help="worker processes, one BLAS thread each (default: usable "
             f"CPUs, at most {AUTO_WORKERS_MAX}; 1 runs in-process; "
             "results are identical for any count)",
    )
    group.add_argument(
        "--forward-batch", type=positive_int, default=1,
        help="lanes per forward pass (default: 1; same-shape samples "
             "stack into one tensorized pass — results are "
             "bit-identical and cached alike, only wall-clock differs)",
    )
    group.add_argument(
        "--retries", type=nonnegative_int, default=0,
        help="extra attempts per failed job (default: 0; retried "
             "results are bit-identical to first-try ones)",
    )
    group.add_argument(
        "--retry-backoff", type=nonnegative_float, default=0.05,
        metavar="SECONDS",
        help="base backoff before a job's second attempt (default: "
             "0.05; doubles per retry with deterministic jitter)",
    )
    group.add_argument(
        "--job-timeout", type=positive_float, default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget, enforced on the worker pool "
             "(--workers 1 disables it): a hung job's worker is "
             "reclaimed and the job retries or fails per --retries",
    )
    group.add_argument(
        "--cache-dir", type=directory, default=None,
        help="on-disk result cache directory (reused across runs)",
    )
    group.add_argument(
        "--cache-max-mb", type=nonnegative_float, default=None,
        help="LRU-prune the disk cache to at most this many megabytes",
    )
    tier = group.add_mutually_exclusive_group()
    tier.add_argument(
        "--no-cache", action="store_true",
        help="disable the evaluation result cache",
    )
    tier.add_argument(
        "--remote-cache", type=http_url, default=None, metavar="URL",
        help="shared result-cache server (repro.cli cache-server) "
             "consulted after the memory and disk tiers; results are "
             "published back asynchronously and digest-verified on "
             "fetch",
    )
    group.add_argument(
        "--peers", type=peer_list, default=None, metavar="URLS",
        help="comma-separated 'repro serve' peer base URLs; job "
             "batches are partitioned over the fleet by rendezvous "
             "hashing, and an unreachable peer's share falls back to "
             "local execution (results stay bit-identical)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate experiments from the Focus paper.",
    )
    parser.add_argument(
        "experiments", nargs="+",
        help="experiment names (or 'list' / 'all')",
    )
    parser.add_argument(
        "--samples", type=positive_int, default=None,
        help="samples per evaluation cell (default: driver default)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment seed",
    )
    parser.add_argument(
        "--scenario", type=scenario_spec, default=None, metavar="SPEC",
        help="generative workload spec 'family[:key=value,...]' for "
             "the 'scenario' experiment (families: mtconv, stream, "
             "tenantmix; canonicalized so every spelling of one spec "
             "shares one content-addressed cache entry)",
    )
    parser.add_argument(
        "--on-error", choices=("raise", "collect"), default="raise",
        help="when a job exhausts its attempts: 'raise' aborts the "
             "run (default); 'collect' keeps going, reports failed "
             "experiments as structured summaries, and exits 3",
    )
    add_engine_flags(parser)
    parser.add_argument(
        "--progress", action="store_true",
        help="stream per-job progress to stderr",
    )
    parser.add_argument(
        "--progress-jsonl", default=None, metavar="PATH",
        help="stream progress as JSON-lines events (the serving "
             "frontend's codec) to PATH, or stderr with '-'",
    )
    return parser


def _print_progress(event: ProgressEvent) -> None:
    if event.action == "eval-shard-done" and event.detail:
        d = event.detail
        print(
            f"[engine {event.completed}/{event.total} "
            f"{event.elapsed_s:6.1f}s] sample "
            f"{d['shards_done']}/{d['shards_total']} of {d['parent']} | "
            f"running acc {d['accuracy']:.1f}% "
            f"sparsity {d['sparsity']:.1f}% "
            f"({d['samples']} samples)",
            file=sys.stderr,
        )
        return
    print(
        f"[engine {event.completed}/{event.total} "
        f"{event.elapsed_s:6.1f}s] {event.action:9s} "
        f"{event.job.describe()}",
        file=sys.stderr,
    )


def _jsonl_progress(stream) -> "ProgressCallback":
    """Progress callback writing canonical codec events as JSON lines."""
    from repro.serve import events as codec

    def write(event: ProgressEvent) -> None:
        stream.write(codec.to_json(codec.encode_progress(event)) + "\n")
        stream.flush()

    return write


def make_engine(
    args: argparse.Namespace, progress_jsonl=None
) -> ExperimentEngine:
    """Build the engine the parsed :func:`add_engine_flags` describe.

    ``progress_jsonl`` is an open text stream; when given, every
    progress event is also written to it as one canonical JSON line
    (:mod:`repro.serve.events`) — the same wire format the serving
    frontend streams, so offline and served runs are comparable.
    ``--progress`` (CLI only) adds human-readable lines on stderr.
    """
    remote = None
    if args.remote_cache is not None:
        # Lazy: only remote-tier runs pay for the client stack.
        from repro.remote.client import RemoteCacheClient

        remote = RemoteCacheClient(args.remote_cache)
    cache = ResultCache(
        cache_dir=args.cache_dir,
        enabled=not args.no_cache,
        max_disk_bytes=(
            None if args.cache_max_mb is None
            else int(args.cache_max_mb * 1e6)
        ),
        remote=remote,
    )
    callbacks = []
    if getattr(args, "progress", False):
        callbacks.append(_print_progress)
    if progress_jsonl is not None:
        callbacks.append(_jsonl_progress(progress_jsonl))
    if not callbacks:
        callback = None
    elif len(callbacks) == 1:
        callback, = callbacks
    else:
        def callback(event: ProgressEvent) -> None:
            for each in callbacks:
                each(event)
    retry_policy = None
    if args.retries > 0:
        retry_policy = RetryPolicy(
            max_attempts=args.retries + 1, backoff_s=args.retry_backoff
        )
    return ExperimentEngine(
        workers=args.workers,
        cache=cache,
        progress=callback,
        retry_policy=retry_policy,
        job_timeout_s=args.job_timeout,
        peers=args.peers,
        forward_batch=args.forward_batch,
    )


def run_experiment(
    name: str,
    samples: int | None = None,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
    on_error: str = "raise",
    scenario: str | None = None,
) -> str:
    """Run one experiment and return its formatted report."""
    text, = run_experiments(
        [name], samples, seed, engine, on_error, scenario,
    ).values()
    return text


def run_experiments(
    names: list[str],
    samples: int | None = None,
    seed: int = 0,
    engine: ExperimentEngine | None = None,
    on_error: str = "raise",
    scenario: str | None = None,
) -> dict[str, str]:
    """Run several experiments as one schedule; return formatted reports.

    Jobs are collected from every requested experiment before anything
    executes, so duplicates across experiments are evaluated once.
    With ``on_error="collect"``, experiments whose jobs were
    permanently lost render their deterministic failure summary
    instead of raising.
    """
    spec = RunSpec(tuple(names), samples, seed, scenario, on_error)
    reports, _ = _run_detailed(spec, engine)
    return reports


def _run_detailed(
    spec: RunSpec, engine: ExperimentEngine | None = None
) -> tuple[dict[str, str], dict[str, object]]:
    """Run a schedule; return formatted reports + structured failures.

    ``failures`` maps each failed experiment name (``on_error=
    "collect"`` only) to its :meth:`~repro.engine.faults.
    ExperimentFailure.as_detail` record.
    """
    engine = engine if engine is not None else ExperimentEngine()
    results = registry.run_experiments(
        spec.experiments, engine, on_error=spec.on_error, **spec.params
    )
    failures = {
        name: result.as_detail()
        for name, result in results.items()
        if isinstance(result, ExperimentFailure)
    }
    return results.reports, failures


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        # Lazy: only the serve path pays for the serving stack.
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv[:1] == ["replay"]:
        from repro.store.replay import replay_main

        return replay_main(argv[1:])
    if argv[:1] == ["runs"]:
        from repro.store.replay import runs_main

        return runs_main(argv[1:])
    if argv[:1] == ["cache-server"]:
        from repro.remote.cache_server import main as cache_server_main

        return cache_server_main(argv[1:])
    if argv[:1] == ["load"]:
        from repro.load.cli import main as load_main

        return load_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    names = list(args.experiments)
    if names == ["list"]:
        for name in experiment_names():
            print(f"  {name:10s} {EXPERIMENT_REGISTRY[name].description}")
        return 0
    if names == ["all"]:
        names = list(experiment_names())
    try:
        spec = RunSpec.from_record({
            "experiments": names, "samples": args.samples,
            "seed": args.seed, "scenario": args.scenario,
            "on_error": args.on_error,
        })
    except ValueError as exc:
        parser.error(str(exc))

    jsonl_stream = None
    if args.progress_jsonl is not None:
        jsonl_stream = (
            sys.stderr if args.progress_jsonl == "-"
            else open(args.progress_jsonl, "w", encoding="utf-8")
        )
    engine = make_engine(args, progress_jsonl=jsonl_stream)
    start = time.time()
    if jsonl_stream is not None:
        from repro.serve import events as codec

        jsonl_stream.write(codec.to_json(
            codec.encode_run_started("offline", names, spec.params)
        ) + "\n")
    try:
        reports, failures = _run_detailed(spec, engine)
    except BaseException as exc:
        if jsonl_stream is not None:
            # Terminate the stream explicitly: consumers must be able
            # to tell a failed run from a truncated one.
            jsonl_stream.write(codec.to_json(codec.encode_run_failed(
                "offline", f"{type(exc).__name__}: {exc}",
                time.time() - start,
            )) + "\n")
            jsonl_stream.flush()
            if jsonl_stream is not sys.stderr:
                jsonl_stream.close()
        engine.close()
        raise
    else:
        engine.close()
    if jsonl_stream is not None:
        if failures:
            terminal = codec.encode_run_partial(
                "offline", reports, failures, time.time() - start
            )
        else:
            terminal = codec.encode_run_done(
                "offline", reports, time.time() - start
            )
        jsonl_stream.write(codec.to_json(terminal) + "\n")
        jsonl_stream.flush()
        if jsonl_stream is not sys.stderr:
            jsonl_stream.close()
    for name in names:
        print(reports[name])
        print()
    stats = engine.stats
    cache = engine.cache.stats
    fault_notes = []
    for field, label in (
        ("retries", "retries"), ("timeouts", "timeouts"),
        ("pool_crashes", "pool crashes"), ("quarantined", "quarantined"),
        ("peer_failures", "peer failures"), ("failed", "failed"),
    ):
        count = getattr(stats, field)
        if count:
            fault_notes.append(f"{count} {label}")
    fault_note = f" | faults: {', '.join(fault_notes)}" if fault_notes else ""
    tier_bits = [f"{cache.disk_hits} from disk"]
    if engine.cache.remote is not None:
        tier_bits.append(f"{cache.remote_hits} from remote")
    peer_note = (
        f", {stats.remote_jobs} on peers" if stats.remote_jobs else ""
    )
    joined_note = f", {stats.joined} joined" if stats.joined else ""
    print(
        f"[{', '.join(names)} done in {time.time() - start:.1f}s | "
        f"jobs: {stats.jobs_submitted} submitted, "
        f"{stats.jobs_deduped} deduped, {stats.cache_hits} cached "
        f"({', '.join(tier_bits)}), {stats.executed} executed"
        f"{joined_note}{peer_note}{fault_note} | workers={engine.workers}]"
    )
    if failures:
        print(
            f"warning: {len(failures)} experiment(s) incomplete: "
            f"{', '.join(sorted(failures))}",
            file=sys.stderr,
        )
        return EXIT_PARTIAL
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
