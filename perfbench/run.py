"""The repository's benchmark: the researcher's CLI over a cold cache,
and the serving frontend under a hit/cold request mix.

One run of one workload::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 40 --trace 0

prints the host block and a readable report, then, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` additionally runs the workload under ``tracer.py`` and
reports the per-layer metrics instead.  Every program process is
started as users start it (``python -m repro.cli``) with
``OPENBLAS_NUM_THREADS=1``/``OMP_NUM_THREADS=1``.

Steadiness (several runs per workload, seeds ``--seed``, ``--seed``+1,
...), printing each end-to-end metric's median, quartiles and relative
spread against its bound::

    python3 perfbench/run.py --steady 10 --workload serve-mix
    python3 perfbench/run.py --steady 1      # every workload, once

Output checks run on every pass and request; a failed check counts in
``failed`` and turns ``correct`` false.  Deterministic counts that do
not repeat across traced runs of one seed stop the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import paper
import servemix
from common import (
    BENCH,
    ROOT,
    SRC,
    WORK,
    BenchError,
    host_block,
    log,
    require_program,
    source_digest,
)
from layers import DETERMINISTIC

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
RUN_TIMEOUT_S = 900


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload == "serve-mix":
        return servemix.run(seed, seconds, trace)
    result = paper.run(seed, seconds, trace)
    # The first run of a seed records its report digests; every later
    # run of that seed at the same revision must reproduce them.
    if not remembered(f"digests-{workload}-{seed}", result["digests"]):
        log("FAILED: report digests differ from an earlier run of this "
            "seed")
        result["failed"] += 1
    return result


def remembered(key: str, value) -> bool:
    """Compare ``value`` with the one first recorded under ``key`` by a
    run of the same program and benchmark sources.

    State is kept per revision, so a change that legitimately alters a
    count or a report never compares against an older revision's runs.
    """
    revision = source_digest(SRC, BENCH)
    path = WORK / "state" / revision / f"{key}.json"
    if path.exists():
        return json.loads(path.read_text()) == value
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(value, sort_keys=True))
    partial.replace(path)
    return True


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print the readable report; return the result."""
    host = host_block()
    print(json.dumps({"host": host}))
    result = measure(workload, seed, seconds, trace)
    section = "per_layer" if trace else "end_to_end"
    values = dict(result.get("serve", {}))
    values.update(result["end_to_end"])
    print(json.dumps({"raw": result["raw"],
                      "host.slowdown": result["slowdown"]}))
    if trace:
        layers = dict(result["per_layer"], **{
            "host.slowdown": result["slowdown"]
        })
        counts = {name: layers[name] for name in DETERMINISTIC}
        if not remembered(f"counts-{workload}-{seed}", counts):
            raise BenchError(
                f"deterministic counts changed between traced runs of "
                f"seed {seed}: {counts}"
            )
        values.update(layers)
    wanted = [m["name"] for m in SPEC[section]]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise BenchError(f"{workload} produced no {missing}")
    print(f"{workload} seed={seed} samples={result['samples']}")
    for name in sorted(values):
        print(f"  {name:28s} {values[name]:14.6g} {UNITS.get(name, '')}")
    print(f"  error_rate {result['failed']}/{result['attempted']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": UNITS[name]}
            for name in wanted
        },
    }


def steady(runs: int, workloads: list[str], seed: int) -> int:
    """Run each workload ``runs`` times; print spread against bounds."""
    print(json.dumps({"host": host_block()}))
    flagged = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        failed = attempted = 0
        for index in range(runs):
            argv = [sys.executable, __file__, "--workload", workload,
                    "--seed", str(seed + index),
                    "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            out = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
            if out.returncode != 0:
                print(f"{workload} seed={seed + index}: exit "
                      f"{out.returncode}")
                flagged += 1
                continue
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            measured = next(json.loads(line) for line in lines
                            if line.startswith('{"raw"'))
            print(f"{workload} seed={seed + index}: "
                  + json.dumps({name: metric["value"] for name, metric
                                in result["metrics"].items()})
                  + f" {json.dumps(measured)}", flush=True)
            for name, value in measured["raw"].items():
                raw.setdefault(name, []).append(value)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {runs} runs, error_rate "
              f"{failed}/{attempted}")
        print(f"  {'metric':14s} {'unit':6s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
        for name, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4)
                         if len(series) > 1 else (mid, mid, mid))
            spread = (q3 - q1) / mid if mid else float("inf")
            noisy = spread > BOUNDS[name]
            flagged += noisy
            print(f"  {name:14s} {UNITS[name]:6s} {mid:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:7.3f} {BOUNDS[name]:6.2f}"
                  f"{'  NOISY' if noisy else ''}")
        for name, series in raw.items():
            q1, mid, q3 = statistics.quantiles(series, n=4)
            print(f"  {name:14s} raw, not normalised: median "
                  f"{statistics.median(series):.5g}, spread "
                  f"{(q3 - q1) / statistics.median(series):.3f}")
        flagged += failed > 0
    return 1 if flagged else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS",
                        help="run each workload RUNS times and report "
                             "the spread of every end-to-end metric")
    args = parser.parse_args(argv)
    try:
        require_program()
        if args.steady:
            return steady(args.steady, args.workload or WORKLOADS, args.seed)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload (or --steady)")
        result = report(args.workload[0], args.seed, args.seconds,
                        bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
