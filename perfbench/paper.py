"""``paper-cold``: a closed loop of the researcher's main command, one
fresh ``python -m repro.cli`` process per pass over a fresh disk cache.

A pass is ``all --samples 1 --seed S --cache-dir DIR --progress-jsonl -``
with otherwise default (serial) flags.  The progress stream arrives on
the child's stderr pipe; its terminal ``run-done`` event carries the
per-report sha256 digests every pass is checked against.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from common import (
    ROOT,
    BenchError,
    HostSpeed,
    Scratch,
    child_env,
    cli_argv,
    dup_executed,
    log,
    median,
    traced_argv,
)
from layers import layer_metrics

SAMPLES = 1
MIN_PASSES = 2
TRACED_PASSES = 2
SETUP_REPEATS = 9
"""``repro.cli list`` start-ups timed for the set-up."""
SERVE_METRICS = (
    "serve.hit_p50_ms", "serve.hit_p99_ms", "serve.cold_p50_ms",
    "serve.cold_p90_ms", "serve.ttfe_p50_ms", "serve.post_ms",
    "serve.stream_ms", "serve.events",
)


@dataclass
class Pass:
    """One child process: its cost, stream and checked outputs."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    terminal: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


def run_pass(argv: list[str]) -> Pass:
    """Run one child to completion, reading its event stream live."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=child_env(), cwd=ROOT,
    )
    events, noise = [], []
    with proc.stderr:
        for line in proc.stderr:
            if line.startswith(b"{"):
                events.append(json.loads(line))
            else:
                noise.append(line.decode(errors="replace"))
    # wait4 reports this child's own rusage: CPU and peak RSS.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Pass(
        wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        status=proc.returncode,
    )
    if result.status != 0:
        result.error = f"exit {result.status}: {''.join(noise)[-500:]}"
    if events:
        terminal = events[-1]
        result.terminal = terminal.get("event")
        result.digests = {
            name: report["sha256"]
            for name, report in (terminal.get("reports") or {}).items()
        }
        result.executed = [
            e["job"]["job_id"] for e in events
            if e.get("action") == "completed"
        ]
        if result.terminal != "run-done" and not result.error:
            result.error = f"terminal event {result.terminal!r}"
    return result


def pass_argv(seed: int, cache: Path, spans: Path | None = None) -> list[str]:
    args = ("all", "--samples", str(SAMPLES), "--seed", str(seed),
            "--cache-dir", str(cache), "--progress-jsonl", "-")
    return traced_argv(spans, *args) if spans else cli_argv(*args)


def check(passes: list[Pass], reference: dict[str, str]) -> int:
    """Mark passes whose outputs are wrong; return how many are."""
    failed = 0
    for each in passes:
        if each.ok and each.digests != reference:
            each.error = "report digests differ from the first pass"
        if not each.ok:
            failed += 1
            log(f"FAILED pass: {each.error}")
    return failed


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Measure paper-cold; return its metrics and checked outputs."""
    with Scratch("paper-cold") as scratch, HostSpeed() as host:
        setup_started = perf_counter()
        setups = []
        for _ in range(SETUP_REPEATS):
            setups.append(run_pass(cli_argv("list")))
            if not setups[-1].ok:
                raise BenchError(f"'repro.cli list' failed: "
                                 f"{setups[-1].error}")
        setup_slow = host.slowdown(setup_started, perf_counter())

        passes: list[Pass] = []
        started = perf_counter()
        while len(passes) < MIN_PASSES or perf_counter() - started < seconds:
            cache = scratch.fresh("cache")
            passes.append(run_pass(pass_argv(seed, cache)))
            log(f"paper-cold pass {len(passes)}: {passes[-1].wall_s:.3f} s")
        slow = host.slowdown(started, perf_counter())

        traced, layers = [], []
        traced_started = perf_counter()
        if trace:
            for index in range(TRACED_PASSES):
                cache = scratch.fresh("cache")
                spans = scratch.path / f"spans-{index}.json"
                traced.append(run_pass(pass_argv(seed, cache, spans)))
                if traced[-1].ok:
                    layers.append(layer_metrics(spans))
                log(f"paper-cold traced pass {index + 1}: "
                    f"{traced[-1].wall_s:.3f} s")
            traced_slow = host.slowdown(traced_started, perf_counter())
        failed = check(passes + traced, passes[0].digests)

    ok = [p for p in passes if p.ok]
    if not ok:
        raise BenchError("paper-cold: every pass failed")
    # Medians over the phase, divided by the host's slowdown during it.
    pass_s = median([p.wall_s for p in ok]) / slow
    result = {
        "attempted": len(passes) + len(traced),
        "failed": failed,
        "digests": passes[0].digests,
        "samples": {"passes": len(ok), "setups": len(setups)},
        "end_to_end": {
            "setup_s": median([p.wall_s for p in setups]) / setup_slow,
            "pass_s": pass_s,
            "pass_cpu_s": median([p.cpu_s for p in ok]) / slow,
            "peak_rss_mb": median([p.rss_mb for p in ok]),
            # One caller in a closed loop: throughput is the reciprocal
            # of the (median) pass.
            "req_per_s": 1 / pass_s,
        },
        "raw": {
            "setup_s": median([p.wall_s for p in setups]),
            "pass_s": median([p.wall_s for p in ok]),
            "pass_cpu_s": median([p.cpu_s for p in ok]),
        },
        "slowdown": slow,
    }
    if trace:
        result["per_layer"] = _traced_layers(passes, traced, layers)
        # Traced over untraced pass, each at the reference host speed.
        result["per_layer"]["trace.overhead"] *= slow / traced_slow
    return result


def _traced_layers(passes: list[Pass], traced: list[Pass],
                   layers: list[dict]) -> dict:
    if not layers or len(layers) != len(traced):
        errors = "; ".join(p.error for p in traced if not p.ok)
        raise BenchError(f"a traced pass failed, so no per-layer metrics: "
                         f"{errors}")
    per_layer = {
        name: median([each[name] for each in layers]) for name in layers[0]
    }
    for name in per_layer:
        if isinstance(layers[0][name], int):
            values = {each[name] for each in layers}
            if len(values) != 1:
                raise BenchError(f"count {name} differs between traced "
                                 f"passes of one seed: {sorted(values)}")
            per_layer[name] = layers[0][name]
    # The CLI serves no requests: its serve-layer metrics read zero.
    per_layer.update(dict.fromkeys(SERVE_METRICS, 0))
    per_layer["engine.dup_executed"] = max(
        dup_executed(p.executed) for p in traced
    )
    per_layer["trace.overhead"] = (
        median([p.wall_s for p in traced])
        / median([p.wall_s for p in passes if p.ok])
    )
    return per_layer
