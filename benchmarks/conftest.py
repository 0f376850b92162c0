"""Benchmark-harness configuration.

Each benchmark regenerates one table or figure of the paper's
evaluation, prints the rows in the paper's layout, and writes them to
``benchmarks/results/``.  Sample counts scale with the
``REPRO_BENCH_SAMPLES`` environment variable (default 8).

Every driver routes through the experiment engine's process-wide
default instance (:func:`repro.engine.registry.default_engine`), so
evaluations shared between benchmarks — Fig. 9 reuses most of
Table II's cells, the Fig. 10 sweeps share their default-config point
— are computed once per session.  An autouse fixture snapshots the
engine's counters around every benchmark and the session writes
``benchmarks/results/BENCH_engine.json`` (wall-clock, executed jobs,
cache hit rate per experiment) so future PRs have a perf trajectory.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.engine.registry import default_engine

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

_ENGINE_TELEMETRY: dict[str, dict[str, float]] = {}


def bench_samples(default: int = 8) -> int:
    """Per-cell sample count for benchmark experiments."""
    return int(os.environ.get("REPRO_BENCH_SAMPLES", default))


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def publish(results_dir, capsys):
    """Return a callback that prints and persists a formatted result."""

    def _publish(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _publish


@pytest.fixture(autouse=True)
def _engine_telemetry(request):
    """Record each benchmark's engine activity for BENCH_engine.json."""
    engine = default_engine()
    stats_before = engine.stats.snapshot()
    cache_before = engine.cache.stats.as_dict()
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    delta = engine.stats.delta(stats_before)
    cache_after = engine.cache.stats.as_dict()
    lookups = (
        cache_after["hits"] + cache_after["misses"]
        - cache_before["hits"] - cache_before["misses"]
    )
    hits = cache_after["hits"] - cache_before["hits"]
    _ENGINE_TELEMETRY[request.node.name] = {
        "wall_s": round(wall, 4),
        "jobs_submitted": delta.jobs_submitted,
        "jobs_deduped": delta.jobs_deduped,
        "cache_hits": hits,
        "executed": delta.executed,
        "cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
    }


def pytest_sessionfinish(session, exitstatus):
    if not _ENGINE_TELEMETRY:
        return
    engine = default_engine()
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "samples": bench_samples(),
        "experiments": _ENGINE_TELEMETRY,
        "session_totals": {
            **engine.stats.as_dict(),
            "cache": engine.cache.stats.as_dict(),
        },
    }
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
