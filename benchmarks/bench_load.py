"""Load-harness benchmark: latency under closed-loop load, fan-out,
and suffix-only re-execution for every scenario family.

Four measurements, written to ``BENCH_load.json``:

* ``virtual`` — two identical virtual-clock replays of a Poisson
  burst trace; their summaries must be byte-identical (the
  determinism contract the load tests pin, re-checked at benchmark
  scale).
* ``wall`` — a wall-clock closed loop of real HTTP requests against
  an in-process :class:`~repro.serve.server.ServeApp`, reporting the
  p50/p95/p99 latency and time-to-first-event a live client sees.
  Gated loosely: serving must stay interactive, the gate only
  catches collapse.
* ``fanout`` — one request streamed to 8 concurrent subscribers;
  every subscriber must reach the terminal event.
* ``scenarios`` — per family, a grown-samples warm-cache rerun
  (2 → 4 samples over a shared cache) demonstrating suffix-only
  re-execution: exactly the new suffix samples run, zero prefix jobs.
"""

from __future__ import annotations

import asyncio
import json

from repro.engine import ExperimentEngine, ResultCache
from repro.engine import registry
from repro.eval import reporting  # noqa: F401  (attaches formatters)
from repro.load import (
    LoadRequest,
    ServeTransport,
    VirtualTransport,
    poisson_trace,
    run_closed_loop,
    run_open_loop,
)
from repro.serve import AsyncExperimentEngine
from repro.serve.server import ServeApp

FAMILIES = ("mtconv", "stream", "tenantmix")
SUBSCRIBERS = 8
WALL_REQUESTS = 6
WALL_CONCURRENCY = 3
MAX_P50_MS = 30_000.0
MAX_P99_MS = 90_000.0


def _virtual_arm() -> dict:
    trace = poisson_trace(rate=50.0, duration_s=2.0, seed=11,
                          burst_size=4)
    first, second = (
        run_open_loop(trace, VirtualTransport(seed=11),
                      virtual=True).summary()
        for _ in range(2)
    )
    assert first == second, "virtual replay must be deterministic"
    assert sum(first["histogram_ms"]["counts"]) == len(trace)
    return {"requests": len(trace), "summary": first}


async def _serve_app():
    app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
    await app.engine.warm_up()
    server = await asyncio.start_server(
        app.handle_client, "127.0.0.1", 0
    )
    return app, server, server.sockets[0].getsockname()[1]


def _against_live_server(drive):
    """Run ``drive(base_url)`` in a worker thread while an in-process
    ServeApp serves on the loop thread; return drive's result."""

    async def scenario():
        app, server, port = await _serve_app()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, drive, f"http://127.0.0.1:{port}"
            )
        finally:
            server.close()
            await server.wait_closed()
            await app.shutdown()

    return asyncio.run(scenario())


def _wall_arm() -> dict:
    template = LoadRequest(experiments=("fig13",), samples=1)

    def drive(base_url):
        return run_closed_loop(
            [template], concurrency=WALL_CONCURRENCY,
            transport=ServeTransport(base_url), max_requests=WALL_REQUESTS,
            virtual=False,
        )

    summary = _against_live_server(drive).summary()
    assert summary["failed"] == 0, summary["errors"]
    assert summary["requests"] == WALL_REQUESTS
    assert summary["concurrency"]["peak"] <= WALL_CONCURRENCY
    assert sum(summary["histogram_ms"]["counts"]) == WALL_REQUESTS
    return summary


def _fanout_arm() -> dict:
    request = LoadRequest(experiments=("fig13",), samples=1,
                          subscribers=SUBSCRIBERS)

    def drive(base_url):
        return run_closed_loop(
            [request], concurrency=1, transport=ServeTransport(base_url),
            max_requests=1, virtual=False,
        )

    summary = _against_live_server(drive).summary()
    assert summary["failed"] == 0, summary["errors"]
    assert summary["fanout"]["subscribers"] == SUBSCRIBERS
    # Every subscriber saw at least run-started + run-done.
    assert summary["fanout"]["events"] >= 2 * SUBSCRIBERS
    return summary


def _scenario_arm() -> dict:
    out = {}
    for family in FAMILIES:
        cache = ResultCache()
        cold = ExperimentEngine(cache=cache)
        try:
            registry.run_experiments(
                ["scenario"], cold, scenario=family, num_samples=2,
                methods=("dense",),
            )
            cold_shards = cold.stats.executed_by_kind["eval"]
        finally:
            cold.close()
        warm = ExperimentEngine(cache=cache)
        try:
            registry.run_experiments(
                ["scenario"], warm, scenario=family, num_samples=4,
                methods=("dense",),
            )
            warm_shards = warm.stats.executed_by_kind["eval"]
            prefix_hits = cache.stats.hits_by_kind["eval"]
        finally:
            warm.close()
        out[family] = {
            "cold_samples": 2,
            "grown_samples": 4,
            "cold_shards_executed": cold_shards,
            "grown_shards_executed": warm_shards,
            "prefix_shards_reexecuted": warm_shards - cold_shards,
            "prefix_cache_hits": prefix_hits,
        }
    return out


def test_load_benchmark(results_dir, capsys):
    virtual = _virtual_arm()
    wall = _wall_arm()
    fanout = _fanout_arm()
    scenarios = _scenario_arm()

    payload = {
        "virtual": virtual,
        "wall": wall,
        "fanout": fanout,
        "scenarios": scenarios,
        "gate": {
            "max_latency_p50_ms": MAX_P50_MS,
            "max_latency_p99_ms": MAX_P99_MS,
            "fanout_subscribers": SUBSCRIBERS,
            "prefix_shards_reexecuted": 0,
        },
    }
    (results_dir / "BENCH_load.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    latency = wall["latency_ms"]
    with capsys.disabled():
        print(
            f"\n[load] closed loop: {wall['requests']} requests, "
            f"p50 {latency['p50']:.0f} ms, p99 {latency['p99']:.0f} ms; "
            f"fan-out {fanout['fanout']['events']} events to "
            f"{SUBSCRIBERS} subscribers; suffix-only reruns: "
            + ", ".join(
                f"{family}+{stats['grown_shards_executed']}"
                for family, stats in scenarios.items()
            )
            + "\n"
        )

    # Regression gates: interactivity, fan-out, and prefix stability.
    assert latency["p50"] <= MAX_P50_MS
    assert latency["p99"] <= MAX_P99_MS
    assert fanout["fanout"]["subscribers"] == SUBSCRIBERS
    for family, stats in scenarios.items():
        # Each family re-executes only the suffix on the grown rerun.
        assert stats["prefix_shards_reexecuted"] == 0, family
        assert stats["grown_shards_executed"] == 2, family
        assert stats["prefix_cache_hits"] == stats["cold_shards_executed"], \
            family
