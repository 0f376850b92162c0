"""Per-sample evaluation over a video grid.

For a grid of (model, method) cells — dense baseline, focus, and an
INT8 focus arm — every cell the engine folds from per-sample ``eval``
jobs on 4 workers must be *bit-identical* to the whole cell evaluated
in one call, and growing ``--samples`` must execute only the new
samples with the prefix served from the sample cache.  The run doubles as the
telemetry emitter: ``benchmarks/results/BENCH_eval.json`` records
wall-clock for the whole-cell, per-sample cold, and grown (prefix-reuse)
sweeps, the shard count, the cache hit rate, and the prefix-reuse hit
rate, giving future PRs a perf trajectory for the evaluation phase
like BENCH_sim.json provides for simulation.

The batched-forward arm (``test_batched_forward_throughput``) rides
on the same file: serial vs ``--forward-batch 8`` wall-clock on the
large zoo config, the measured speedup against its no-regression
gate, and the shape-bucket statistics of the batched sweep.
"""

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.engine import EvalJob, ExperimentEngine
from repro.engine.jobs import execute_job
from repro.eval.runner import ModelCache, bucket_samples, evaluate_samples
from repro.model.zoo import VIDEO_MODELS
from repro.workloads.datasets import make_dataset_span

from conftest import bench_samples

DATASET = "videomme"
GRID_METHODS = ("dense", "focus")
SHARD_WORKERS = 4

LARGE_CONFIG = ("qwen25-vl", "videomme")
FORWARD_BATCH = 8
BATCH_BENCH_SAMPLES = 16
"""Fixed, not ``REPRO_BENCH_SAMPLES``: the batched arm needs enough
samples to fill ``FORWARD_BATCH``-wide stacks twice over."""
BATCH_ROUNDS = 3
BATCHED_SPEEDUP_GATE = 0.9
"""Batching must not regress the serial loop beyond timer noise.

Stacking pays off per method, not per host.  On a 2-vCPU host
(OpenBLAS, 8 ragged samples in one process, 4 alternating runs per
side) focus ran about 25% faster in stacks of 8 than one lane at a
time (0.41-0.63 s against 0.54-0.77 s): batch plans amortize wavefront
schedules and skip per-sample block copies.  Dense, with stacking
forced on, ran about 25% slower (0.90-1.18 s against 0.73-0.87 s),
which is why it runs one lane at a time.  This arm times focus; its
gain spreads as widely as the host's speed, so the gate only guards
against a regression: a >=1.0 wall-clock gate between two arms this
close flaps on shared runners.  The recorded ``speedup`` tracks the
real number per run; on hosts whose *measured* GEMM floor lifts under
stacking (:class:`BlasMeasurement`), the gate rises to
:data:`THREADED_SPEEDUP_GATE`."""

THREADED_SPEEDUP_GATE = 1.1
"""The raised gate on hosts where stacked GEMMs measurably beat
looped ones: batching must then deliver a real win, not just parity."""

PROBE_LIFT_THRESHOLD = 1.3
"""Minimum stacked-over-looped GEMM probe speedup before a host
counts as *threaded* for gating purposes — comfortably above timer
noise, comfortably below any real multi-core BLAS win."""


@dataclass(frozen=True)
class BlasMeasurement:
    """The host's measurement class for GEMM-bound benchmarks.

    ``cores`` and ``blas_threads`` describe the configured ceiling
    (CPU count clipped by the usual thread-cap environment
    variables); ``probe_speedup`` is the *measured* stacked-vs-looped
    GEMM ratio on a small fixed workload.  ``threaded`` — and with it
    the raised batched-forward gate — requires both: a multi-thread
    configuration *and* a probe that actually lifted, so a container
    with inflated ``os.cpu_count()`` but a pinned single-core quota
    still gets the single-core guard.
    """

    cores: int
    blas_threads: int
    probe_speedup: float
    threaded: bool

    @property
    def speedup_gate(self) -> float:
        return THREADED_SPEEDUP_GATE if self.threaded \
            else BATCHED_SPEEDUP_GATE

    @classmethod
    def detect(cls) -> "BlasMeasurement":
        cores = os.cpu_count() or 1
        blas_threads = cores
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
            value = os.environ.get(var, "")
            if value.isdigit() and int(value) >= 1:
                blas_threads = min(blas_threads, int(value))
        probe = cls._probe_stacking_lift()
        threaded = (
            blas_threads > 1 and probe >= PROBE_LIFT_THRESHOLD
        )
        return cls(
            cores=cores, blas_threads=blas_threads,
            probe_speedup=round(probe, 3), threaded=threaded,
        )

    @staticmethod
    def _probe_stacking_lift(
        batch: int = 16, dim: int = 96, rounds: int = 3
    ) -> float:
        """Best-of stacked-vs-looped GEMM wall ratio (>1 = lift)."""
        rng = np.random.default_rng(0)
        lhs = rng.standard_normal((batch, dim, dim))
        rhs = rng.standard_normal((dim, dim))
        stacked_lhs = lhs.reshape(batch * dim, dim)
        looped = stacked = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for index in range(batch):
                lhs[index] @ rhs
            looped = min(looped, time.perf_counter() - start)
            start = time.perf_counter()
            stacked_lhs @ rhs
            stacked = min(stacked, time.perf_counter() - start)
        return looped / max(stacked, 1e-9)


def _grid_jobs(samples):
    """Whole-cell jobs: the video models x methods grid plus an INT8 arm."""
    jobs = {
        (model, method, False): EvalJob(
            model=model, dataset=DATASET, method=method,
            num_samples=samples, seed=0,
        )
        for model in VIDEO_MODELS
        for method in GRID_METHODS
    }
    jobs[("llava-video", "focus", True)] = EvalJob(
        model="llava-video", dataset=DATASET, method="focus",
        num_samples=samples, seed=0, quantized=True,
    )
    return jobs


def test_eval_sharding_parity_and_telemetry(benchmark, results_dir):
    samples = max(2, bench_samples() // 2)
    jobs = _grid_jobs(samples)

    # The oracle: every cell evaluated whole, in-process.
    serial_start = time.perf_counter()
    serial = {job: execute_job(job) for job in jobs.values()}
    serial_wall = time.perf_counter() - serial_start

    sharded_engine = ExperimentEngine(workers=SHARD_WORKERS)

    def sharded_sweep():
        return sharded_engine.run(list(jobs.values()))

    cold_start = time.perf_counter()
    sharded = benchmark.pedantic(sharded_sweep, rounds=1, iterations=1)
    cold_wall = time.perf_counter() - cold_start

    # The engine's guarantee: folded == whole, bit for bit, on every
    # cell of the grid (focus, dense baseline, and the INT8 arm).
    for key, job in jobs.items():
        assert sharded[job] == serial[job], key
    shards_executed = sharded_engine.stats.executed_by_kind.get("eval", 0)
    assert shards_executed == len(jobs) * samples

    # Prefix reuse: doubling every cell's sample count on the same
    # cache executes only the new samples.
    grown_jobs = _grid_jobs(samples * 2)
    cache = sharded_engine.cache
    hits_before = cache.stats.hits_by_kind.get("eval", 0)
    grown_engine = ExperimentEngine(workers=SHARD_WORKERS, cache=cache)
    grown_start = time.perf_counter()
    grown = grown_engine.run(list(grown_jobs.values()))
    grown_wall = time.perf_counter() - grown_start

    suffix_executed = grown_engine.stats.executed_by_kind.get("eval", 0)
    prefix_hits = cache.stats.hits_by_kind.get("eval", 0) - hits_before
    assert suffix_executed == len(jobs) * samples
    assert prefix_hits == len(jobs) * samples
    for key, job in jobs.items():
        cell = grown[grown_jobs[key]]
        assert cell.correct[:samples] == serial[job].correct, key
        assert cell.sparsities[:samples] == serial[job].sparsities, key

    prefix_lookups = prefix_hits + suffix_executed
    hit_rate = cache.stats.hit_rate
    benchmark.extra_info["grid_cells"] = len(jobs)
    benchmark.extra_info["shards_executed"] = shards_executed
    benchmark.extra_info["cache_hit_rate"] = hit_rate

    payload = {
        "samples": samples,
        "grid_cells": len(jobs),
        "workers": SHARD_WORKERS,
        "serial_wall_s": round(serial_wall, 4),
        "sharded_cold_wall_s": round(cold_wall, 4),
        "grown_wall_s": round(grown_wall, 4),
        "shards_executed": shards_executed,
        "cache_hit_rate": round(hit_rate, 4),
        "cache": cache.stats.as_dict(),
        "prefix_reuse": {
            "grown_samples": samples * 2,
            "suffix_shards_executed": suffix_executed,
            "prefix_span_hits": prefix_hits,
            "hit_rate": round(prefix_hits / prefix_lookups, 4),
        },
    }
    (results_dir / "BENCH_eval.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    sharded_engine.close()
    grown_engine.close()


def test_batched_forward_throughput(benchmark, results_dir):
    """The batched-forward acceptance arm: one wavefront pass per
    stack of samples must be bit-identical to the serial loop and at
    least the measurement class's gate (:data:`BATCHED_SPEEDUP_GATE`,
    or :data:`THREADED_SPEEDUP_GATE` on hosts whose GEMM floor
    measurably lifts under stacking) x its cell throughput on the
    large zoo config."""
    measurement = BlasMeasurement.detect()
    model_name, dataset = LARGE_CONFIG
    model = ModelCache.get(model_name)
    samples = make_dataset_span(
        dataset, model.config.layout, 0, BATCH_BENCH_SAMPLES, seed=0
    )
    buckets = bucket_samples(samples)

    def cell(forward_batch):
        return evaluate_samples(
            model, samples, "focus",
            model_name=model_name, dataset_name=dataset,
            forward_batch=forward_batch,
        )

    def best_of(forward_batch):
        wall, result = float("inf"), None
        for _ in range(BATCH_ROUNDS):
            start = time.perf_counter()
            result = cell(forward_batch)
            wall = min(wall, time.perf_counter() - start)
        return wall, result

    serial_wall, serial_result = best_of(1)
    benchmark.pedantic(
        lambda: cell(FORWARD_BATCH), rounds=1, iterations=1
    )
    batched_wall, batched_result = best_of(FORWARD_BATCH)

    # The tentpole guarantee: stacking changes wall-clock only.
    assert batched_result == serial_result

    speedup = serial_wall / batched_wall
    gate = measurement.speedup_gate
    assert speedup >= gate, (
        f"batched forward {speedup:.2f}x on {LARGE_CONFIG} fell below "
        f"the {gate}x gate ({'threaded' if measurement.threaded else 'single-core'} "
        f"measurement class: {measurement.blas_threads} BLAS threads, "
        f"probe lift {measurement.probe_speedup}x)"
    )
    benchmark.extra_info["batched_speedup"] = round(speedup, 3)

    results_path = results_dir / "BENCH_eval.json"
    payload = (
        json.loads(results_path.read_text())
        if results_path.exists() else {}
    )
    payload["batched_forward"] = {
        "model": model_name,
        "dataset": dataset,
        "method": "focus",
        "samples": BATCH_BENCH_SAMPLES,
        "batch_size": FORWARD_BATCH,
        "rounds": BATCH_ROUNDS,
        "serial_wall_s": round(serial_wall, 4),
        "batched_wall_s": round(batched_wall, 4),
        "speedup": round(speedup, 3),
        "speedup_gate": gate,
        "measurement": asdict(measurement),
        "buckets": {
            "count": len(buckets),
            "sizes": sorted(
                (len(bucket) for bucket in buckets), reverse=True
            ),
            "chunks": sum(
                -(-len(bucket) // FORWARD_BATCH) for bucket in buckets
            ),
        },
    }
    results_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
