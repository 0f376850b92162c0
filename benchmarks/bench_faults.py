"""Fault-recovery benchmark: overhead and re-execution discipline.

The acceptance gates for the fault-tolerance PR, driven by the
deterministic :class:`~repro.engine.faults.FaultPlan` harness over the
Table II cell workload:

* **Recovery overhead** — a run that suffers one worker hard-kill and
  one flaky-twice job must finish within ``1.15x`` the fault-free
  wall clock (the pool respawn and the two retries are the only extra
  work).
* **Bit-identity** — the faulted run's results must match the
  fault-free run's on every cell, field for field.
* **Zero redundant re-execution** — with part of the workload already
  cached, a faulted run executes *exactly* the uncached jobs: crash
  recovery re-dispatches only un-completed work and never invalidates
  cache entries.  A warm faulted re-run executes nothing at all.

``benchmarks/results/BENCH_faults.json`` records the walls, ratios,
and executed-job counts so future PRs have a recovery-cost trajectory.
"""

import json
import time

from repro.engine import (
    ExperimentEngine,
    ResultCache,
    RetryPolicy,
    install_fault_plan,
)
from repro.eval.eval_shards import cell_samples
from repro.eval.experiments import plan_table2

from conftest import bench_samples

WORKERS = 2
MAX_OVERHEAD_RATIO = 1.15

# One worker hard-kill on the first attempt of the cmc cell's sample
# 0, plus a flaky-twice framefusion sample 0: together they exercise
# pool respawn, cohort re-dispatch, and the retry/backoff path in a
# single run.  Cells execute per sample, and sample i > 0 labels as
# ``...:s0:start=i``, so ``*:s0`` picks sample 0 alone.
FAULT_SPEC = "eval:cmc:*:s0@1:kill; eval:framefusion:*:s0@2:raise"

RETRY_POLICY = RetryPolicy(max_attempts=3, backoff_s=0.0, jitter=0.0)


def _jobs(samples):
    plan = plan_table2(
        models=("llava-video",), datasets=("videomme",),
        num_samples=samples,
    )
    return sorted(set(plan.jobs), key=lambda job: job.job_id)


def _units(jobs):
    """Jobs the engine executes for ``jobs`` on a cold cache: one per
    sample of a multi-sample cell, else one per job."""
    return sum(len(cell_samples(job)) or 1 for job in jobs)


def _engine(cache_dir=None):
    return ExperimentEngine(
        workers=WORKERS,
        cache=ResultCache(cache_dir=cache_dir),
        retry_policy=RETRY_POLICY,
    )


def _timed_run(engine, jobs):
    start = time.perf_counter()
    results = engine.run(jobs)
    return results, time.perf_counter() - start


def test_fault_recovery_overhead_and_reexecution(results_dir, tmp_path):
    samples = bench_samples()
    jobs = _jobs(samples)
    assert len(jobs) >= 4  # kill + flaky targets plus innocents

    # -- fault-free baseline (cold, no disk cache) --------------------
    install_fault_plan(None)
    baseline_engine = _engine()
    baseline, fault_free_wall = _timed_run(baseline_engine, jobs)
    assert baseline_engine.stats.executed == _units(jobs)

    # -- faulted run: one worker kill + one flaky-twice job -----------
    install_fault_plan(FAULT_SPEC)
    try:
        faulted_engine = _engine()
        faulted, faulted_wall = _timed_run(faulted_engine, jobs)
    finally:
        install_fault_plan(None)
    assert faulted_engine.stats.pool_crashes >= 1
    assert faulted_engine.stats.retries >= 2  # the flaky job's two raises

    # bit-identity: recovery re-derives every seed, so the faulted run
    # matches the fault-free one field for field on every cell
    for job in jobs:
        assert faulted[job].accuracy == baseline[job].accuracy, job
        assert faulted[job].correct == baseline[job].correct, job
        assert faulted[job].sparsities == baseline[job].sparsities, job

    overhead_ratio = faulted_wall / max(fault_free_wall, 1e-9)
    assert overhead_ratio <= MAX_OVERHEAD_RATIO, (
        f"fault recovery cost {overhead_ratio:.3f}x fault-free wall "
        f"({faulted_wall:.2f}s vs {fault_free_wall:.2f}s), "
        f"budget {MAX_OVERHEAD_RATIO}x"
    )

    # -- zero redundant re-execution over a warm cache ----------------
    # Pre-populate the disk cache with the jobs the fault plan never
    # touches, then let the faulted run loose on the full workload: it
    # must execute exactly the uncached jobs, never the cached ones.
    cache_dir = tmp_path / "cache"
    untouched = [
        job for job in jobs if job.method not in ("cmc", "framefusion")
    ]
    seed_engine = _engine(cache_dir)
    seed_engine.run(untouched)
    assert seed_engine.stats.executed == _units(untouched)

    install_fault_plan(FAULT_SPEC)
    try:
        partial_engine = _engine(cache_dir)
        partial_results, _ = _timed_run(partial_engine, jobs)
    finally:
        install_fault_plan(None)
    expected_fresh = _units(jobs) - _units(untouched)
    redundant = partial_engine.stats.executed - expected_fresh
    assert redundant == 0, (
        f"faulted run re-executed {redundant} already-cached job(s)"
    )
    assert partial_engine.cache.stats.hits >= len(untouched)
    for job in jobs:
        assert partial_results[job].accuracy == baseline[job].accuracy

    # a fully warm faulted re-run executes nothing: cache hits win
    # before any fault can fire
    install_fault_plan(FAULT_SPEC)
    try:
        warm_engine = _engine(cache_dir)
        _, warm_wall = _timed_run(warm_engine, jobs)
    finally:
        install_fault_plan(None)
    assert warm_engine.stats.executed == 0

    payload = {
        "samples": samples,
        "jobs": len(jobs),
        "workers": WORKERS,
        "fault_spec": FAULT_SPEC,
        "fault_free_wall_s": round(fault_free_wall, 4),
        "faulted_wall_s": round(faulted_wall, 4),
        "overhead_ratio": round(overhead_ratio, 4),
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "pool_crashes": faulted_engine.stats.pool_crashes,
        "retries": faulted_engine.stats.retries,
        "precached_jobs": len(untouched),
        "fresh_jobs_executed": partial_engine.stats.executed,
        "redundant_reexecutions": redundant,
        "warm_faulted_wall_s": round(warm_wall, 4),
        "warm_faulted_executed": warm_engine.stats.executed,
    }
    (results_dir / "BENCH_faults.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
