"""Remote cache tier benchmark: dedup across hosts, bounded overhead.

The acceptance gates for the remote-cache/fleet PR, driven by the
Table II cell workload against a live in-process cache server
(:class:`~repro.remote.cache_server.BackgroundCacheServer`):

* **Fleet-wide dedup** — after one "host" (engine + fresh local
  cache) runs the workload cold and publishes, a *second* host with
  an empty local cache but the same ``--remote-cache`` URL executes
  **zero** jobs: every result is served from the remote tier,
  digest-verified, and the two hosts' results are bit-identical.
* **Bounded overhead** — the cold run with the remote tier attached
  (manifest prefetch + write-behind publish) must finish within
  ``1.15x`` the wall clock of the same cold run on a plain local
  disk cache: the remote tier rides along nearly for free when it
  has nothing to serve.

``benchmarks/results/BENCH_remote.json`` records the walls, the
overhead ratio, per-tier hit counts, and the second host's executed
count so future PRs have a fleet-cost trajectory.
"""

import json
import time

from repro.engine import ExperimentEngine, ResultCache
from repro.eval.eval_shards import cell_samples
from repro.eval.experiments import plan_table2
from repro.remote import protocol
from repro.remote.cache_server import BackgroundCacheServer
from repro.remote.client import RemoteCacheClient

from conftest import bench_samples

MAX_OVERHEAD_RATIO = 1.15


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


def _timed_run(engine, jobs):
    start = time.perf_counter()
    results = engine.run(list(jobs))
    return results, time.perf_counter() - start


def _canonical(results, jobs):
    # A cold run also returns the sample jobs it executed; a warm one
    # only the cells it hit.  Compare the cells.
    return protocol.encode_payload(sorted(
        (job.job_id, protocol.encode_payload(results[job]))
        for job in jobs
    ))


def test_remote_cache_dedup_and_overhead(results_dir, tmp_path):
    samples = bench_samples()
    jobs = _jobs(samples)

    # Warm the process-wide model cache so the disk-vs-remote wall
    # comparison isn't skewed by whichever arm runs first.
    warmup = ExperimentEngine(cache=ResultCache(enabled=False))
    warmup.run(jobs[:1])
    warmup.close()

    # -- baseline: cold run on a plain local disk cache ---------------
    disk_engine = ExperimentEngine(
        cache=ResultCache(cache_dir=tmp_path / "disk-only")
    )
    disk_results, disk_wall = _timed_run(disk_engine, jobs)
    assert disk_engine.stats.executed == _units(jobs)
    disk_engine.close()

    with BackgroundCacheServer(tmp_path / "store") as server:
        # -- host A: cold, remote tier attached (prefetch + publish) --
        host_a = ExperimentEngine(cache=ResultCache(
            cache_dir=tmp_path / "host-a",
            remote=RemoteCacheClient(server.url),
        ))
        results_a, remote_cold_wall = _timed_run(host_a, jobs)
        assert host_a.stats.executed == _units(jobs)
        host_a.close()  # drains the write-behind publish queue
        stats_a = host_a.cache.stats.as_dict()
        # Every executed sample, and every cell folded from them.
        assert stats_a["remote_stores"] == len(jobs) + sum(
            len(cell_samples(job)) for job in jobs
        )

        # -- host B: empty local cache, same remote -------------------
        host_b = ExperimentEngine(cache=ResultCache(
            cache_dir=tmp_path / "host-b",
            remote=RemoteCacheClient(server.url),
        ))
        results_b, warm_wall = _timed_run(host_b, jobs)
        stats_b = host_b.cache.stats.as_dict()
        host_b.close()

    # Gate 1: the warm second host executes nothing and matches bit
    # for bit.
    assert host_b.stats.executed == 0, (
        f"second host re-executed {host_b.stats.executed} jobs "
        f"despite a warm remote cache"
    )
    assert stats_b["remote_hits"] == len(jobs)
    assert stats_b["remote_verify_failures"] == 0
    assert _canonical(results_b, jobs) == _canonical(results_a, jobs)
    assert _canonical(results_b, jobs) == _canonical(disk_results, jobs)

    # Gate 2: the remote tier's cold-run overhead is bounded.
    overhead = remote_cold_wall / disk_wall
    assert overhead <= MAX_OVERHEAD_RATIO, (
        f"remote-tier cold run took {overhead:.2f}x the local-disk "
        f"wall (gate {MAX_OVERHEAD_RATIO}x)"
    )

    payload = {
        "samples": samples,
        "jobs": len(jobs),
        "disk_cold_wall_s": round(disk_wall, 4),
        "remote_cold_wall_s": round(remote_cold_wall, 4),
        "remote_overhead_ratio": round(overhead, 4),
        "overhead_gate": MAX_OVERHEAD_RATIO,
        "remote_warm_wall_s": round(warm_wall, 4),
        "second_host": {
            "executed": host_b.stats.executed,
            "remote_hits": stats_b["remote_hits"],
            "verify_failures": stats_b["remote_verify_failures"],
        },
        "publisher": {
            "remote_stores": stats_a["remote_stores"],
            "remote_errors": stats_a["remote_errors"],
        },
    }
    (results_dir / "BENCH_remote.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
