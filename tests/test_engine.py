"""Tests for the experiment engine: jobs, cache, scheduler, registry.

The heavier scenarios pin the PR's acceptance criteria:

* running ``table2`` + ``fig9`` together dedupes their shared
  evaluations (verified via cache-hit / executed counters);
* a warm-cache re-run of any experiment performs zero new
  ``evaluate()`` calls;
* ``workers=4`` output is bit-identical to ``workers=1`` output, which
  matches a direct (pre-refactor style) serial ``evaluate`` loop.
"""

import dataclasses
import pickle

import pytest

from repro.config import DEFAULT_CONFIG
from repro.engine import (
    MISS,
    CacheStats,
    EngineStats,
    EvalJob,
    ExperimentEngine,
    ResultCache,
    config_digest,
    derive_seed,
    execute_job,
)
from repro.engine.registry import (
    EXPERIMENT_REGISTRY,
    experiment_names,
    get_spec,
    run_plan,
)
from repro.eval.experiments import plan_fig2b, plan_fig9, plan_table2
from repro.eval.runner import evaluate


def _job(**overrides) -> EvalJob:
    defaults = dict(model="llava-video", dataset="videomme",
                    method="dense", num_samples=1, seed=0)
    defaults.update(overrides)
    return EvalJob(**defaults)


class TestEvalJob:
    def test_equal_keys_equal_jobs(self):
        assert _job() == _job()
        assert hash(_job()) == hash(_job())

    def test_key_distinguishes_every_field(self):
        base = _job()
        assert base != _job(method="focus")
        assert base != _job(num_samples=2)
        assert base != _job(seed=1)
        assert base != _job(quantized=True)
        assert base != _job(config=DEFAULT_CONFIG.with_overrides(
            vector_size=16
        ))

    def test_config_digest_stable_and_sensitive(self):
        assert config_digest(DEFAULT_CONFIG) == config_digest(
            DEFAULT_CONFIG.with_overrides()
        )
        assert config_digest(DEFAULT_CONFIG) != config_digest(
            DEFAULT_CONFIG.with_overrides(m_tile=64)
        )

    def test_job_id_is_content_address(self):
        assert _job().job_id == _job().job_id
        assert _job().job_id != _job(seed=3).job_id

    def test_jobs_pickle(self):
        job = _job(config=DEFAULT_CONFIG.with_overrides(vector_size=8))
        assert pickle.loads(pickle.dumps(job)) == job


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_decorrelated_by_label_and_seed(self):
        seeds = {derive_seed(s, label) for s in range(4)
                 for label in ("x", "y")}
        assert len(seeds) == 8


class TestResultCache:
    def test_memory_roundtrip(self):
        cache = ResultCache()
        job = _job()
        assert cache.get(job) is MISS
        cache.put(job, {"payload": 1})
        assert cache.get(job) == {"payload": 1}
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_disk_persists_across_instances(self, tmp_path):
        job = _job()
        first = ResultCache(cache_dir=tmp_path)
        first.put(job, [1, 2, 3])
        second = ResultCache(cache_dir=tmp_path)
        assert second.get(job) == [1, 2, 3]
        assert second.stats.disk_hits == 1
        # Loaded entries are promoted to the memory tier.
        assert second.get(job) == [1, 2, 3]
        assert second.stats.memory_hits == 1

    def test_disabled_cache_never_hits(self):
        cache = ResultCache(enabled=False)
        job = _job()
        cache.put(job, "x")
        assert cache.get(job) is MISS
        assert len(cache) == 0

    def test_corrupt_disk_entry_recomputed(self, tmp_path):
        job = _job()
        cache = ResultCache(cache_dir=tmp_path)
        cache.put(job, "ok")
        path = tmp_path / f"{job.job_id}.pkl"
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(cache_dir=tmp_path)
        assert fresh.get(job) is MISS
        assert not path.exists()

    def test_hit_rate(self):
        cache = ResultCache()
        job = _job()
        cache.get(job)
        cache.put(job, 1)
        cache.get(job)
        assert cache.stats.hit_rate == pytest.approx(0.5)


class TestStatsCounters:
    """``as_dict``/``snapshot``/``delta`` cover every counter field."""

    @staticmethod
    def _dict_fields(cls) -> set[str]:
        blank = cls()
        return {f.name for f in dataclasses.fields(cls)
                if isinstance(getattr(blank, f.name), dict)}

    def _distinct(self, cls, base: int):
        values = {}
        for offset, f in enumerate(dataclasses.fields(cls)):
            value = base + 10 * offset
            if f.name in self._dict_fields(cls):
                values[f.name] = {"eval": value, "fig2b": value + 1}
            else:
                values[f.name] = value
        return cls(**values)

    @pytest.mark.parametrize("cls", [EngineStats, CacheStats])
    def test_snapshot_detached_and_delta_subtracts_every_field(self, cls):
        dict_fields = self._dict_fields(cls)
        assert dict_fields  # both classes count something per kind
        stats = self._distinct(cls, base=1000)
        snap = stats.snapshot()
        assert snap == stats and snap is not stats
        for name in dict_fields:
            assert getattr(snap, name) is not getattr(stats, name)
            getattr(stats, name)["eval"] += 1  # mutate the live counters
        assert snap == self._distinct(cls, base=1000)  # snap is detached

        earlier = self._distinct(cls, base=1)
        for name in dict_fields:
            # an unchanged key drops out of the delta
            getattr(earlier, name)["fig2b"] = getattr(stats, name)["fig2b"]
        delta = stats.delta(earlier)
        for f in dataclasses.fields(cls):
            if f.name in dict_fields:
                assert getattr(delta, f.name) == {"eval": 1000}
            else:
                assert getattr(delta, f.name) == 999

    def test_as_dict_lists_every_field(self):
        engine = self._distinct(EngineStats, base=5)
        assert engine.as_dict() == dataclasses.asdict(engine)
        cache = self._distinct(CacheStats, base=5)
        assert cache.as_dict() == {
            **dataclasses.asdict(cache), "hit_rate": cache.hit_rate
        }
        assert cache.as_dict()["hits_by_kind"] is not cache.hits_by_kind


class TestDiskCacheLru:
    """Size-capped LRU pruning of the disk tier, keyed on last_used."""

    def _fill(self, tmp_path, jobs, payload_bytes=2000):
        """Write entries uncapped with deterministic last_used stamps."""
        import os
        import time

        writer = ResultCache(cache_dir=tmp_path)
        base = time.time() - 1000
        for index, job in enumerate(jobs):
            writer.put(job, b"x" * payload_bytes)
            # Deterministic last_used ordering: job i used at base + i.
            os.utime(
                writer.disk.path(job.job_id), (base + index, base + index)
            )
        return writer

    def test_put_prunes_oldest_entries(self, tmp_path):
        jobs = [_job(seed=s) for s in range(4)]
        self._fill(tmp_path, jobs)
        cache = ResultCache(cache_dir=tmp_path, max_disk_bytes=5000)
        new_job = _job(seed=99)
        cache.put(new_job, b"x" * 2000)
        # ~2KB each under a 5KB cap: only the most recent two survive.
        assert cache.disk.path(new_job.job_id).exists()
        assert cache.disk.path(jobs[0].job_id).exists() is False
        assert cache.disk.path(jobs[1].job_id).exists() is False
        assert cache.stats.disk_evictions >= 2
        assert cache.disk.usage() <= 5000

    def test_disk_hit_refreshes_last_used(self, tmp_path):
        jobs = [_job(seed=s) for s in range(3)]
        self._fill(tmp_path, jobs)
        # Touch the oldest entry through a fresh instance (disk hit).
        fresh = ResultCache(cache_dir=tmp_path, max_disk_bytes=7000)
        assert fresh.get(jobs[0]) is not MISS
        fresh.put(_job(seed=99), b"x" * 2000)
        # jobs[0] was just used, so jobs[1] is now the LRU victim.
        assert fresh.disk.path(jobs[0].job_id).exists()
        assert fresh.disk.path(jobs[1].job_id).exists() is False

    def test_memory_tier_survives_disk_eviction(self, tmp_path):
        jobs = [_job(seed=s) for s in range(3)]
        cache = self._fill(tmp_path, jobs)
        cache.disk.max_bytes = 2500
        assert cache.disk.prune() >= 1
        assert cache.disk.path(jobs[0].job_id).exists() is False
        # Evicted from disk, but this session already paid for them.
        assert cache.get(jobs[0]) is not MISS
        assert cache.stats.memory_hits == 1

    def test_concurrent_prune_mid_hit_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # A sibling process sharing the directory can prune an entry
        # between the disk read and the last_used touch.  The lookup
        # must honor the eviction — count a miss and recompute — not
        # resurrect a deliberately dropped entry as a hit.
        import os

        job = _job()
        ResultCache(cache_dir=tmp_path).put(job, "payload")
        cache = ResultCache(cache_dir=tmp_path)
        cache.disk.usage()  # materialize the running byte total
        real_utime = os.utime

        def racing_utime(path, *args, **kwargs):
            os.unlink(path)  # the concurrent pruner wins the race
            return real_utime(path, *args, **kwargs)

        monkeypatch.setattr("os.utime", racing_utime)
        assert cache.get(job) is MISS
        assert cache.stats.misses == 1
        assert cache.stats.misses_by_kind == {job.kind: 1}
        assert cache.stats.disk_hits == 0
        # The vanished entry was not promoted to the memory tier.
        assert len(cache) == 0
        monkeypatch.undo()
        # The cache stays fully usable after the race ...
        cache.put(job, "payload")
        assert cache.get(job) == "payload"
        # ... and the byte total was invalidated, not left stale.
        assert cache.disk.usage() == cache.disk.head(job.job_id)

    def test_uncapped_cache_never_prunes(self, tmp_path):
        jobs = [_job(seed=s) for s in range(4)]
        cache = self._fill(tmp_path, jobs)
        assert cache.disk.prune() == 0
        assert all(cache.disk.path(j.job_id).exists() for j in jobs)

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_disk_bytes"):
            ResultCache(cache_dir=tmp_path, max_disk_bytes=-1)


@pytest.mark.slow
class TestEngineScheduling:
    def test_duplicates_executed_once(self):
        engine = ExperimentEngine()
        results = engine.run([_job(), _job(), _job()])
        assert engine.stats.jobs_submitted == 3
        assert engine.stats.jobs_unique == 1
        assert engine.stats.jobs_deduped == 2
        assert engine.stats.executed == 1
        assert results[_job()].accuracy >= 0.0

    @pytest.mark.slow
    def test_worker_pool_persists_across_batches(self):
        with ExperimentEngine(workers=2) as engine:
            first = engine.run([_job(), _job(method="focus")])
            pool = engine._pool
            assert pool is not None
            engine.run([_job(seed=1), _job(method="focus", seed=1)])
            assert engine._pool is pool  # reused, not respawned
        assert engine._pool is None  # context exit released the workers
        # A closed engine lazily recreates the pool on next use.
        again = engine.run([_job(), _job(method="focus"), _job(seed=2),
                            _job(method="focus", seed=2)])
        assert engine._pool is not None
        engine.close()
        assert again[_job()] == first[_job()]

    def test_warm_cache_rerun_zero_evaluations(self):
        engine = ExperimentEngine()
        plan = plan_table2(models=("llava-video",),
                           datasets=("videomme",),
                           methods=("dense", "focus"), num_samples=1)
        cold = run_plan(plan, engine)
        executed_cold = engine.stats.executed
        warm = run_plan(plan, engine)
        assert engine.stats.executed == executed_cold
        assert engine.cache.stats.hits >= len(plan.jobs)
        assert warm.cells == cold.cells

    def test_cross_experiment_dedupe_table2_fig9(self):
        engine = ExperimentEngine()
        t2 = plan_table2(models=("llava-video",), datasets=("videomme",),
                         num_samples=1)
        f9 = plan_fig9(models=("llava-video",), datasets=("videomme",),
                       num_samples=1)
        # Table II's five methods are exactly Fig. 9's five methods, and
        # Fig. 9's power-breakdown job duplicates its own focus cell.
        results = engine.run(list(t2.jobs) + list(f9.jobs))
        assert engine.stats.jobs_submitted == 11
        assert engine.stats.jobs_unique == 5
        assert engine.stats.executed == 5
        table2 = t2.assemble(results)
        fig9 = f9.assemble(results)
        assert len(table2.cells) == 5
        assert fig9.geomean_speedup["focus"] > 1.0

    def test_progress_events_stream(self):
        events = []
        engine = ExperimentEngine(progress=events.append)
        engine.run([_job(), _job(method="focus")])
        actions = [e.action for e in events]
        assert actions.count("completed") == 2
        assert events[-1].completed == 2
        assert events[-1].total == 2
        engine.run([_job()])
        assert events[-1].action == "cache-hit"

    def test_failed_batch_quiesces_and_pool_recovers(self):
        engine = ExperimentEngine(workers=2)
        bad = [_job(seed=s, kind="nope") for s in range(3)]
        with pytest.raises(KeyError, match="job kind"):
            engine.run(bad)
        # The persistent pool is quiesced, not poisoned: the next batch
        # runs normally and close() returns promptly.
        results = engine.run([_job(), _job(method="focus")])
        assert len(results) == 2
        engine.close()

    def test_disk_cache_warm_start_across_engines(self, tmp_path):
        job = _job()
        first = ExperimentEngine(cache=ResultCache(cache_dir=tmp_path))
        cold = first.run([job])[job]
        second = ExperimentEngine(cache=ResultCache(cache_dir=tmp_path))
        warm = second.run([job])[job]
        assert second.stats.executed == 0
        assert second.cache.stats.disk_hits == 1
        assert warm.correct == cold.correct
        assert warm.sparsities == cold.sparsities


@pytest.mark.slow
class TestParallelParity:
    """--workers N must be bit-identical to serial and pre-refactor runs."""

    def _plan(self):
        return plan_table2(models=("llava-video",), datasets=("videomme",),
                           methods=("dense", "cmc", "focus"), num_samples=2)

    def test_workers_bit_identical_to_serial(self):
        serial = run_plan(self._plan(), ExperimentEngine(workers=1))
        parallel = run_plan(self._plan(), ExperimentEngine(workers=4))
        assert serial.cells == parallel.cells

    def test_engine_matches_direct_evaluate(self):
        # The pre-refactor drivers looped over evaluate() directly;
        # the engine must reproduce that bit-for-bit.
        engine_result = run_plan(self._plan(), ExperimentEngine(workers=4))
        for method in ("dense", "cmc", "focus"):
            cell = evaluate("llava-video", "videomme", method, 2, 0)
            assert engine_result.cells[
                ("llava-video", "videomme", method)
            ] == (cell.accuracy, cell.sparsity)

    def test_parallel_execution_order_irrelevant(self):
        jobs = [_job(method=m, num_samples=2)
                for m in ("dense", "cmc", "adaptiv", "focus")]
        forward = ExperimentEngine(workers=2).run(jobs)
        backward = ExperimentEngine(workers=2).run(list(reversed(jobs)))
        for job in jobs:
            assert forward[job].sparsities == backward[job].sparsities


@pytest.mark.slow
class TestJobKinds:
    def test_quantized_job_runs_int8_arm(self):
        result = execute_job(_job(method="focus", quantized=True))
        assert result.method == "focus-int8"
        assert 0.0 < result.sparsity < 100.0

    def test_fig2b_kind_cached_like_any_cell(self):
        engine = ExperimentEngine()
        plan = plan_fig2b(num_samples=1, vector_sizes=(8, 32))
        first = run_plan(plan, engine)
        assert engine.stats.executed == 1
        second = run_plan(plan, engine)
        assert engine.stats.executed == 1
        assert first.fraction_above == second.fraction_above
        assert first.fraction_above[8] > first.fraction_above[32]

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="job kind"):
            execute_job(_job(kind="nope"))

    def test_eval_payload_pickles(self):
        payload = execute_job(_job())
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.accuracy == payload.accuracy


class TestRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "table2", "table3", "table4", "table5",
            "fig2b", "fig2c", "fig9", "fig10a", "fig10b", "fig10c",
            "fig10d", "fig11", "fig12", "fig13", "scenario",
        }
        assert expected == set(experiment_names())

    def test_formatters_attached_by_reporting(self):
        import repro.eval.reporting  # noqa: F401

        for name in experiment_names():
            assert EXPERIMENT_REGISTRY[name].formatter is not None

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_spec("table99")

    def test_plans_declare_jobs_and_assemble(self):
        plan = plan_table2(models=("llava-video",),
                           datasets=("videomme",), num_samples=1)
        assert len(plan.jobs) == len(set(plan.jobs)) == 5
        assert callable(plan.assemble)
