"""Per-sample eval cells: merge semantics, parity, and prefix reuse.

The harness locks in the engine's guarantee: an ``eval`` cell folded
from per-sample jobs by :meth:`EvalResult.merge` is *bit-identical* to
the whole-cell :func:`~repro.eval.runner.evaluate` for every worker
count and forward-batch lane count.  Property tests (hypothesis,
seeded random results) pin down the merge algebra — order-invariance,
associativity, empty-list identity, accumulate-vs-merge equivalence —
while the parity matrix exercises ``workers ∈ {1, 2, 4} ×
forward_batch ∈ {1, 3, 5}`` over a focus arm, a dense baseline, and an
INT8 arm, and the cache tests pin the prefix-reuse contract: growing
``--samples`` executes only the new samples.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import GemmTrace, ModelTrace
from repro.engine import EvalJob, ExperimentEngine, ResultCache
from repro.engine.jobs import execute_job
from repro.engine.sharding import plan_shards
from repro.eval.eval_shards import (
    CellFolds,
    cell_samples,
    job_span,
    merge_samples,
    span_job,
)
from repro.eval.metrics import EvalResult
from repro.eval.runner import ModelCache, evaluate

MODEL = "llava-video"
DATASET = "vqav2"  # smallest profile: keeps the parity matrix fast

ARMS = (("focus", False), ("dense", False), ("focus", True))
"""(method, quantized): a focus variant, a baseline, and an INT8 arm."""


def make_results(count: int, seed: int = 0) -> list[EvalResult]:
    """Deterministic pseudo-random span results (merge fixtures)."""
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(count):
        result = EvalResult(model="m", dataset="d", method="x")
        for _ in range(int(rng.integers(1, 4))):
            result.correct.append(bool(rng.random() < 0.7))
            result.sparsities.append(float(rng.random()))
            trace = ModelTrace(initial_tokens=int(rng.integers(8, 64)))
            trace.add(GemmTrace(
                name="qkv", layer=0, m=int(rng.integers(4, 32)),
                k=8, n=8,
            ))
            result.traces.append(trace)
            result.dense_macs.append(int(rng.integers(1, 10_000)))
        results.append(result)
    return results


def assert_merged_close(a: EvalResult, b: EvalResult) -> None:
    """Same cell and sample multiset; float means up to reordering."""
    assert (a.model, a.dataset, a.method) == (b.model, b.dataset, b.method)
    assert a.num_samples == b.num_samples
    assert sorted(a.correct) == sorted(b.correct)
    assert sorted(a.dense_macs) == sorted(b.dense_macs)
    # Accuracy is a mean of 0/1 flags: exact under any ordering.
    assert a.accuracy == b.accuracy
    assert a.sparsity == pytest.approx(b.sparsity, rel=1e-12)


class TestMergeProperties:
    """EvalResult.merge is an associative fold with an identity."""

    @given(seed=st.integers(0, 2**16), count=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_order_invariance(self, seed, count):
        results = make_results(count, seed)
        permuted = list(reversed(results))
        assert_merged_close(
            EvalResult.merge(results), EvalResult.merge(permuted)
        )

    @given(
        seed=st.integers(0, 2**16),
        split=st.integers(1, 5),
        count=st.integers(3, 9),
    )
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed, split, count):
        results = make_results(count, seed)
        split = min(split, count - 1)
        left_first = EvalResult.merge([
            EvalResult.merge(results[:split]),
            EvalResult.merge(results[split:]),
        ])
        right_first = EvalResult.merge(
            [results[0], EvalResult.merge(results[1:])]
        )
        flat = EvalResult.merge(results)
        # Concatenation is exactly associative: full equality, not just
        # metric closeness.
        assert left_first == flat
        assert right_first == flat

    def test_empty_list_identity(self):
        identity = EvalResult.merge([], model="m", dataset="d", method="x")
        assert identity == EvalResult(model="m", dataset="d", method="x")
        results = make_results(3)
        assert EvalResult.merge([identity] + results) == EvalResult.merge(
            results
        )

    def test_empty_list_without_labels_raises(self):
        with pytest.raises(ValueError, match="model/dataset/method"):
            EvalResult.merge([])

    def test_merge_rejects_mixed_cells(self):
        a = make_results(1)[0]
        b = make_results(1, seed=1)[0]
        b.method = "other"
        with pytest.raises(ValueError, match="cells"):
            EvalResult.merge([a, b])

    @given(seed=st.integers(0, 2**16), count=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_accumulate_vs_merge_equivalence(self, seed, count):
        results = make_results(count, seed)
        accumulated = EvalResult.merge(results[:1])
        for result in results[1:]:
            accumulated.accumulate(result)
        # Span-wise merge in span order is bit-identical to the serial
        # accumulate loop — the invariant sharding rests on.
        assert accumulated == EvalResult.merge(results)


class TestShardPlanning:
    def _job(self, **overrides) -> EvalJob:
        defaults = dict(model=MODEL, dataset=DATASET, method="focus",
                        num_samples=6, seed=0)
        defaults.update(overrides)
        return EvalJob(**defaults)

    def test_spans_cover_every_sample_once(self):
        samples = cell_samples(self._job())
        assert [job_span(s) for s in samples] == [
            (i, i + 1) for i in range(6)
        ]
        assert all(s.num_samples == 1 and s.kind == "eval"
                   for s in samples)
        # Sample 0 carries no start: it is the one-sample cell itself.
        assert samples[0] == self._job(num_samples=1)
        assert samples[1].extra == (("start", 1),)

    def test_jobs_are_content_addressed(self):
        a = cell_samples(self._job())
        b = cell_samples(self._job())
        assert a == b
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert len({j.key for j in a}) == 6  # distinct samples

    def test_key_excludes_parent_total(self):
        # A sample is the *same job* no matter how many samples its
        # cell has, so a grown cell reuses its prefix.
        small = cell_samples(self._job(num_samples=4))
        large = cell_samples(self._job(num_samples=8))
        assert list(large[:4]) == list(small)
        assert [j.job_id for j in large[:4]] == [j.job_id for j in small]

    def test_key_distinguishes_cell_fields_and_span(self):
        base = cell_samples(self._job())[0]
        for overrides in (dict(method="dense"), dict(seed=1),
                          dict(quantized=True), dict(dataset="mme")):
            other = cell_samples(self._job(**overrides))[0]
            assert base != other
        assert cell_samples(self._job())[1] != base

    def test_only_eval_jobs_shard(self):
        assert cell_samples(self._job(kind="fig2b")) == ()
        # A one-sample cell is its own sample job: nothing to split.
        assert cell_samples(self._job(num_samples=1)) == ()

    def test_chunks_cut_contiguous_runs_to_lanes(self):
        cell = self._job(num_samples=8)
        samples = cell_samples(cell)
        folds = CellFolds(lanes=2)
        folds.split(cell)
        missing = [samples[i] for i in (0, 1, 2, 4, 5, 6)]
        units = folds.chunks(cell, missing)
        assert [job_span(u) for u in units] == [
            (0, 2), (2, 3), (4, 6), (6, 7),
        ]
        assert units[0] == self._job(num_samples=2)
        assert units[1] == samples[2]
        assert units[2] == span_job(cell, 4, 2)
        # With every sample missing and enough lanes, the chunk is the
        # cell itself.
        small = self._job(num_samples=3)
        folds = CellFolds(lanes=3)
        assert folds.chunks(small, folds.split(small)) == [small]

    def test_plan_shards(self):
        assert plan_shards(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_plan_shards_covers_every_index_once(self):
        assert plan_shards(10, 3) == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_plan_shards_single_shard(self):
        assert plan_shards(4, 99) == [(0, 4)]

    def test_plan_shards_empty(self):
        assert plan_shards(0, 3) == []

    def test_plan_shards_rejects_nonpositive_shard_size(self):
        for shard_size in (0, -2):
            with pytest.raises(ValueError, match="shard_size"):
                plan_shards(5, shard_size)

    def test_merge_eval_shards_labels_int8(self):
        parent = self._job(num_samples=0, quantized=True)
        merged = merge_samples(parent, [])
        assert merged.method == "focus-int8"
        assert merged.num_samples == 0


@pytest.mark.slow
class TestShardedParity:
    """Cells folded from samples are bit-identical to whole cells."""

    SAMPLES = 5

    @pytest.fixture(scope="class")
    def serial(self):
        return {
            (method, quant): evaluate(
                MODEL, DATASET, method, self.SAMPLES, 0, quantized=quant
            )
            for method, quant in ARMS
        }

    def _jobs(self, num_samples=None):
        return {
            (method, quant): EvalJob(
                model=MODEL, dataset=DATASET, method=method,
                num_samples=num_samples or self.SAMPLES, seed=0,
                quantized=quant,
            )
            for method, quant in ARMS
        }

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("forward_batch", [1, 3, 5])
    def test_bit_identical_to_serial(self, serial, workers, forward_batch):
        # forward_batch=5 runs each cell as one chunk whose key is the
        # cell's own; its samples are still split out and cached.
        jobs = self._jobs()
        with ExperimentEngine(
            workers=workers, forward_batch=forward_batch
        ) as engine:
            results = engine.run(list(jobs.values()))
        for arm, job in jobs.items():
            assert results[job] == serial[arm], arm  # every field exact
            for i, sample in enumerate(cell_samples(job)):
                cached = engine.cache.get(sample)
                assert cached.correct == serial[arm].correct[i:i + 1]
                assert cached.traces == serial[arm].traces[i:i + 1]
        expected = len(ARMS) * len(plan_shards(self.SAMPLES, forward_batch))
        assert engine.stats.executed_by_kind["eval"] == expected

    def test_warm_rerun_serves_whole_cells(self, serial):
        engine = ExperimentEngine()
        jobs = list(self._jobs().values())
        engine.run(jobs)
        executed = engine.stats.executed
        hits = engine.stats.cache_hits
        rerun = engine.run(jobs)
        # The folded cell was stored under its own key, so the re-run
        # needs neither evaluation nor sample lookups.
        assert engine.stats.executed == executed
        assert engine.stats.cache_hits == hits + len(jobs)
        for (method, quant), job in self._jobs().items():
            assert rerun[job] == serial[(method, quant)]

    def test_prefix_reuse_on_larger_samples(self):
        cache = ResultCache()
        small = ExperimentEngine(cache=cache)
        small.run(list(self._jobs(num_samples=4).values()))
        assert small.stats.executed_by_kind["eval"] == 3 * 4

        large = ExperimentEngine(cache=cache)
        jobs = self._jobs(num_samples=8)
        results = large.run(list(jobs.values()))
        # Samples 0-3 of every arm come from the cache; only the new
        # samples 4-7 execute.
        assert large.stats.executed_by_kind["eval"] == 3 * 4
        assert cache.stats.hits_by_kind["eval"] == 3 * 4
        for (method, quant), job in jobs.items():
            assert results[job] == evaluate(
                MODEL, DATASET, method, 8, 0, quantized=quant
            ), (method, quant)

    def test_spans_dedupe_across_cells_with_different_totals(self):
        engine = ExperimentEngine()
        job4 = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                       num_samples=4, seed=0)
        job8 = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                       num_samples=8, seed=0)
        results = engine.run([job4, job8])
        # One schedule: the 4-sample cell's samples are a prefix of the
        # 8-sample cell's, so only 8 unique samples run for 12.
        assert engine.stats.executed_by_kind["eval"] == 8
        assert results[job4] == evaluate(MODEL, DATASET, "focus", 4, 0)
        assert results[job8] == evaluate(MODEL, DATASET, "focus", 8, 0)

    def test_directly_submitted_spans_dedupe_against_plans(self):
        # A sample job submitted alongside its cell (before or after
        # it) must schedule once, not once per route.
        parent = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                         num_samples=4, seed=0)
        samples = cell_samples(parent)
        events = []
        engine = ExperimentEngine(progress=events.append)
        results = engine.run([samples[1], parent, samples[3]])
        assert engine.stats.executed_by_kind["eval"] == 4
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        assert [e.detail["shards_done"] for e in shard_done] == [1, 2, 3, 4]
        assert shard_done[-1].detail["samples"] == 4
        assert results[parent] == evaluate(MODEL, DATASET, "focus", 4, 0)
        assert results[samples[1]].correct == results[parent].correct[1:2]

    def test_span_results_persist_in_disk_cache(self, tmp_path):
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=4, seed=0)
        cold = ExperimentEngine(cache=ResultCache(cache_dir=tmp_path))
        first = cold.run([job])[job]
        # A fresh process growing the cell finds the samples on disk.
        warm = ExperimentEngine(cache=ResultCache(cache_dir=tmp_path))
        grown = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                        num_samples=6, seed=0)
        result = warm.run([grown])[grown]
        assert warm.stats.executed_by_kind["eval"] == 2
        assert warm.cache.stats.disk_hits == 4
        assert result.correct[:4] == first.correct
        assert result == evaluate(MODEL, DATASET, "focus", 6, 0)

    def test_lane_chunks_cache_every_sample(self, tmp_path):
        # Samples a two-lane run executed in chunks serve a grown
        # one-lane run: each chunk was split into per-sample entries.
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=4, seed=0)
        two_lane = ExperimentEngine(
            forward_batch=2, cache=ResultCache(cache_dir=tmp_path)
        )
        two_lane.run([job])
        assert two_lane.stats.executed_by_kind["eval"] == 2  # 2 chunks
        grown = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                        num_samples=5, seed=0)
        one_lane = ExperimentEngine(cache=ResultCache(cache_dir=tmp_path))
        result = one_lane.run([grown])[grown]
        assert one_lane.stats.executed_by_kind["eval"] == 1
        assert one_lane.cache.stats.disk_hits == 4
        assert result == evaluate(MODEL, DATASET, "focus", 5, 0)

    def test_chunks_past_sample_zero_are_not_cached(self, tmp_path):
        # Cells start at sample 0, so no lookup asks for the chunk
        # [2, 4); its samples are cached one by one.  The chunk [0, 2)
        # is the two-sample cell and is cached.
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=4, seed=0)
        engine = ExperimentEngine(
            forward_batch=2, cache=ResultCache(cache_dir=tmp_path)
        )
        engine.run([job])
        expected = [job, span_job(job, 0, 2), *cell_samples(job)]
        assert sorted(p.stem for p in tmp_path.glob("*.pkl")) == sorted(
            unit.job_id for unit in expected
        )


@pytest.mark.slow
class TestEvalShardProgress:
    """Split cells stream running partial results as samples land."""

    def _run(self, workers=1, num_samples=5):
        events = []
        engine = ExperimentEngine(workers=workers, progress=events.append)
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=num_samples, seed=0)
        merged = engine.run([job])[job]
        return events, merged, engine

    def test_eval_shard_done_stream(self):
        events, merged, _ = self._run()
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        assert len(shard_done) == 5
        # Each sample completes (started/completed) *and* streams its
        # cell's running partial result.
        assert [e.action for e in events].count("completed") == 5
        done = [e.detail["shards_done"] for e in shard_done]
        assert done == [1, 2, 3, 4, 5]
        assert [e.detail["samples"] for e in shard_done] == done
        assert all(
            e.detail["shards_total"] == 5 and "focus" in e.detail["parent"]
            for e in shard_done
        )
        # Once every sample has landed the running stats *are* the cell.
        final = shard_done[-1].detail
        assert final["accuracy"] == pytest.approx(merged.accuracy)
        assert final["sparsity"] == pytest.approx(merged.sparsity)

    def test_partial_results_stream_from_pool(self):
        events, merged, _ = self._run(workers=2)
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        assert [e.detail["shards_done"] for e in shard_done] == [
            1, 2, 3, 4, 5,
        ]
        assert shard_done[-1].detail["accuracy"] == pytest.approx(
            merged.accuracy
        )

    def test_cached_spans_also_stream(self):
        cache = ResultCache()
        self._run_with_cache(cache, num_samples=2)
        events, _, engine = self._run_with_cache(cache, num_samples=3)
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        # Samples 0 and 1 stream as cache hits before the new sample
        # executes.
        assert len(shard_done) == 3
        assert [e.action for e in events] == [
            "cache-hit", "eval-shard-done",
            "cache-hit", "eval-shard-done",
            "started", "completed", "eval-shard-done",
        ]
        assert engine.stats.executed_by_kind["eval"] == 1

    def _run_with_cache(self, cache, num_samples):
        events = []
        engine = ExperimentEngine(cache=cache, progress=events.append)
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=num_samples, seed=0)
        merged = engine.run([job])[job]
        return events, merged, engine


class TestModelCacheKeying:
    """The model cache keys on (name, config digest, quantized), not
    the bare name."""

    def test_config_change_is_not_served_stale(self):
        from repro.model.zoo import MODEL_CONFIGS

        original = MODEL_CONFIGS[MODEL]
        variants = (False, True)
        before = {q: ModelCache.get(MODEL, quantized=q) for q in variants}
        try:
            MODEL_CONFIGS[MODEL] = dataclasses.replace(original, seed=999)
            for quantized in variants:
                patched = ModelCache.get(MODEL, quantized=quantized)
                assert patched is not before[quantized]
                assert patched.config.seed == 999
                assert patched.quantized is quantized
        finally:
            MODEL_CONFIGS[MODEL] = original
        # Restoring the config restores the cached instances.
        for quantized in variants:
            assert ModelCache.get(MODEL, quantized=quantized) \
                is before[quantized]

    def test_same_config_still_cached_once(self):
        fp16 = ModelCache.get(MODEL)
        int8 = ModelCache.get(MODEL, quantized=True)
        assert ModelCache.get(MODEL) is fp16
        assert ModelCache.get(MODEL, quantized=True) is int8
        assert int8 is not fp16
        assert int8.quantized and not fp16.quantized
        assert int8.config is fp16.config


@pytest.mark.slow
class TestDriverShardingParity:
    """A registered driver folds its cells transparently."""

    def test_fig2c_sharded_equals_serial(self):
        from repro.engine.registry import run_plan
        from repro.eval.experiments import plan_fig2c

        plan = plan_fig2c(num_samples=2)
        # Oracle: every cell executed whole, outside the engine.
        serial = plan.assemble({job: execute_job(job) for job in plan.jobs})
        with ExperimentEngine(workers=2) as engine:
            folded = run_plan(plan_fig2c(num_samples=2), engine)
        assert folded == serial
        assert engine.stats.executed_by_kind["eval"] == 2 * len(plan.jobs)


class TestCli:
    @pytest.mark.slow
    def test_main_streams_shard_progress(self, capsys):
        from repro.cli import main

        assert main(["fig13", "--samples", "2", "--progress"]) == 0
        assert "running acc" in capsys.readouterr().err

    @pytest.mark.slow
    def test_grown_samples_execute_only_new_samples(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["table3", "--cache-dir", str(tmp_path)]
        assert main([*argv, "--samples", "2"]) == 0
        assert " 8 executed" in capsys.readouterr().out
        assert main([*argv, "--samples", "4"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        # 4 cells x 2 cached samples hit; only the 8 new samples run.
        assert " 8 cached (8 from disk)" in summary
        assert " 8 executed" in summary
