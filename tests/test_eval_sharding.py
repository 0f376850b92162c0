"""Per-sample eval sharding: merge semantics, parity, and prefix reuse.

The harness locks in the tentpole guarantee: an ``eval`` cell split
into per-sample-span ``eval-shard`` jobs and re-folded by
:meth:`EvalResult.merge` is *bit-identical* to the serial
:func:`~repro.eval.runner.evaluate` cell for every worker count and
span size.  Property tests (hypothesis, seeded random results) pin
down the merge algebra — order-invariance, associativity, empty-list
identity, accumulate-vs-merge equivalence — while the parity matrix
exercises ``workers ∈ {1, 2, 4} × shard_size ∈ {1, 3, all}`` over a
focus arm, a dense baseline, and an INT8 arm, and the cache tests pin
the prefix-reuse contract: growing ``--samples`` executes only the new
suffix spans.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.trace import GemmTrace, ModelTrace
from repro.engine import EvalJob, ExperimentEngine, ResultCache
from repro.engine.sharding import plan_shards
from repro.eval.eval_shards import (
    EVAL_SHARD_KIND,
    merge_eval_shards,
    plan_eval_shards,
    shard_span,
)
from repro.eval.metrics import EvalResult
from repro.eval.runner import ModelCache, QuantizedModelCache, evaluate

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
        shards = plan_eval_shards(self._job(), shard_size=4)
        assert [shard_span(s) for s in shards] == [(0, 4), (4, 6)]
        assert [s.num_samples for s in shards] == [4, 2]
        assert all(s.kind == EVAL_SHARD_KIND for s in shards)

    def test_jobs_are_content_addressed(self):
        a = plan_eval_shards(self._job(), shard_size=2)
        b = plan_eval_shards(self._job(), shard_size=2)
        assert a == b
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert len({j.key for j in a}) == 3  # distinct spans

    def test_key_excludes_parent_total(self):
        # The tentpole cache property: a span is the *same job* no
        # matter how many samples its parent cell has, so a grown cell
        # reuses its prefix.
        small = plan_eval_shards(self._job(num_samples=4), shard_size=2)
        large = plan_eval_shards(self._job(num_samples=8), shard_size=2)
        assert list(large[:2]) == list(small)
        assert [j.job_id for j in large[:2]] == [j.job_id for j in small]

    def test_key_distinguishes_cell_fields_and_span(self):
        base = plan_eval_shards(self._job(), shard_size=3)[0]
        for overrides in (dict(method="dense"), dict(seed=1),
                          dict(quantized=True), dict(dataset="mme")):
            other = plan_eval_shards(
                self._job(**overrides), shard_size=3
            )[0]
            assert base != other

    def test_only_eval_jobs_shard(self):
        with pytest.raises(ValueError, match="eval"):
            plan_eval_shards(self._job(kind="fig2b"), shard_size=2)

    def test_engine_rejects_invalid_eval_shards(self):
        with pytest.raises(ValueError, match="eval_shards"):
            ExperimentEngine(eval_shards=0)
        with pytest.raises(ValueError, match="eval_shards"):
            ExperimentEngine(eval_shards=-2)

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
        merged = merge_eval_shards(parent, [])
        assert merged.method == "focus-int8"
        assert merged.num_samples == 0


@pytest.mark.slow
class TestShardedParity:
    """Sharded eval cells are bit-identical to serial, always."""

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
    @pytest.mark.parametrize("shard_size", [1, 3, 5])
    def test_bit_identical_to_serial(self, serial, workers, shard_size):
        jobs = self._jobs()
        with ExperimentEngine(
            workers=workers, eval_shards=shard_size
        ) as engine:
            results = engine.run(list(jobs.values()))
        for arm, job in jobs.items():
            assert results[job] == serial[arm], arm  # every field exact
        expected = len(ARMS) * len(plan_shards(self.SAMPLES, shard_size))
        assert engine.stats.executed_by_kind[EVAL_SHARD_KIND] == expected

    def test_warm_rerun_serves_whole_cells(self, serial):
        engine = ExperimentEngine(eval_shards=2)
        jobs = list(self._jobs().values())
        engine.run(jobs)
        executed = engine.stats.executed
        rerun = engine.run(jobs)
        # The merged cell was stored under the whole-cell key, so the
        # re-run needs neither evaluation nor re-merging.
        assert engine.stats.executed == executed
        assert engine.stats.executed_by_kind.get("eval", 0) == 0
        for (method, quant), job in self._jobs().items():
            assert rerun[job] == serial[(method, quant)]

    def test_prefix_reuse_on_larger_samples(self):
        cache = ResultCache()
        small = ExperimentEngine(eval_shards=2, cache=cache)
        small.run(list(self._jobs(num_samples=4).values()))
        assert small.stats.executed_by_kind[EVAL_SHARD_KIND] == 3 * 2

        large = ExperimentEngine(eval_shards=2, cache=cache)
        jobs = self._jobs(num_samples=8)
        results = large.run(list(jobs.values()))
        # Spans (0,2) and (2,4) of every arm come from the cache; only
        # the new suffix spans (4,6) and (6,8) execute.
        assert large.stats.executed_by_kind[EVAL_SHARD_KIND] == 3 * 2
        assert cache.stats.hits_by_kind[EVAL_SHARD_KIND] == 3 * 2
        for (method, quant), job in jobs.items():
            assert results[job] == evaluate(
                MODEL, DATASET, method, 8, 0, quantized=quant
            ), (method, quant)

    def test_spans_dedupe_across_cells_with_different_totals(self):
        engine = ExperimentEngine(eval_shards=2)
        job4 = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                       num_samples=4, seed=0)
        job8 = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                       num_samples=8, seed=0)
        results = engine.run([job4, job8])
        # One schedule: the 4-sample cell's spans are a prefix of the
        # 8-sample cell's, so only 4 unique spans run for 12 samples.
        assert engine.stats.executed_by_kind[EVAL_SHARD_KIND] == 4
        assert results[job4] == evaluate(MODEL, DATASET, "focus", 4, 0)
        assert results[job8] == evaluate(MODEL, DATASET, "focus", 8, 0)

    def test_directly_submitted_spans_dedupe_against_plans(self):
        # A span job submitted alongside its parent cell (in either
        # order) must schedule once, not once per route.
        parent = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                         num_samples=4, seed=0)
        spans = plan_eval_shards(parent, shard_size=2)
        events = []
        engine = ExperimentEngine(eval_shards=2, progress=events.append)
        results = engine.run([spans[0], parent, spans[1]])
        assert engine.stats.executed_by_kind[EVAL_SHARD_KIND] == 2
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        assert [e.detail["shards_done"] for e in shard_done] == [1, 2]
        assert shard_done[-1].detail["samples"] == 4
        assert results[parent] == evaluate(MODEL, DATASET, "focus", 4, 0)
        assert results[spans[0]].correct == results[parent].correct[:2]

    def test_span_results_persist_in_disk_cache(self, tmp_path):
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=4, seed=0)
        cold = ExperimentEngine(
            eval_shards=2, cache=ResultCache(cache_dir=tmp_path)
        )
        first = cold.run([job])[job]
        # A fresh process growing the cell finds the spans on disk.
        warm = ExperimentEngine(
            eval_shards=2, cache=ResultCache(cache_dir=tmp_path)
        )
        grown = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                        num_samples=6, seed=0)
        result = warm.run([grown])[grown]
        assert warm.stats.executed_by_kind[EVAL_SHARD_KIND] == 1
        assert warm.cache.stats.disk_hits == 2
        assert result.correct[:4] == first.correct
        assert result == evaluate(MODEL, DATASET, "focus", 6, 0)


@pytest.mark.slow
class TestEvalShardProgress:
    """Sharded cells stream running partial results as spans land."""

    def _run(self, workers=1, eval_shards=2, num_samples=5):
        events = []
        engine = ExperimentEngine(
            workers=workers, eval_shards=eval_shards,
            progress=events.append,
        )
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=num_samples, seed=0)
        merged = engine.run([job])[job]
        return events, merged, engine

    def test_eval_shard_done_stream(self):
        events, merged, _ = self._run()
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        assert len(shard_done) == 3  # ceil(5 / 2) spans
        # Each span completes (started/completed) *and* streams its
        # parent's running partial result.
        assert [e.action for e in events].count("completed") == 3
        done = [e.detail["shards_done"] for e in shard_done]
        assert done == [1, 2, 3]
        samples = [e.detail["samples"] for e in shard_done]
        assert samples[-1] == 5
        assert samples == sorted(samples)
        assert all(
            e.detail["shards_total"] == 3 and "focus" in e.detail["parent"]
            for e in shard_done
        )
        # Once every span has landed the running stats *are* the cell.
        final = shard_done[-1].detail
        assert final["accuracy"] == pytest.approx(merged.accuracy)
        assert final["sparsity"] == pytest.approx(merged.sparsity)

    def test_partial_results_stream_from_pool(self):
        events, merged, _ = self._run(workers=2)
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        assert [e.detail["shards_done"] for e in shard_done] == [1, 2, 3]
        assert shard_done[-1].detail["accuracy"] == pytest.approx(
            merged.accuracy
        )

    def test_cached_spans_also_stream(self):
        cache = ResultCache()
        self._run_with_cache(cache, num_samples=4)
        events, _, engine = self._run_with_cache(cache, num_samples=6)
        shard_done = [e for e in events if e.action == "eval-shard-done"]
        # Spans (0,2) and (2,4) stream as cache hits before the new
        # suffix span executes.
        assert len(shard_done) == 3
        assert [e.action for e in events] == [
            "cache-hit", "eval-shard-done",
            "cache-hit", "eval-shard-done",
            "started", "completed", "eval-shard-done",
        ]
        assert engine.stats.executed_by_kind[EVAL_SHARD_KIND] == 1

    def _run_with_cache(self, cache, num_samples):
        events = []
        engine = ExperimentEngine(
            eval_shards=2, cache=cache, progress=events.append
        )
        job = EvalJob(model=MODEL, dataset=DATASET, method="focus",
                      num_samples=num_samples, seed=0)
        merged = engine.run([job])[job]
        return events, merged, engine


class TestModelCacheKeying:
    """Model caches key on (name, config digest), not the bare name."""

    def test_config_change_is_not_served_stale(self):
        from repro.model.zoo import MODEL_CONFIGS

        original = MODEL_CONFIGS[MODEL]
        before = ModelCache.get(MODEL)
        try:
            MODEL_CONFIGS[MODEL] = dataclasses.replace(original, seed=999)
            patched = ModelCache.get(MODEL)
            assert patched is not before
            assert patched.config.seed == 999
            patched_quant = QuantizedModelCache.get(MODEL)
            assert patched_quant.config.seed == 999
        finally:
            MODEL_CONFIGS[MODEL] = original
        # Restoring the config restores the cached instance.
        assert ModelCache.get(MODEL) is before

    def test_same_config_still_cached_once(self):
        assert ModelCache.get(MODEL) is ModelCache.get(MODEL)
        assert QuantizedModelCache.get(MODEL) is QuantizedModelCache.get(
            MODEL
        )


@pytest.mark.slow
class TestDriverShardingParity:
    """A registered driver shards transparently through the engine."""

    def test_fig2c_sharded_equals_serial(self):
        from repro.engine.registry import run_plan
        from repro.eval.experiments import plan_fig2c

        plan = plan_fig2c(num_samples=2)
        serial = plan.assemble(ExperimentEngine(workers=1).run(plan.jobs))
        with ExperimentEngine(workers=2, eval_shards=1) as engine:
            sharded = run_plan(plan_fig2c(num_samples=2), engine)
        assert sharded == serial
        assert engine.stats.executed_by_kind[EVAL_SHARD_KIND] > 0
        assert engine.stats.executed_by_kind.get("eval", 0) == 0


class TestCli:
    def test_parses_eval_shards(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["fig13", "--eval-shards", "2"])
        assert args.eval_shards == 2
        assert build_parser().parse_args(["fig13"]).eval_shards is None

    @pytest.mark.slow
    def test_main_streams_shard_progress(self, capsys):
        from repro.cli import main

        assert main([
            "fig13", "--samples", "2", "--eval-shards", "1", "--progress",
        ]) == 0
        captured = capsys.readouterr()
        assert "running acc" in captured.err
        assert "eval shards" in captured.out
