"""Differential suite: stacks of many lanes vs one lane at a time.

A stacked forward (``forward_batch > 1`` lanes) must be
*bit-identical* to running every sample as its own one-lane pass —
same traces, same representatives, same unique/comparison counts, same
accuracy and sparsity — for every batch size, method arm, and ragged
layout mix.  These tests lock that contract in at three levels: a
hypothesis grid of random per-lane DAG tables against the matcher
oracle, whole-gather parity over layout-diverged lanes, and full
``EvalResult`` equality over mixed-dataset eval spans.  Plugins that
do not stack must be refused more than one lane.  The lane count is an
execution knob: it stays out of job keys, so a warm cache serves any
value.  The progress-stream regression that rode along is pinned here
too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.framefusion import FrameFusionPlugin
from repro.config import FocusConfig
from repro.core.adaptive import AdaptiveFocusPlugin
from repro.core.gather import SimilarityGather
from repro.core.matching import SimilarityMatcher, TileSchedule
from repro.core.pipeline import layout_digest
from repro.cli import build_parser, main as cli_main
from repro.engine import EvalJob, ExperimentEngine
from repro.eval.runner import (
    METHOD_REGISTRY,
    ModelCache,
    bucket_samples,
    evaluate,
    evaluate_samples,
    make_plugin,
)
from repro.workloads.datasets import make_dataset_span


# ---------------------------------------------------------------------------
# Strategies: stacks of random per-lane DAG tables (the post-pruning
# case where lanes of one batch carry *different* tables).
# ---------------------------------------------------------------------------

def _random_dag_table(rng, n, n_offsets):
    table = np.full((n, n_offsets), -1, dtype=np.int64)
    for i in range(1, n):
        if rng.random() < 0.25:  # text-like row: no partners
            continue
        count = int(rng.integers(0, n_offsets + 1))
        if count:
            partners = rng.choice(i, size=min(count, i), replace=False)
            table[i, :partners.size] = partners
    return table


def _adversarial_values(rng, n, k):
    x = rng.standard_normal((n, k)).astype(np.float32)
    for i in range(1, n):
        roll = rng.random()
        if roll < 0.25:
            x[i] = x[int(rng.integers(0, i))]
        elif roll < 0.35:
            x[i] = 0.0
        elif roll < 0.45:
            x[i] = x[int(rng.integers(0, i))] * (
                1.0 + rng.standard_normal(k).astype(np.float32) * 0.01
            )
    return x


@st.composite
def random_batch_tiles(draw):
    """A stacked (blocks, tables, threshold) batch of tiles.

    Every lane shares the tile geometry (rows, offsets, vector split)
    but draws its *own* DAG table and values — a strict superset of
    what pruning-diverged lanes produce.
    """
    num_lanes = draw(st.integers(1, 4))
    n = draw(st.integers(1, 20))
    n_offsets = draw(st.integers(1, 5))
    k = draw(st.integers(1, 16))
    vector = draw(st.integers(0, k))
    threshold = draw(
        st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    tables, blocks = [], []
    for _ in range(num_lanes):
        tables.append(_random_dag_table(rng, n, n_offsets))
        blocks.append(SimilarityMatcher.split_blocks(
            _adversarial_values(rng, n, k), vector
        ))
    return np.stack(blocks), np.stack(tables), threshold


class TestMatcherDifferential:
    @given(random_batch_tiles())
    @settings(max_examples=60, deadline=None)
    def test_batch_bit_identical_per_lane(self, batch):
        blocks, tables, threshold = batch
        matcher = SimilarityMatcher(threshold)
        outcome = matcher.match_tile_batch(blocks, tables)
        for s in range(blocks.shape[0]):
            serial = matcher.match_tile(blocks[s], tables[s])
            np.testing.assert_array_equal(outcome.reps[s], serial.reps)
            assert int(outcome.comparisons[s]) == serial.comparisons
        np.testing.assert_array_equal(
            outcome.unique_counts(),
            np.stack([
                matcher.match_tile(blocks[s], tables[s]).unique_counts()
                for s in range(blocks.shape[0])
            ]),
        )

    @given(random_batch_tiles())
    @settings(max_examples=30, deadline=None)
    def test_shared_2d_table_equals_stacked(self, batch):
        blocks, tables, threshold = batch
        matcher = SimilarityMatcher(threshold)
        shared = matcher.match_tile_batch(blocks, tables[0])
        stacked = matcher.match_tile_batch(
            blocks, np.broadcast_to(tables[0], tables.shape)
        )
        np.testing.assert_array_equal(shared.reps, stacked.reps)
        np.testing.assert_array_equal(
            shared.comparisons, stacked.comparisons
        )

    @given(random_batch_tiles())
    @settings(max_examples=30, deadline=None)
    def test_reference_mode_oracle(self, batch):
        blocks, tables, threshold = batch
        matcher = SimilarityMatcher(threshold)
        outcome = matcher.match_tile_batch(blocks, tables)
        for s in range(blocks.shape[0]):
            ref = matcher.match_tile_reference(blocks[s], tables[s])
            np.testing.assert_array_equal(outcome.reps[s], ref.reps)
            assert int(outcome.comparisons[s]) == ref.comparisons

    @given(random_batch_tiles())
    @settings(max_examples=30, deadline=None)
    def test_cached_schedule_equals_fresh(self, batch):
        # A gather's cached TileSchedule stands in for the tables: the
        # same reps and counts, call after call.
        blocks, tables, threshold = batch
        matcher = SimilarityMatcher(threshold)
        fresh = matcher.match_tile_batch(blocks, tables)
        schedule = TileSchedule.stacked(tables)
        for _ in range(2):
            cached = matcher.match_tile_batch(
                blocks, tables, schedule=schedule
            )
            np.testing.assert_array_equal(cached.reps, fresh.reps)
            np.testing.assert_array_equal(
                cached.comparisons, fresh.comparisons
            )

    def test_stacked_table_validation(self):
        matcher = SimilarityMatcher(0.9)
        blocks = np.zeros((2, 3, 1, 4), dtype=np.float32)
        bad = np.array([[[-1], [2], [-1]]] * 2, dtype=np.int64)
        with pytest.raises(ValueError, match="precede"):
            matcher.match_tile_batch(blocks, bad)
        with pytest.raises(ValueError, match="cover"):
            matcher.match_tile_batch(
                blocks, np.full((1, 3, 1), -1, dtype=np.int64)
            )


class TestGatherDifferential:
    """Whole-gather parity for lanes with *diverged* layouts."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_lane_layouts_match_serial(self, seed):
        rng = np.random.default_rng(seed)
        grid = (3, 4, 4)
        full = np.array([
            [f, r, c]
            for f in range(grid[0])
            for r in range(grid[1])
            for c in range(grid[2])
        ])
        keep_count, n_text, k = 30, 4, 24
        lanes = 3
        lane_positions, lane_text, xs = [], [], []
        for _ in range(lanes):
            picked = np.sort(rng.choice(
                full.shape[0], size=keep_count, replace=False
            ))
            positions = np.concatenate(
                [full[picked], np.full((n_text, 3), -1)], axis=0
            )
            lane_positions.append(positions)
            lane_text.append(np.array(
                [False] * keep_count + [True] * n_text
            ))
            x = rng.standard_normal(
                (keep_count + n_text, k)
            ).astype(np.float32)
            x[8:16] = x[0:8]  # duplicates so matching happens
            xs.append(x)

        config = FocusConfig(vector_size=8, m_tile=16)
        engine = SimilarityGather(config)
        batch = engine.gather_batch(
            np.stack(xs), lane_positions, lane_text, grid,
            cache_token=[f"lane{i}" for i in range(lanes)],
        )
        for s in range(lanes):
            serial = SimilarityGather(config).gather(
                xs[s], lane_positions[s], lane_text[s], grid,
                cache_token="tok",
            )
            np.testing.assert_array_equal(
                batch.per_sample[s].x_approx, serial.x_approx
            )
            np.testing.assert_array_equal(
                batch.per_sample[s].reps, serial.reps
            )
            assert batch.per_sample[s].tile_lengths == serial.tile_lengths
            assert batch.per_sample[s].comparisons == serial.comparisons
            assert batch.per_sample[s].unique_total == serial.unique_total
            assert batch.per_sample[s].map_bits == serial.map_bits

    def test_batch_plan_cached_across_calls(self, rng):
        config = FocusConfig(vector_size=8, m_tile=64)
        engine = SimilarityGather(config)
        grid = (2, 3, 3)
        positions = np.array([
            [f, r, c]
            for f in range(grid[0])
            for r in range(grid[1])
            for c in range(grid[2])
        ])
        is_text = np.zeros(positions.shape[0], dtype=bool)
        x = rng.standard_normal(
            (2, positions.shape[0], 16)
        ).astype(np.float32)
        engine.gather_batch(
            x, [positions] * 2, [is_text] * 2, grid,
            cache_token=["a", "a"],
        )
        assert len(engine._table_cache) == 1
        engine.gather_batch(
            x, [positions] * 2, [is_text] * 2, grid,
            cache_token=["a", "a"],
        )
        assert len(engine._table_cache) == 1


MODEL = "llava-video"
RAGGED_DATASETS = ("vqav2", "mlvu")
"""Two profiles with different token layouts: concatenating their
spans gives a ragged batch that must split into shape buckets."""


def _ragged_samples(model, per_dataset=4):
    samples = []
    for dataset in RAGGED_DATASETS:
        samples.extend(make_dataset_span(
            dataset, model.config.layout, 0, per_dataset, seed=0
        ))
    return samples


@pytest.mark.slow
class TestEvalParity:
    """Full EvalResult equality: stacked vs one lane, every arm."""

    ARMS = (("focus", False), ("focus", True))

    def _eval(self, method, quantized, batch, samples=None):
        model = ModelCache.get(MODEL, quantized=quantized)
        if samples is None:
            samples = _ragged_samples(model)
        return evaluate_samples(
            model, samples, method, model_name=MODEL,
            dataset_name="ragged", forward_batch=batch,
        )

    @pytest.mark.parametrize("method,quantized", ARMS)
    @pytest.mark.parametrize("batch", [2, 7, 8])
    def test_ragged_span_bit_identical(self, method, quantized, batch):
        serial = self._eval(method, quantized, 1)
        batched = self._eval(method, quantized, batch)
        # Dataclass equality covers accuracy, sparsity, per-sample
        # correctness, dense MACs, and every GemmTrace of every layer
        # (unique counts, comparisons, map bits included).
        assert batched == serial

    def test_unsupported_method_falls_back_to_serial(self):
        # dense could stack but runs faster one lane at a time, so its
        # plugin does not declare it on purpose.
        for method, quantized in (
            ("framefusion", False), ("dense", False), ("dense", True),
        ):
            model = ModelCache.get(MODEL, quantized=quantized)
            assert make_plugin(method, model).stackable is False
            serial = self._eval(method, quantized, 1)
            batched = self._eval(method, quantized, 4)
            assert batched == serial, method

    def test_ragged_batches_split_into_shape_buckets(self):
        model = ModelCache.get(MODEL)
        samples = _ragged_samples(model, per_dataset=3)
        buckets = bucket_samples(samples)
        assert len(buckets) == len(RAGGED_DATASETS)
        assert sorted(i for b in buckets for i in b) == list(range(6))


class TestStacking:
    """Which plugins stack, and the refusal of those that do not."""

    STACKABLE = {"focus", "focus-sec", "focus-sic", "focus-token"}

    def test_declarations(self):
        # An INT8 arm runs its method's own plugin on the INT8 model
        # variant, so it stacks exactly when its FP16 arm does.
        fp16 = ModelCache.get(MODEL)
        int8 = ModelCache.get(MODEL, quantized=True)
        for method in METHOD_REGISTRY:
            plugin = make_plugin(method, fp16)
            int8_plugin = make_plugin(method, int8)
            expected = method in self.STACKABLE
            assert plugin.stackable is expected, method
            assert type(int8_plugin) is type(plugin), method
            assert int8_plugin.stackable is expected, method

    @pytest.mark.parametrize("make", [
        lambda model: FrameFusionPlugin(model.config),
        lambda model: AdaptiveFocusPlugin(model),
        lambda model: None,
    ], ids=["framefusion", "focus-topp", "dense"])
    def test_more_than_one_lane_refused(self, tiny_model, tiny_sample, make):
        plugin = make(tiny_model)
        with pytest.raises(ValueError, match="does not stack"):
            tiny_model.forward_batch([tiny_sample, tiny_sample], plugin)
        # One lane is always allowed.
        assert len(tiny_model.forward_batch([tiny_sample], plugin)) == 1


class TestForwardBatchKnob:
    @pytest.mark.slow
    @pytest.mark.parametrize("knob", [
        ["--forward-batch", "2"], ["--workers", "1"], ["--retries", "1"],
    ], ids=lambda knob: knob[0])
    def test_execution_knob_reruns_from_warm_cache(
        self, knob, tmp_path, capsys
    ):
        # Execution knobs never change a result, so they must not
        # change a job key either: a warm cache serves any value.
        argv = ["table3", "--samples", "1", "--cache-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        assert " 4 executed" in capsys.readouterr().out
        assert cli_main(argv + knob) == 0
        assert " 0 executed" in capsys.readouterr().out

    def test_forward_batch_validated(self, capsys):
        with pytest.raises(ValueError, match="forward_batch"):
            ExperimentEngine(forward_batch=0)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig13", "--forward-batch", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_layout_digest_tracks_version(self, tiny_model, tiny_sample):
        from repro.model.plugins import InferencePlugin

        digests = []

        class Probe(InferencePlugin):
            def before_layer(self, layer_index, state):
                digests.append(layout_digest(state))

        tiny_model.forward(tiny_sample, Probe())
        assert len(set(digests)) >= 1  # memoized, stable per version


@pytest.mark.slow
class TestProgressUnderBatching:
    """eval-shard-done keeps per-sample running-accuracy semantics."""

    def test_shard_stream_matches_serial_semantics(self):
        def run(forward_batch):
            events = []
            engine = ExperimentEngine(
                progress=events.append, forward_batch=forward_batch,
            )
            job = EvalJob(
                model=MODEL, dataset="vqav2", method="focus",
                num_samples=6, seed=0,
            )
            result = engine.run([job])[job]
            return result, [
                e.detail for e in events
                if e.action == "eval-shard-done"
            ]

        serial_result, serial_details = run(1)
        batched_result, batched_details = run(4)
        assert batched_result == serial_result
        # Samples land in the same order serially here, so the
        # running accuracy/sparsity stream is identical event for
        # event — four-lane chunks never change per-sample records,
        # only wall-clock.
        assert batched_details == serial_details
        assert batched_details[-1]["samples"] == 6
        assert batched_details[-1]["accuracy"] == pytest.approx(
            100.0 * sum(batched_result.correct) / 6
        )

    def test_whole_cell_parity_via_public_entrypoint(self):
        serial = evaluate(MODEL, "vqav2", "focus", 6, 0)
        batched = evaluate(MODEL, "vqav2", "focus", 6, 0, forward_batch=3)
        assert batched == serial


class TestPluginReusability:
    """Plugin construction is hoisted out of the eval loop; stateful
    plugins opt out via ``reusable = False`` and are re-made per
    sample."""

    def test_declarations(self):
        from repro.baselines.adaptiv import AdapTiVPlugin
        from repro.baselines.cmc import CMCPlugin
        from repro.baselines.dense import DensePlugin
        from repro.baselines.framefusion import FrameFusionPlugin
        from repro.core.pipeline import FocusPlugin

        assert DensePlugin.reusable is True
        assert AdapTiVPlugin.reusable is True
        assert CMCPlugin.reusable is True
        assert FrameFusionPlugin.reusable is True
        assert FocusPlugin.reusable is True
