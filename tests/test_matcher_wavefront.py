"""Differential suite: wavefront matcher vs the serial reference oracle.

The wavefront (level-scheduled) matcher must be *bit-identical* to the
retained row-at-a-time reference for every tile, threshold, and block
shape — same representatives, same unique counts, same comparison
count, and trace-for-trace identical forward passes.  These tests lock
that contract in over a hypothesis grid of random DAG tables and over
end-to-end zoo-model forwards, plus the hot-path regressions that rode
along with the overhaul (float32 attention, causal-mask memo, lazy
attention summaries).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.framefusion import FrameFusionPlugin
from repro.config import FocusConfig
from repro.core.blocks import build_neighbor_table
from repro.core.gather import SimilarityGather
from repro.core.matching import (
    SimilarityMatcher,
    level_schedule,
    partner_levels,
)
from repro.eval.runner import ModelCache, make_plugin
from repro.model.functional import causal_mask
from repro.model.plugins import InferencePlugin
from repro.workloads.datasets import make_dataset_span


# ---------------------------------------------------------------------------
# Strategies: random DAG tables (a superset of what build_neighbor_table
# produces) and random value matrices with adversarial structure.
# ---------------------------------------------------------------------------

@st.composite
def random_tiles(draw):
    """A random (blocks, table, threshold) tile.

    Tables are arbitrary DAGs honouring only the matcher's contract
    (partners precede keys, -1 marks absent) — a strict superset of
    grid-derived neighbor tables.  Values include exact duplicates,
    exact zeros, and partner-less (text-like) rows.
    """
    n = draw(st.integers(1, 28))
    n_offsets = draw(st.integers(1, 7))
    k = draw(st.integers(1, 24))
    vector = draw(st.integers(0, k))
    threshold = draw(
        st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)
    )
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)

    table = np.full((n, n_offsets), -1, dtype=np.int64)
    for i in range(1, n):
        if rng.random() < 0.25:  # text-like row: no partners
            continue
        count = int(rng.integers(0, n_offsets + 1))
        if count:
            partners = rng.choice(i, size=min(count, i), replace=False)
            table[i, :partners.size] = partners

    x = rng.standard_normal((n, k)).astype(np.float32)
    # Exact duplicates force chains; near-duplicates sit at the
    # threshold boundary; zero rows exercise the norm-floor branch.
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
    blocks = SimilarityMatcher.split_blocks(x, vector)
    return blocks, table, threshold


class TestDifferential:
    @given(random_tiles())
    @settings(max_examples=120, deadline=None)
    def test_wavefront_bit_identical_to_reference(self, tile):
        blocks, table, threshold = tile
        matcher = SimilarityMatcher(threshold)
        ref = matcher.match_tile_reference(blocks, table)
        wav = matcher.match_tile_wavefront(blocks, table)
        np.testing.assert_array_equal(wav.reps, ref.reps)
        np.testing.assert_array_equal(
            wav.unique_counts(), ref.unique_counts()
        )
        assert wav.comparisons == ref.comparisons

    @given(
        st.integers(1, 4), st.integers(1, 5), st.integers(1, 5),
        st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        st.floats(0.1, 1.0), st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_tables_with_pruning_holes(
        self, frames, height, width, bf, bh, bw, threshold, seed
    ):
        """Realistic tables: FHW grids with random pruning holes."""
        rng = np.random.default_rng(seed)
        full = np.array([
            [f, r, c]
            for f in range(frames)
            for r in range(height)
            for c in range(width)
        ])
        keep = rng.random(full.shape[0]) > 0.3
        keep[0] = True
        positions = full[keep]
        table = build_neighbor_table(
            positions, (frames, height, width), (bf, bh, bw)
        )
        x = rng.standard_normal((positions.shape[0], 16)).astype(np.float32)
        if positions.shape[0] > 2:
            x[-1] = x[0]
        matcher = SimilarityMatcher(threshold)
        blocks = matcher.split_blocks(x, 4)
        ref = matcher.match_tile_reference(blocks, table)
        wav = matcher.match_tile_wavefront(blocks, table)
        np.testing.assert_array_equal(wav.reps, ref.reps)
        assert wav.comparisons == ref.comparisons

    def test_gather_parity_across_modes(self, rng, reference_matcher):
        """Whole-gather parity: tiles, text rows, caching, x_approx."""
        grid = (3, 4, 4)
        positions = np.array([
            [f, r, c]
            for f in range(grid[0])
            for r in range(grid[1])
            for c in range(grid[2])
        ])
        n_image = positions.shape[0]
        n_text = 5
        positions = np.concatenate(
            [positions, np.full((n_text, 3), -1)], axis=0
        )
        is_text = np.array([False] * n_image + [True] * n_text)
        x = rng.standard_normal((n_image + n_text, 24)).astype(np.float32)
        x[8:16] = x[0:8]  # duplicate rows so matching happens

        def gather():
            engine = SimilarityGather(FocusConfig(vector_size=8, m_tile=16))
            return engine.gather(
                x, positions, is_text, grid, cache_token="tok"
            )

        wav = gather()
        with reference_matcher() as calls:
            ref = gather()
        assert calls  # the oracle really ran
        np.testing.assert_array_equal(wav.reps, ref.reps)
        np.testing.assert_array_equal(wav.x_approx, ref.x_approx)
        assert wav.tile_lengths == ref.tile_lengths
        assert wav.tile_rows == ref.tile_rows
        assert wav.comparisons == ref.comparisons
        assert wav.unique_total == ref.unique_total
        assert wav.map_bits == ref.map_bits


class TestLevels:
    @given(random_tiles())
    @settings(max_examples=60, deadline=None)
    def test_levels_are_one_plus_max_partner_level(self, tile):
        _, table, _ = tile
        levels = partner_levels(table)
        for i in range(table.shape[0]):
            partners = table[i][table[i] >= 0]
            if partners.size == 0:
                assert levels[i] == 0
            else:
                assert levels[i] == levels[partners].max() + 1

    @given(random_tiles())
    @settings(max_examples=60, deadline=None)
    def test_schedule_partitions_rows_with_partners(self, tile):
        _, table, _ = tile
        levels = partner_levels(table)
        schedule = level_schedule(levels)
        scheduled = np.concatenate([np.asarray(g) for g in schedule]) \
            if schedule else np.array([], dtype=np.int64)
        expected = np.nonzero((table >= 0).any(axis=1))[0]
        assert sorted(scheduled.tolist()) == expected.tolist()
        # Every row in a group sits exactly at that group's level.
        for depth, rows in enumerate(schedule, start=1):
            assert (levels[rows] == depth).all()

    def test_empty_inputs(self):
        assert partner_levels(np.empty((0, 3), dtype=np.int64)).size == 0
        assert level_schedule(np.array([], dtype=np.int64)) == ()
        matcher = SimilarityMatcher(0.9)
        outcome = matcher.match_tile_wavefront(
            np.empty((0, 1, 4), dtype=np.float32),
            np.empty((0, 3), dtype=np.int64),
        )
        assert outcome.reps.shape == (1, 0)
        assert outcome.comparisons == 0


class TestValidation:
    def test_precedence_precheck_both_modes(self):
        blocks = SimilarityMatcher.split_blocks(
            np.ones((3, 8), dtype=np.float32), 4
        )
        bad = np.array([[-1], [2], [-1]], dtype=np.int64)  # 2 >= 1
        matcher = SimilarityMatcher(0.9)
        for match in (matcher.match_tile, matcher.match_tile_reference):
            with pytest.raises(ValueError, match="precede"):
                match(blocks, bad)

    def test_tile_coverage_check(self):
        blocks = SimilarityMatcher.split_blocks(
            np.ones((3, 8), dtype=np.float32), 4
        )
        short = np.full((2, 1), -1, dtype=np.int64)
        matcher = SimilarityMatcher(0.9)
        for match in (matcher.match_tile, matcher.match_tile_reference):
            with pytest.raises(ValueError, match="cover"):
                match(blocks, short)

    def test_gather_validates_coverage_once(self, rng):
        config = FocusConfig(vector_size=4)
        engine = SimilarityGather(config)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="cover every row"):
            engine.gather(
                x, np.zeros((3, 3), dtype=np.int64),
                np.zeros(4, dtype=bool), (1, 2, 2),
            )

    def test_partner_levels_rejects_cyclic_tables(self):
        # A self-reference or a partner cycle must raise, not spin the
        # level fixpoint forever.  (Acyclic forward references are
        # caught by the matcher's precedence pre-check instead.)
        with pytest.raises(ValueError, match="precede"):
            partner_levels(np.array([[0]], dtype=np.int64))
        with pytest.raises(ValueError, match="precede"):
            partner_levels(np.array([[1], [0]], dtype=np.int64))


ZOO_PARITY = (
    ("llava-video", "videomme"),
    ("minicpm", "mlvu"),
    ("qwen25-vl", "vqav2"),
)
PARITY_ARMS = ("focus", "focus-token", "dense")


class TestForwardParity:
    """End-to-end: a full forward pass is trace-for-trace identical
    when every tile runs through the reference oracle instead."""

    @pytest.mark.parametrize("model_name,dataset", ZOO_PARITY)
    @pytest.mark.parametrize("method", PARITY_ARMS)
    def test_zoo_forward_trace_parity(
        self, model_name, dataset, method, reference_matcher
    ):
        model = ModelCache.get(model_name)
        sample, = make_dataset_span(
            dataset, model.config.layout, 0, 1, seed=0
        )
        wav = model.forward(sample, make_plugin(method, model))
        with reference_matcher():
            ref = model.forward(sample, make_plugin(method, model))
        assert wav.predicted_index == ref.predicted_index
        assert wav.correct == ref.correct
        assert wav.final_tokens == ref.final_tokens
        assert wav.trace == ref.trace  # trace-for-trace, every GEMM


class _DtypeProbe(InferencePlugin):
    """Captures the dtypes flowing through the attention path."""

    def __init__(self):
        self.probs_dtypes = set()
        self.gemm_dtypes = set()

    def after_attention_probs(self, layer_index, probs, batch):
        self.probs_dtypes.add(probs.dtype)
        return None

    def gemm_input(self, layer_index, site, x, batch, producers, n):
        self.gemm_dtypes.add(x.dtype)
        return x, [None] * batch.num_lanes


class TestAttentionDtype:
    """Regression: the attention path stays float32 end to end (a bare
    ``np.sqrt(head_dim)`` would silently promote scores to float64)."""

    def test_forward_stays_float32(self, tiny_model, tiny_sample):
        probe = _DtypeProbe()
        tiny_model.forward(tiny_sample, probe)
        assert probe.probs_dtypes == {np.dtype(np.float32)}
        assert probe.gemm_dtypes == {np.dtype(np.float32)}

    def test_float64_scale_is_the_hazard(self):
        # Documents what the regression guards against: dividing a
        # float32 array by np.sqrt(int) promotes under NEP 50.
        scores = np.ones((2, 2), dtype=np.float32)
        assert (scores / np.sqrt(16)).dtype == np.float64
        assert (scores / np.float32(np.sqrt(16))).dtype == np.float32


class TestCausalMaskMemo:
    def test_same_object_returned(self):
        assert causal_mask(17) is causal_mask(17)

    def test_read_only(self):
        mask = causal_mask(9)
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0

    def test_contents_unchanged(self):
        mask = causal_mask(4)
        assert mask.dtype == np.float32
        assert (mask[np.tril_indices(4)] == 0.0).all()
        assert np.isneginf(mask[np.triu_indices(4, k=1)]).all()

    def test_lru_bounded(self):
        from repro.model.functional import MASK_CACHE_MAX_ENTRIES

        for s in range(1, MASK_CACHE_MAX_ENTRIES + 20):
            causal_mask(s)
        assert causal_mask.cache_info().currsize <= MASK_CACHE_MAX_ENTRIES


class TestLazyAttentionSummary:
    def test_dense_forward_skips_summary(self, tiny_model, tiny_sample):
        class Probe(InferencePlugin):
            saw = None

            def finish(self, batch):
                Probe.saw = "attn_received" in batch.lanes[0].scratch

        tiny_model.forward(tiny_sample, Probe())
        assert Probe.saw is False

    def test_framefusion_gets_summary(self, tiny_model, tiny_sample):
        plugin = FrameFusionPlugin(tiny_model.config)

        class Probe(FrameFusionPlugin):
            saw = None

            def finish(self, batch):
                Probe.saw = "attn_received" in batch.lanes[0].scratch

        probe = Probe(tiny_model.config)
        tiny_model.forward(tiny_sample, probe)
        assert Probe.saw is True
        assert plugin.needs_attention_summary is True
