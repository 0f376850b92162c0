"""Tests for the SIC: matcher, gather, scatter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FocusConfig
from repro.core.blocks import build_neighbor_table
from repro.core.gather import TABLE_CACHE_MAX_ENTRIES, SimilarityGather
from repro.core.matching import SimilarityMatcher
from repro.core.scatter import (
    gathered_gemm,
    scatter_accumulation_ops,
    scatter_counts,
)


def _grid_positions(frames, height, width):
    return np.array([
        [f, r, c]
        for f in range(frames) for r in range(height) for c in range(width)
    ])


class TestSplitBlocks:
    def test_exact_division(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 12)
        blocks = SimilarityMatcher.split_blocks(x, 4)
        assert blocks.shape == (2, 3, 4)
        np.testing.assert_array_equal(blocks[0, 0], x[0, :4])

    def test_ragged_final_block_zero_padded(self):
        x = np.ones((1, 10), dtype=np.float32)
        blocks = SimilarityMatcher.split_blocks(x, 4)
        assert blocks.shape == (1, 3, 4)
        np.testing.assert_array_equal(blocks[0, 2], [1, 1, 0, 0])

    def test_token_wise(self):
        x = np.ones((2, 10), dtype=np.float32)
        blocks = SimilarityMatcher.split_blocks(x, 0)
        assert blocks.shape == (2, 1, 10)


class TestMatcher:
    def _match(self, x, positions, grid, block=(2, 2, 2), threshold=0.9,
               vector=4):
        matcher = SimilarityMatcher(threshold)
        table = build_neighbor_table(positions, grid, block)
        return matcher.match_tile(matcher.split_blocks(x, vector), table)

    def test_identical_neighbours_match(self):
        grid = (1, 1, 3)
        positions = _grid_positions(*grid)
        x = np.tile(np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32),
                    (3, 1))
        outcome = self._match(x, positions, grid, block=(1, 1, 2))
        # Tokens 1 and 2 both match token 0 through the chain.
        np.testing.assert_array_equal(outcome.reps[0], [0, 0, 0])

    def test_dissimilar_neighbours_kept(self, rng):
        grid = (1, 1, 3)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((3, 4)).astype(np.float32)
        outcome = self._match(x, positions, grid, block=(1, 1, 2))
        np.testing.assert_array_equal(outcome.reps[0], [0, 1, 2])

    def test_threshold_boundary(self):
        grid = (1, 1, 2)
        positions = _grid_positions(*grid)
        a = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
        # cosine exactly at threshold must NOT match (strict >).
        matcher = SimilarityMatcher(1.0)
        table = build_neighbor_table(positions, grid, (1, 1, 2))
        outcome = matcher.match_tile(
            matcher.split_blocks(np.stack([a, a]), 4), table
        )
        np.testing.assert_array_equal(outcome.reps[0], [0, 1])

    def test_chained_representatives(self):
        # b matches a; c matches the *stored* value of b, i.e. a.
        grid = (1, 1, 3)
        positions = _grid_positions(*grid)
        a = np.array([1.0, 0.0], dtype=np.float32)
        b = np.array([0.99, 0.02], dtype=np.float32)
        c = np.array([0.98, 0.04], dtype=np.float32)
        outcome = self._match(np.stack([a, b, c]), positions, grid,
                              block=(1, 1, 2), vector=2)
        assert outcome.reps[0, 1] == 0
        assert outcome.reps[0, 2] == 0

    def test_zero_vectors_match_each_other(self):
        grid = (1, 1, 2)
        positions = _grid_positions(*grid)
        x = np.zeros((2, 4), dtype=np.float32)
        outcome = self._match(x, positions, grid, block=(1, 1, 2))
        np.testing.assert_array_equal(outcome.reps[0], [0, 0])

    def test_zero_vs_nonzero_kept(self):
        grid = (1, 1, 2)
        positions = _grid_positions(*grid)
        x = np.stack([
            np.zeros(4, dtype=np.float32),
            np.ones(4, dtype=np.float32),
        ])
        outcome = self._match(x, positions, grid, block=(1, 1, 2))
        np.testing.assert_array_equal(outcome.reps[0], [0, 1])

    def test_per_block_independence(self):
        grid = (1, 1, 2)
        positions = _grid_positions(*grid)
        # Block 0 identical, block 1 orthogonal.
        x = np.array([
            [1.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 1.0],
        ], dtype=np.float32)
        matcher = SimilarityMatcher(0.9)
        table = build_neighbor_table(positions, grid, (1, 1, 2))
        outcome = matcher.match_tile(matcher.split_blocks(x, 2), table)
        assert outcome.reps[0, 1] == 0  # first block deduplicated
        assert outcome.reps[1, 1] == 1  # second block kept

    def test_comparison_count(self, rng):
        grid = (1, 2, 2)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        outcome = self._match(x, positions, grid, block=(1, 2, 2))
        # 0+1+1+3 partners, times 2 k-blocks of size 4.
        assert outcome.comparisons == 5 * 2

    def test_unique_counts(self):
        grid = (1, 1, 3)
        positions = _grid_positions(*grid)
        x = np.tile(np.array([[2.0, 1.0, 0.0, 1.0]], dtype=np.float32),
                    (3, 1))
        outcome = self._match(x, positions, grid, block=(1, 1, 2))
        assert outcome.unique_counts()[0] == 1


class TestTableCacheBound:
    """Regression: the neighbor-table cache must stay bounded when one
    gather engine serves many samples (streaming use)."""

    def _inputs(self, grid=(2, 3, 3), dim=8):
        tokens = grid[0] * grid[1] * grid[2]
        positions = _grid_positions(*grid)
        x = np.random.default_rng(0).standard_normal(
            (tokens, dim)
        ).astype(np.float32)
        is_text = np.zeros(tokens, dtype=bool)
        return x, positions, is_text, grid

    def test_lru_cap_within_one_token(self):
        # 200 tokens at m_tile=2 is 100 tiles — more than the cap.
        engine = SimilarityGather(FocusConfig(vector_size=4, m_tile=2))
        x, positions, is_text, grid = self._inputs(grid=(2, 10, 10))
        engine.gather(x, positions, is_text, grid, cache_token="one")
        assert len(engine._table_cache) <= TABLE_CACHE_MAX_ENTRIES

    def test_tables_reused_within_token(self):
        engine = SimilarityGather(FocusConfig(vector_size=4))
        x, positions, is_text, grid = self._inputs()
        first = engine._tile_plan(
            [positions], [is_text], grid, (0, 18), ["tok"]
        )
        second = engine._tile_plan(
            [positions], [is_text], grid, (0, 18), ["tok"]
        )
        assert first is second

    def test_uncached_when_token_is_none(self):
        engine = SimilarityGather(FocusConfig(vector_size=4))
        x, positions, is_text, grid = self._inputs()
        engine.gather(x, positions, is_text, grid, cache_token=None)
        assert len(engine._table_cache) == 0


class TestGather:
    def _gather(self, x, positions, is_text, grid, **overrides):
        config = FocusConfig(m_tile=overrides.pop("m_tile", 1024),
                             vector_size=overrides.pop("vector_size", 4),
                             **overrides)
        return SimilarityGather(config).gather(x, positions, is_text, grid)

    def test_x_approx_rows_come_from_reps(self, rng):
        grid = (2, 3, 3)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((18, 8)).astype(np.float32)
        is_text = np.zeros(18, dtype=bool)
        result = self._gather(x, positions, is_text, grid)
        v = result.vector_size
        for b in range(result.reps.shape[0]):
            for i in range(18):
                rep = result.reps[b, i]
                np.testing.assert_array_equal(
                    result.x_approx[i, b * v:(b + 1) * v],
                    x[rep, b * v:(b + 1) * v],
                )

    def test_duplicate_frames_compress(self):
        grid = (2, 2, 2)
        positions = _grid_positions(*grid)
        frame = np.random.default_rng(5).standard_normal((4, 8)).astype(
            np.float32
        )
        x = np.concatenate([frame, frame])  # second frame identical
        is_text = np.zeros(8, dtype=bool)
        result = self._gather(x, positions, is_text, grid)
        # Every frame-1 vector matches its frame-0 counterpart.
        assert result.unique_total <= result.total_vectors / 2 + 8

    def test_text_rows_never_matched(self, rng):
        grid = (1, 2, 2)
        positions = np.concatenate([
            _grid_positions(*grid), [[-1, -1, -1]], [[-1, -1, -1]]
        ])
        row = rng.standard_normal(8).astype(np.float32)
        x = np.tile(row, (6, 1))
        is_text = np.array([False] * 4 + [True] * 2)
        result = self._gather(x, positions, is_text, grid)
        for b in range(result.reps.shape[0]):
            assert result.reps[b, 4] == 4
            assert result.reps[b, 5] == 5

    def test_tile_boundary_blocks_matching(self):
        grid = (1, 1, 4)
        positions = _grid_positions(*grid)
        row = np.ones(8, dtype=np.float32)
        x = np.tile(row, (4, 1))
        is_text = np.zeros(4, dtype=bool)
        whole = self._gather(x, positions, is_text, grid, m_tile=1024)
        split = self._gather(x, positions, is_text, grid, m_tile=2)
        # With one tile everything collapses to a single vector per
        # block; the tile boundary forces one extra unique per block.
        assert whole.unique_total < split.unique_total

    def test_token_wise_mode(self, rng):
        grid = (1, 2, 2)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        is_text = np.zeros(4, dtype=bool)
        config = FocusConfig(vector_size=4)
        result = SimilarityGather(config, token_wise=True).gather(
            x, positions, is_text, grid
        )
        assert result.reps.shape[0] == 1
        assert result.vector_size == 8

    def test_compression_ratio(self):
        grid = (1, 1, 2)
        positions = _grid_positions(*grid)
        x = np.ones((2, 4), dtype=np.float32)
        is_text = np.zeros(2, dtype=bool)
        result = self._gather(x, positions, is_text, grid)
        assert result.compression_ratio == pytest.approx(2.0)

    def test_tile_rows_parallel_to_lengths(self, rng):
        grid = (2, 2, 2)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        is_text = np.zeros(8, dtype=bool)
        result = self._gather(x, positions, is_text, grid, m_tile=4)
        assert len(result.tile_rows) == len(result.tile_lengths)
        assert set(result.tile_rows) == {4}


class TestScatter:
    @given(st.integers(1, 4), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_gathered_gemm_equals_dense_on_approx(self, frames, seed):
        """The core correctness contract of Sec. VI-C: concentrated
        GEMM + scatter equals the dense GEMM over the gathered input."""
        rng = np.random.default_rng(seed)
        grid = (frames, 2, 2)
        positions = _grid_positions(*grid)
        n_tokens = frames * 4
        x = rng.standard_normal((n_tokens, 8)).astype(np.float32)
        # Make some duplicates so scattering actually happens.
        if n_tokens >= 8:
            x[4:8] = x[0:4]
        is_text = np.zeros(n_tokens, dtype=bool)
        config = FocusConfig(vector_size=4)
        result = SimilarityGather(config).gather(x, positions, is_text, grid)
        weight = rng.standard_normal((8, 6)).astype(np.float32)
        out = gathered_gemm(x, weight, result)
        np.testing.assert_allclose(out, result.x_approx @ weight,
                                   rtol=1e-4, atol=1e-5)

    def test_weight_shape_check(self, rng):
        grid = (1, 1, 2)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((2, 8)).astype(np.float32)
        config = FocusConfig(vector_size=4)
        result = SimilarityGather(config).gather(
            x, positions, np.zeros(2, dtype=bool), grid
        )
        with pytest.raises(ValueError):
            gathered_gemm(x, np.zeros((5, 3)), result)

    def test_scatter_counts_sum_to_rows(self, rng):
        grid = (2, 2, 2)
        positions = _grid_positions(*grid)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        config = FocusConfig(vector_size=4)
        result = SimilarityGather(config).gather(
            x, positions, np.zeros(8, dtype=bool), grid
        )
        counts = scatter_counts(result)
        assert counts.sum() == 8 * result.reps.shape[0]

    def test_accumulation_ops_formula(self):
        assert scatter_accumulation_ops(1024, 32, 6) == 1024 * 32 * 6
