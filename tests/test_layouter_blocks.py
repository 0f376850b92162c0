"""Tests for the convolution-style layouter and block construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import (
    build_neighbor_table,
    comparisons_in_table,
    linear_index,
    neighbor_offsets,
)
from repro.core.layouter import ConvolutionLayouter


class TestLayouterEquations:
    """The worked examples printed in Fig. 7 of the paper."""

    def test_fig7_example_b_b2(self):
        # f=1, r=1, c=2, W=5.  The paper's formula gives
        # 1%2*4 + 1%2*2 + 2%2 = 6 (the figure prints "7", which
        # contradicts its own equation — 4 + 2 + 0 = 6; the second
        # worked example below is self-consistent).
        layouter = ConvolutionLayouter((2, 2, 2), frame_width=5)
        address = layouter.address(1, 1, 2)
        assert address.bank == 6
        assert address.offset == 1

    def test_fig7_example_b_e3(self):
        # f=1, r=4, c=3, W=5 -> bank 5, offset 7.
        layouter = ConvolutionLayouter((2, 2, 2), frame_width=5)
        address = layouter.address(1, 4, 3)
        assert address.bank == 5
        assert address.offset == 7

    def test_num_banks(self):
        assert ConvolutionLayouter((2, 2, 2), 5).num_banks == 8
        assert ConvolutionLayouter((1, 3, 3), 5).num_banks == 9

    def test_vectorized_matches_scalar(self):
        layouter = ConvolutionLayouter((2, 2, 2), frame_width=7)
        rng = np.random.default_rng(0)
        positions = np.stack([
            rng.integers(0, 4, 20), rng.integers(0, 6, 20),
            rng.integers(0, 7, 20),
        ], axis=1)
        table = layouter.addresses(positions)
        for row, (f, r, c) in zip(table, positions):
            assert row[0] == layouter.bank_of(int(f), int(r), int(c))
            assert row[1] == layouter.offset_of(int(r), int(c))


class TestConflictFreedom:
    @given(st.integers(0, 7), st.integers(0, 9), st.integers(0, 9))
    @settings(max_examples=100, deadline=None)
    def test_every_window_conflict_free(self, frame, row, col):
        """The key property of Sec. VI-B: all 8 vectors of any 2x2x2
        window live in distinct banks — no replication needed."""
        layouter = ConvolutionLayouter((2, 2, 2), frame_width=10)
        assert layouter.is_conflict_free((frame, row, col))

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_general_blocks_conflict_free(self, bf, bh, bw, f, r, c):
        layouter = ConvolutionLayouter((bf, bh, bw), frame_width=9)
        assert layouter.is_conflict_free((f, r, c))

    def test_distinct_tokens_distinct_addresses(self):
        layouter = ConvolutionLayouter((2, 2, 2), frame_width=6)
        seen = {}
        for f in range(2):
            for r in range(6):
                for c in range(6):
                    address = layouter.address(f, r, c)
                    key = (address.bank, address.offset, f // 2)
                    assert key not in seen, f"collision at {(f, r, c)}"
                    seen[key] = (f, r, c)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            ConvolutionLayouter((0, 2, 2), 5)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            ConvolutionLayouter((2, 2, 2), 0)


class TestNeighborOffsets:
    def test_2x2x2_has_seven(self):
        offsets = neighbor_offsets((2, 2, 2))
        assert offsets.shape == (7, 3)

    def test_linear_offsets_match_paper(self):
        """Fig. 6: for W=5, H=5 the fixed offsets are
        -1, -5, -6, -25, -26, -30, -31."""
        width, height = 5, 5
        offsets = neighbor_offsets((2, 2, 2))
        linear = offsets[:, 0] * height * width + offsets[:, 1] * width \
            + offsets[:, 2]
        assert sorted(-int(v) for v in linear) == [
            -31, -30, -26, -25, -6, -5, -1
        ]

    def test_block_of_one_has_no_neighbors(self):
        assert neighbor_offsets((1, 1, 1)).shape == (0, 3)


def dict_neighbor_table(positions, grid, block):
    """Oracle: the plain dict-and-loop partner lookup.

    Maps every surviving token's linear index to its local index in a
    Python dict, then resolves each backward offset row by row; the
    vectorized :func:`build_neighbor_table` must equal it.
    """
    positions = np.asarray(positions, dtype=np.int64).reshape(-1, 3)
    offsets = neighbor_offsets(block)
    n = positions.shape[0]
    table = np.full((n, offsets.shape[0]), -1, dtype=np.int64)
    if n == 0:
        return table
    linear = linear_index(positions, grid)
    lookup = {int(v): i for i, v in enumerate(linear)}
    frames, height, width = grid
    for o, (df, dr, dc) in enumerate(offsets):
        partner = positions - np.array([df, dr, dc], dtype=np.int64)
        valid = (partner >= 0).all(axis=1)
        partner_linear = (
            partner[:, 0] * height * width
            + partner[:, 1] * width
            + partner[:, 2]
        )
        for i in np.nonzero(valid)[0]:
            j = lookup.get(int(partner_linear[i]))
            if j is not None and j < i:
                table[i, o] = j
    return table


@st.composite
def pruned_layouts(draw):
    """A grid (1-wide axes included), a block shape, and a sorted
    subset of the grid's cells: empty, one token, or any other."""
    grid = tuple(draw(st.integers(1, 6)) for _ in range(3))
    block = tuple(draw(st.integers(1, 3)) for _ in range(3))
    cells = int(np.prod(grid))
    kept = draw(st.one_of(
        st.just([]),
        st.lists(st.integers(0, cells - 1), min_size=1, max_size=1),
        st.lists(st.integers(0, cells - 1), unique=True, max_size=cells),
    ))
    linear = np.array(sorted(kept), dtype=np.int64)
    frames, height, width = grid
    positions = np.stack([
        linear // (height * width), (linear // width) % height,
        linear % width,
    ], axis=1).reshape(-1, 3)
    return positions, grid, block


class TestNeighborTable:
    def test_full_grid_interior_token(self):
        grid = (2, 3, 3)
        positions = np.array([
            [f, r, c] for f in range(2) for r in range(3) for c in range(3)
        ])
        table = build_neighbor_table(positions, grid, (2, 2, 2))
        # The last token (1,2,2) has all 7 partners present.
        assert (table[-1] >= 0).all()
        # The first token (0,0,0) has none.
        assert (table[0] == -1).all()

    def test_partners_precede_key(self):
        grid = (2, 3, 3)
        positions = np.array([
            [f, r, c] for f in range(2) for r in range(3) for c in range(3)
        ])
        table = build_neighbor_table(positions, grid, (2, 2, 2))
        for i in range(table.shape[0]):
            partners = table[i][table[i] >= 0]
            assert (partners < i).all()

    def test_pruned_holes_are_skipped(self):
        grid = (1, 2, 3)
        # Token (0,1,1) pruned: (0,1,2)'s left partner is absent.
        positions = np.array([
            [0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 1, 0], [0, 1, 2],
        ])
        table = build_neighbor_table(positions, grid, (1, 2, 2))
        key = 4  # (0,1,2)
        partner_positions = {
            tuple(positions[j]) for j in table[key] if j >= 0
        }
        assert (0, 1, 1) not in partner_positions
        assert (0, 0, 1) in partner_positions

    def test_requires_sorted_positions(self):
        positions = np.array([[0, 0, 1], [0, 0, 0]])
        with pytest.raises(ValueError):
            build_neighbor_table(positions, (1, 2, 2), (1, 2, 2))

    def test_comparisons_count(self):
        grid = (1, 2, 2)
        positions = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]])
        table = build_neighbor_table(positions, grid, (1, 2, 2))
        # (0,0,0):0, (0,0,1):1, (0,1,0):1, (0,1,1):3 partners.
        assert comparisons_in_table(table) == 5

    def test_linear_index(self):
        positions = np.array([[1, 2, 3]])
        assert linear_index(positions, (2, 4, 5))[0] == 1 * 20 + 2 * 5 + 3

    @given(pruned_layouts())
    @settings(max_examples=200, deadline=None)
    def test_matches_dict_oracle(self, layout):
        positions, grid, block = layout
        table = build_neighbor_table(positions, grid, block)
        expected = dict_neighbor_table(positions, grid, block)
        assert table.dtype == expected.dtype
        np.testing.assert_array_equal(table, expected)
