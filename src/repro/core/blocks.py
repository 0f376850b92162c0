"""Spatiotemporal comparison-block construction (Sec. VI-A).

A ``bf x bh x bw`` sliding window with stride 1 sweeps the FHW token
grid.  For every token acting as *key* (the highest linear index in its
window), its comparison partners are the surviving tokens at the
backward offsets ``(f-df, r-dr, c-dc)``.  Semantic pruning leaves holes
in the grid, so partners are resolved through a position lookup built
from the retained tokens' recovered coordinates.
"""

from __future__ import annotations

import numpy as np


def neighbor_offsets(block: tuple[int, int, int]) -> np.ndarray:
    """Backward (df, dr, dc) offsets of a block, excluding (0, 0, 0).

    For the default 2x2x2 block this yields the 7 comparison partners
    of Fig. 6; in linear FHW index terms they are the paper's fixed
    offsets ``-1, -W, -W-1, -HW, -HW-1, -HW-W, -HW-W-1``.
    """
    bf, bh, bw = block
    if min(bf, bh, bw) < 1:
        raise ValueError("block dimensions must be >= 1")
    offsets = [
        (df, dr, dc)
        for df in range(bf)
        for dr in range(bh)
        for dc in range(bw)
        if (df, dr, dc) != (0, 0, 0)
    ]
    return np.array(offsets, dtype=np.int64).reshape(-1, 3)


def linear_index(positions: np.ndarray, grid: tuple[int, int, int]) -> np.ndarray:
    """Linear FHW index of ``(n, 3)`` positions on the given grid."""
    frames, height, width = grid
    positions = np.asarray(positions, dtype=np.int64)
    return (
        positions[:, 0] * height * width
        + positions[:, 1] * width
        + positions[:, 2]
    )


def build_neighbor_table(
    positions: np.ndarray,
    grid: tuple[int, int, int],
    block: tuple[int, int, int],
) -> np.ndarray:
    """Comparison-partner table for a set of surviving tokens.

    Args:
        positions: ``(n, 3)`` FHW coordinates of surviving tokens, in
            stream order (strictly increasing linear index).
        grid: Full ``(frames, height, width)`` grid.
        block: Comparison-block dimensions.

    Returns:
        Integer array of shape ``(n, len(offsets))``: entry ``[i, o]``
        is the *local* index (into ``positions``) of the partner at
        backward offset ``o`` from token ``i``, or ``-1`` when that
        grid cell is pruned or out of bounds.  All valid partners have
        local index ``< i`` (they precede the key in stream order).
    """
    positions = np.asarray(positions, dtype=np.int64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (n, 3)")
    offsets = neighbor_offsets(block)
    n = positions.shape[0]
    if n == 0:
        return np.full((0, offsets.shape[0]), -1, dtype=np.int64)

    linear = linear_index(positions, grid)
    if (np.diff(linear) <= 0).any():
        raise ValueError("positions must be in strictly increasing FHW order")
    # Every (token, offset) partner at once: (n, offsets, 3).  A partner
    # off the grid's low edge does not exist; any other is looked up in
    # the sorted linear index, and counts only if it precedes its key
    # (on a non-degenerate grid every backward offset does).
    partner = positions[:, None, :] - offsets[None, :, :]
    partner_linear = linear_index(partner.reshape(-1, 3), grid).reshape(
        n, offsets.shape[0]
    )
    slot = np.searchsorted(linear, partner_linear)
    found = np.take(linear, slot, mode="clip") == partner_linear
    found &= (partner >= 0).all(axis=2)
    found &= slot < np.arange(n)[:, None]
    return np.where(found, slot, -1)


def comparisons_in_table(table: np.ndarray) -> int:
    """Total pairwise comparisons implied by a neighbor table."""
    return int(np.count_nonzero(np.asarray(table) >= 0))
