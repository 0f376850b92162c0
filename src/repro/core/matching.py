"""Vector-wise streaming similarity matcher (Sec. VI-A).

Tokens stream through the matcher in FHW order.  Each token's hidden
state is split into length-``v`` vectors (one per k-block of the GEMM
tile); for every k-block the key vector is compared, by cosine
similarity, against the *stored* (already deduplicated) vectors of its
comparison partners.  A similarity above the threshold replaces the
vector with its partner's representative index — chaining through
earlier matches exactly as the hardware's compact buffer does.

Two implementations share this contract:

* :meth:`SimilarityMatcher.match_tile_reference` — the original
  row-at-a-time streaming loop.  It is the semantic oracle the tests
  compare against: one row at a time, one batched comparison against
  that row's partners.
* :meth:`SimilarityMatcher.match_tile_wavefront` — a level-scheduled
  (wavefront) formulation of the *same* recurrence, and the one the
  program runs.  Every partner index precedes its key, so the rows of
  a tile form a DAG; a row is schedulable as soon as all of its
  partners' representatives are finalized.  Grouping rows into
  dependency levels (:func:`partner_levels`) lets each level resolve
  with one batched gather and one batched dot-product/threshold pass.
  Rows within a level never reference each other (a partner's level
  is strictly lower), so the wavefront result is bit-identical to the
  serial oracle for every tile, threshold, and block shape — the
  property ``tests/test_matcher_wavefront.py`` locks in
  differentially.

A stack of tiles (one per sample lane) is matched as *one* tile: no
row has a partner in another lane, so offsetting lane ``s``'s partner
table by ``s * rows`` (:func:`block_diagonal`) yields a tile whose
dependency DAG is the disjoint union of the lanes' DAGs and whose
wavefront levels are the lanes' levels merged
(:meth:`SimilarityMatcher.match_tile_batch`).

Everything that depends only on the table — its validation, levels,
comparison counts and per-level index arrays — lives in a
:class:`TileSchedule`, which the gather caches per token layout, so a
match call, like the SIC unit's fixed comparison window, adds no
per-call setup.

L2 norms are precomputed once per token, so each comparison costs a
single ``v``-wide dot product plus a few scalar ops, matching the
single-dot-product-unit matcher of Fig. 6(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_EPS = 1e-6
"""Vectors with L2 norm below this are treated as exact zeros."""


def partner_levels(neighbor_table: np.ndarray) -> np.ndarray:
    """Dependency level of every row of a neighbor table.

    Rows with no partners sit at level 0; otherwise a row's level is
    one more than the maximum level of its partners.  Because every
    valid partner index precedes its key, levels are well defined and
    the fixpoint below converges in (max level + 1) vectorized sweeps
    — the DAG depth, which for an ``f x h x w`` comparison block over
    an FHW grid is at most ``(F-1) + (H-1) + (W-1)``, far below the
    row count.
    """
    table = np.asarray(neighbor_table, dtype=np.int64)
    n = table.shape[0]
    if n == 0 or table.shape[1] == 0:
        return np.zeros(n, dtype=np.int64)
    # Absent partners read a sentinel level of -1 kept past the last
    # row, so every sweep is one gather and one row max.
    partners = np.where(table >= 0, table, n)
    extended = np.full(n + 1, -1, dtype=np.int64)
    levels = extended[:n]
    # A valid DAG (every partner precedes its key) has depth < n, so
    # the fixpoint needs at most n + 1 sweeps; a table with a cycle or
    # a forward reference would otherwise spin forever.
    for _ in range(n + 1):
        new = extended.take(partners).max(axis=1)
        new += 1
        if not (new != levels).any():
            return new
        levels[:] = new
    raise ValueError("partner indices must precede the key")


def level_schedule(levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group row indices by dependency level, levels ``>= 1`` only.

    Level-0 rows have no partners and keep themselves as
    representatives, so they need no matching work.  Within a group
    rows are in increasing index order (irrelevant for correctness —
    same-level rows are independent — but it keeps gathers cache
    friendly).
    """
    levels = np.asarray(levels, dtype=np.int64)
    if levels.size == 0:
        return ()
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    max_level = int(sorted_levels[-1])
    if max_level == 0:
        return ()
    bounds = np.searchsorted(sorted_levels, np.arange(1, max_level + 2))
    return tuple(
        order[bounds[i]:bounds[i + 1]] for i in range(max_level)
    )


@dataclass(frozen=True)
class LevelGroup:
    """Precomputed index structures for one wavefront level.

    Everything here depends only on the neighbor table and the k-block
    count ``B``, so gathers sharing a token set build these once
    (cached in the tile's :class:`TileSchedule`) and the per-level hot
    loop degenerates to a fixed sequence of whole-array operations.

    Indices address the tile's vectors in row-major ``(row, k-block)``
    order: vector ``b`` of row ``i`` is slot ``i * B + b``.  The
    representative array of the matcher uses the same slots, so a
    vector's slot is also where its representative is recorded.

    Attributes:
        keys: ``(r, B)`` slots of the vectors of the rows resolved at
            this level.
        partners: ``(r, B, m)`` slots of each key vector's partner
            vectors, in table order; absent partners point at slot
            ``b`` of row 0 and are masked by ``absent``.
        absent: Flat indices of the absent partners in a
            ``(r, B, m)`` array, or ``None`` when every row of the
            level has all ``m``.
        picks: ``(r, B)`` flat offset of each key vector's first
            partner in a ``(r, B, m)`` array, so ``picks + argmax``
            flat-indexes the chosen partner.
    """

    keys: np.ndarray
    partners: np.ndarray
    absent: np.ndarray | None
    picks: np.ndarray


def build_level_groups(
    table: np.ndarray,
    levels: np.ndarray | None = None,
    num_blocks: int = 1,
) -> tuple[LevelGroup, ...]:
    """Materialize :class:`LevelGroup` structures for a neighbor table
    whose tile splits every row into ``num_blocks`` vectors.

    The index arrays are built once for all scheduled rows, in level
    order; each group holds views of its level's slice.
    """
    table = np.asarray(table, dtype=np.int64)
    if levels is None:
        levels = partner_levels(table)
    schedule = level_schedule(levels)
    if not schedule:
        return ()
    rows = np.concatenate(schedule)
    width = table.shape[1]
    block_range = np.arange(num_blocks, dtype=np.int64)
    tab = table[rows]
    absent = tab < 0
    keys = rows[:, None] * num_blocks + block_range
    partners = (
        np.where(absent, 0, tab)[:, None, :] * num_blocks
        + block_range[:, None]
    )
    widest = max(group.size for group in schedule)
    picks = np.arange(
        0, widest * num_blocks * width, width, dtype=np.int64
    ).reshape(widest, num_blocks)
    # Flat (row, block, partner) positions of every absent partner,
    # split by level and rebased to each level's first row.
    row_size = num_blocks * width
    missing = np.flatnonzero(np.repeat(absent[:, None, :], num_blocks, 1))
    sizes = np.array([group.size for group in schedule], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    cuts = np.searchsorted(missing, starts * row_size)
    groups = []
    for index, size in enumerate(sizes.tolist()):
        start, stop = starts[index], starts[index + 1]
        lo, hi = cuts[index], cuts[index + 1]
        groups.append(LevelGroup(
            keys=keys[start:stop],
            partners=partners[start:stop],
            absent=missing[lo:hi] - start * row_size if hi > lo else None,
            picks=picks[:size],
        ))
    return tuple(groups)


class TileSchedule:
    """Value-independent matcher state of one tile.

    Built once per neighbor table (gathers cache it per token layout,
    see :class:`repro.core.gather.TilePlan`), it holds everything a
    match call would otherwise rebuild: the validated table, its
    dependency levels, the per-lane comparison counts and, per k-block
    count, the :class:`LevelGroup` index structures.

    Attributes:
        table: ``(n, m)`` neighbor table; for a stack of lanes, their
            :func:`block_diagonal` table.
        partners: ``(lanes,)`` valid partner entries per lane (a lane
            is a run of ``n // lanes`` rows); a match performs this
            many comparisons per k-block.
    """

    def __init__(
        self,
        table: np.ndarray,
        levels: np.ndarray | None = None,
        lanes: int = 1,
    ) -> None:
        table = np.asarray(table, dtype=np.int64)
        _validate_tile(table, table.shape[0])
        self.table = table
        self.partners = np.count_nonzero(
            table.reshape(lanes, -1) >= 0, axis=1
        ).astype(np.int64)
        self._levels = levels
        self._groups: dict[int, tuple[LevelGroup, ...]] = {}

    @classmethod
    def stacked(cls, tables: np.ndarray) -> "TileSchedule":
        """The schedule of ``(S, n, m)`` lane tables matched as one
        block-diagonal tile."""
        tables = np.asarray(tables, dtype=np.int64)
        return cls(block_diagonal(tables), lanes=tables.shape[0])

    def groups(self, num_blocks: int) -> tuple[LevelGroup, ...]:
        """The level groups for ``num_blocks`` vectors per row."""
        groups = self._groups.get(num_blocks)
        if groups is None:
            if self._levels is None:
                self._levels = partner_levels(self.table)
            groups = self._groups[num_blocks] = build_level_groups(
                self.table, self._levels, num_blocks
            )
        return groups


@dataclass
class MatchOutcome:
    """Result of matching one tile.

    Attributes:
        reps: Integer array of shape ``(num_blocks, n)``; entry
            ``[b, i]`` is the local row index of the representative of
            token ``i``'s ``b``-th vector (``i`` itself when unique).
        comparisons: Pairwise vector comparisons performed.
    """

    reps: np.ndarray
    comparisons: int

    def unique_counts(self) -> np.ndarray:
        """Unique-vector count per k-block (the concentrated tile
        lengths of Fig. 13)."""
        n = self.reps.shape[1]
        own = np.arange(n)
        return (self.reps == own[None, :]).sum(axis=1)


@dataclass
class BatchMatchOutcome:
    """Result of matching one tile across a stack of samples.

    Attributes:
        reps: Integer array of shape ``(S, num_blocks, n)``; slice
            ``[s]`` is bit-identical to the ``reps`` of a per-sample
            :class:`MatchOutcome` for sample ``s``.
        comparisons: ``(S,)`` pairwise vector comparisons per sample
            (a pure function of each sample's neighbor table).
    """

    reps: np.ndarray
    comparisons: np.ndarray

    def unique_counts(self) -> np.ndarray:
        """Per-sample unique-vector count per k-block, ``(S, B)``."""
        n = self.reps.shape[2]
        own = np.arange(n)
        return (self.reps == own[None, None, :]).sum(axis=2)


def block_diagonal(tables: np.ndarray) -> np.ndarray:
    """Stack ``(S, n, m)`` lane tables into one ``(S * n, m)`` table.

    Lane ``s``'s partner indices are offset by ``s * n``, so the result
    is the neighbor table of the lanes' tiles laid end to end: every
    partner still precedes its key, and no row reaches into another
    lane.
    """
    tables = np.asarray(tables, dtype=np.int64)
    num_lanes, n, m = tables.shape
    offsets = (np.arange(num_lanes, dtype=np.int64) * n)[:, None, None]
    return np.where(tables >= 0, tables + offsets, -1).reshape(
        num_lanes * n, m
    )


def _validate_tile(table: np.ndarray, n: int) -> None:
    """One vectorized pre-check per tile (not per row): the table must
    cover the tile and every partner must precede its key."""
    if table.shape[0] != n:
        raise ValueError("neighbor table does not cover the tile")
    if table.size and (table >= np.arange(n)[:, None]).any():
        raise ValueError("partner indices must precede the key")


class SimilarityMatcher:
    """Streaming cosine matcher over padded k-block vectors."""

    def __init__(self, threshold: float) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        self.threshold = threshold

    @staticmethod
    def split_blocks(x: np.ndarray, vector_size: int) -> np.ndarray:
        """Split ``(n, k)`` rows into zero-padded ``(n, B, v)`` blocks.

        Zero padding leaves dot products and norms unchanged, so a
        ragged final block behaves identically to the hardware's
        shorter last vector.  When ``v`` divides ``k`` there is no
        padding, and the result is a reshaped view of ``x``.
        """
        x = np.asarray(x, dtype=np.float32)
        n, k = x.shape
        v = min(vector_size, k) if vector_size > 0 else k
        num_blocks = -(-k // v)
        if num_blocks * v == k:
            return x.reshape(n, num_blocks, v)
        padded = np.zeros((n, num_blocks * v), dtype=np.float32)
        padded[:, :k] = x
        return padded.reshape(n, num_blocks, v)

    def match_tile_reference(
        self,
        blocks: np.ndarray,
        neighbor_table: np.ndarray,
        norms: np.ndarray | None = None,
    ) -> MatchOutcome:
        """The retained row-at-a-time oracle (original serial matcher)."""
        blocks = np.asarray(blocks, dtype=np.float32)
        n, num_blocks, _ = blocks.shape
        table = np.asarray(neighbor_table, dtype=np.int64)
        _validate_tile(table, n)

        if norms is None:
            norms = np.linalg.norm(blocks, axis=2)
        reps = np.tile(np.arange(n, dtype=np.int64), (num_blocks, 1))
        block_range = np.arange(num_blocks)
        comparisons = 0

        for i in range(n):
            partners = table[i][table[i] >= 0]
            if partners.size == 0:
                continue
            # Stored values: each partner's vector was possibly replaced
            # by its representative; compare against what the compact
            # buffer actually holds.
            partner_reps = reps[:, partners].T          # (m, B)
            stored = blocks[partner_reps, block_range[None, :], :]  # (m, B, v)
            stored_norms = norms[partner_reps, block_range[None, :]]
            dots = np.einsum("mbv,bv->mb", stored, blocks[i])
            denom = stored_norms * norms[i][None, :]
            sims = np.where(
                denom > NORM_EPS * NORM_EPS,
                dots / np.maximum(denom, NORM_EPS * NORM_EPS),
                # Two exact-zero vectors are identical; a zero against a
                # non-zero is maximally dissimilar.
                np.where(
                    (stored_norms < NORM_EPS) & (norms[i][None, :] < NORM_EPS),
                    1.0,
                    0.0,
                ),
            )
            comparisons += int(sims.size)
            best = np.argmax(sims, axis=0)
            best_sims = sims[best, block_range]
            matched = best_sims > self.threshold
            if matched.any():
                chosen = partner_reps[best, block_range]
                reps[matched, i] = chosen[matched]
        return MatchOutcome(reps=reps, comparisons=comparisons)

    def match_tile_wavefront(
        self,
        blocks: np.ndarray,
        neighbor_table: np.ndarray,
        levels: np.ndarray | None = None,
        norms: np.ndarray | None = None,
        schedule: TileSchedule | None = None,
    ) -> MatchOutcome:
        """Level-scheduled matcher, bit-identical to the reference.

        Rows are grouped by dependency level; all rows of one level
        resolve in a single batched gather + dot-product/threshold
        pass.  Per-row float operations (dot products over the
        contiguous ``v`` axis, norm products, threshold comparisons,
        first-maximum argmax over a row's partners in table order) are
        the very same elementwise kernels the serial loop runs, so the
        representatives agree bit for bit while the Python-level
        iteration count drops from ``n`` to the DAG depth.

        Args:
            blocks: ``(n, B, v)`` zero-padded vectors (see
                :meth:`split_blocks`).
            neighbor_table: ``(n, n_offsets)`` local partner indices,
                ``-1`` for absent partners (from
                :func:`repro.core.blocks.build_neighbor_table`); every
                valid partner index is smaller than the key index.
            levels: Optional precomputed :func:`partner_levels` of the
                table (computed on the fly otherwise).
            norms: Optional precomputed ``(n, B)`` L2 norms of
                ``blocks`` — callers gathering many tiles compute them
                once for the whole matrix and pass slices.
            schedule: Optional :class:`TileSchedule` of the table,
                built (and the table validated) here when ``None``;
                when given, it stands for ``neighbor_table``.

        Returns:
            Representative assignments and comparison count.
        """
        blocks = np.asarray(blocks, dtype=np.float32)
        n, num_blocks, vector = blocks.shape
        if schedule is None:
            schedule = TileSchedule(neighbor_table, levels)
        if schedule.table.shape[0] != n:
            raise ValueError("neighbor table does not cover the tile")
        if norms is None:
            norms = np.linalg.norm(blocks, axis=2)
        # reps[i * B + b]: slot of the representative of vector b of
        # row i (see LevelGroup); every vector starts as its own.
        reps = np.arange(n * num_blocks, dtype=np.int64)
        flat_blocks = blocks.reshape(n * num_blocks, vector)
        flat_norms = norms.reshape(n * num_blocks)
        threshold = np.float64(self.threshold)
        # When the smallest norm's square clears eps^2, every
        # denominator does (float32 rounding is monotone), so the
        # guarded quotient of the reference reduces to dots / denom.
        # Sims stay float32; the float64 threshold compares them
        # exactly, as the reference's float64 sims are compared.
        smallest = flat_norms.min() if flat_norms.size else np.float32(1)
        exact = bool(smallest * smallest > NORM_EPS * NORM_EPS)

        for group in schedule.groups(num_blocks):
            # Partners' representatives are final: their levels are
            # strictly lower, so earlier iterations fixed them.
            stored = reps.take(group.partners)          # (r, B, m)
            stored_norms = flat_norms.take(stored)
            key_norms = flat_norms.take(group.keys)[:, :, None]
            sims = np.einsum(
                "rbmv,rbv->rbm",
                flat_blocks.take(stored, axis=0),
                flat_blocks.take(group.keys, axis=0),
            )
            if exact:
                stored_norms *= key_norms
                sims /= stored_norms
            else:
                sims = _guarded_cosine(sims, stored_norms, key_norms)
            # Absent partners never win: -inf loses to every real
            # similarity, and compaction order == table order, so the
            # first-maximum argmax picks the same partner the serial
            # loop picks over its compacted partner list.
            if group.absent is not None:
                sims.put(group.absent, -np.inf)
            best = sims.argmax(axis=2)
            best += group.picks
            matched = sims.take(best) > threshold
            reps.put(group.keys, np.where(matched, stored.take(best),
                                          group.keys))
        comparisons = int(schedule.partners.sum()) * num_blocks
        return MatchOutcome(
            reps=(reps // num_blocks).reshape(n, num_blocks).T,
            comparisons=comparisons,
        )

    match_tile = match_tile_wavefront
    """Match one tile (see :meth:`match_tile_wavefront`)."""

    def match_tile_batch(
        self,
        blocks: np.ndarray,
        neighbor_table: np.ndarray,
        norms: np.ndarray | None = None,
        schedule: TileSchedule | None = None,
    ) -> BatchMatchOutcome:
        """Match one tile across a stack of samples in one pass.

        ``blocks`` is ``(S, n, B, v)`` — the per-sample ``(n, B, v)``
        tiles of :meth:`match_tile` stacked along a leading sample
        axis.  ``neighbor_table`` is either one shared ``(n, m)``
        table or a stacked ``(S, n, m)`` array with a *different*
        table per sample (the post-pruning case, where lanes of one
        batch have diverged layouts).  The stack runs through
        :meth:`match_tile_wavefront` as one ``S * n``-row tile with
        the :func:`block_diagonal` table.  ``schedule``, when given,
        is :meth:`TileSchedule.stacked` of these tables, so a caller
        that caches it skips the per-call block-diagonal build,
        validation and comparison count.  Rows of different
        lanes never meet, and the per-row float kernels do not depend
        on which other rows share a level, so slice ``s`` of the
        result is bit-identical to ``match_tile(blocks[s],
        tables[s])`` — the property ``tests/test_batched_forward.py``
        locks in differentially.
        """
        blocks = np.asarray(blocks, dtype=np.float32)
        num_samples, n, num_blocks, v = blocks.shape
        if schedule is None:
            tables = np.asarray(neighbor_table, dtype=np.int64)
            if tables.ndim == 2:
                tables = np.broadcast_to(
                    tables, (num_samples,) + tables.shape
                )
            if tables.shape[:2] != (num_samples, n):
                raise ValueError("stacked tables do not cover the stack")
            schedule = TileSchedule.stacked(tables)
        elif schedule.partners.shape != (num_samples,):
            raise ValueError("stacked tables do not cover the stack")
        if norms is not None:
            norms = norms.reshape(num_samples * n, num_blocks)
        outcome = self.match_tile_wavefront(
            blocks.reshape(num_samples * n, num_blocks, v),
            schedule.table, norms=norms, schedule=schedule,
        )
        offsets = np.arange(num_samples, dtype=np.int64)[:, None, None] * n
        reps = outcome.reps.reshape(
            num_blocks, num_samples, n
        ).transpose(1, 0, 2) - offsets
        return BatchMatchOutcome(
            reps=reps, comparisons=schedule.partners * num_blocks
        )


def _guarded_cosine(
    dots: np.ndarray, stored_norms: np.ndarray, key_norms: np.ndarray
) -> np.ndarray:
    """Cosine similarity with the reference's zero-norm rules, float64.

    Two exact-zero vectors are identical; a zero against a non-zero is
    maximally dissimilar; the quotient's denominator is floored at
    eps^2.  Used for tiles holding a norm too small for the plain
    quotient (see :meth:`SimilarityMatcher.match_tile_wavefront`).
    """
    eps_sq = NORM_EPS * NORM_EPS
    denom = stored_norms * key_norms
    return np.where(
        denom > eps_sq,
        dots / np.maximum(denom, eps_sq),
        np.where(
            (stored_norms < NORM_EPS) & (key_norms < NORM_EPS), 1.0, 0.0
        ),
    )
