"""Similarity Gather: per-GEMM-tile vector deduplication (Sec. VI-A).

The gather walks the token stream in m-tiles (Table I: ``m = 1024``),
splits each tile's rows into k-blocks of ``vector_size`` columns, and
runs the streaming matcher within spatiotemporal comparison blocks.
Matching never crosses a tile boundary — the property behind the
Fig. 10(a) tile-size/latency trade-off — and text tokens (which have no
FHW position) are always stored as unique.

One code path serves one sample and a stack of samples:
:meth:`SimilarityGather.gather_batch` runs each m-tile of the stack as
one block-diagonal matcher tile
(:meth:`~repro.core.matching.SimilarityMatcher.match_tile_batch`), and
:meth:`SimilarityGather.gather` is its one-lane case.

Hot-path layout: everything that depends only on the *token set* (tile
spans, neighbor tables, wavefront schedules) is computed once per set
and cached as a :class:`TilePlan` keyed on the lanes' cache tokens and
the tile.  Callers pass content-addressed layout digests
(:func:`repro.core.pipeline.layout_digest`), so all gather sites (qkv /
o_proj / fc1) of every layer between two semantic-pruning events — and
every sample with the same layout — share one plan.  Everything that
depends on the *values* (padded k-blocks, L2 norms) is computed once
per gather call and sliced per tile instead of being rebuilt inside
the matcher.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.config import FocusConfig
from repro.core.blocks import build_neighbor_table, comparisons_in_table
from repro.core.matching import SimilarityMatcher, TileSchedule

__all__ = [
    "BatchGatherResult",
    "GatherResult",
    "SimilarityGather",
    "TABLE_CACHE_MAX_ENTRIES",
    "TilePlan",
    "comparisons_in_table",
]

TABLE_CACHE_MAX_ENTRIES = 64
"""Upper bound on cached tile plans per gather engine.

A forward pass needs at most ``ceil(tokens / m_tile)`` plans per
token set, and a pass sees one token set per semantic-pruning event,
so 64 comfortably covers every model in the zoo while keeping a
long-lived gather (streaming service, benchmark loop) at bounded
memory."""


@dataclass
class TilePlan:
    """Token-set-dependent (value-independent) state of one m-tile.

    Attributes:
        table: ``(S, rows, n_offsets)`` local partner indices, one
            table per lane (``S = 1`` for a single sample; lanes may
            differ after semantic pruning diverges their layouts).
        schedule: :meth:`~repro.core.matching.TileSchedule.stacked`
            of ``table`` — the validated block-diagonal table, its
            per-lane comparison counts and the wavefront matcher's
            per-level index structures for the whole stack.
    """

    table: np.ndarray
    schedule: TileSchedule


@dataclass
class GatherResult:
    """Outcome of gathering one GEMM input matrix.

    Attributes:
        x_approx: The input with every redundant vector replaced by its
            representative's value (what the scatter reconstructs).
        reps: Global representative row per ``(k_block, row)``; a row
            maps to itself when unique.
        vector_size: Effective vector length used.
        unique_total: Total unique vectors over all (tile, k-block).
        total_vectors: Vector count before concentration.
        tile_lengths: Unique count per (tile, k-block) — Fig. 13 data.
        tile_rows: Row count of the tile each entry came from (for
            normalizing tile lengths to paper-scale tiles).
        map_bits: Similarity-map metadata bits.
        comparisons: Pairwise comparisons performed by the matcher.
    """

    x_approx: np.ndarray
    reps: np.ndarray
    vector_size: int
    unique_total: int
    total_vectors: int
    tile_lengths: list[int] = field(default_factory=list)
    tile_rows: list[int] = field(default_factory=list)
    map_bits: int = 0
    comparisons: int = 0

    @property
    def compression_ratio(self) -> float:
        """Original vectors per stored vector (>= 1)."""
        if self.unique_total == 0:
            return 1.0
        return self.total_vectors / self.unique_total


@dataclass
class BatchGatherResult:
    """Outcome of gathering one GEMM input across a stack of samples.

    Attributes:
        x_approx: ``(S, tokens, k)`` concentrated inputs; slice ``s``
            is bit-identical to the per-sample
            :attr:`GatherResult.x_approx`.
        per_sample: One :class:`GatherResult` per stack slice (each
            ``x_approx`` a view into the stacked array), carrying the
            exact statistics the serial gather would have produced.
    """

    x_approx: np.ndarray
    per_sample: list[GatherResult]


class SimilarityGather:
    """Tile-local vector deduplication engine."""

    def __init__(
        self, config: FocusConfig, token_wise: bool = False
    ) -> None:
        """Create a gather engine.

        Args:
            config: Focus hyper-parameters (tile size, block shape,
                vector length, threshold).
            token_wise: When ``True``, compare whole tokens instead of
                sub-vectors (the "Ours token-wise" ablation of
                Fig. 2(c)).
        """
        self.config = config
        self.token_wise = token_wise
        self.matcher = SimilarityMatcher(config.similarity_threshold)
        self._table_cache: OrderedDict[tuple, TilePlan] = OrderedDict()

    def _tile_plan(
        self,
        lane_positions: list[np.ndarray],
        lane_text: list[np.ndarray],
        grid: tuple[int, int, int],
        tile: tuple[int, int],
        lane_tokens: list,
    ) -> TilePlan:
        """Stacked partner tables + wavefront schedule for one tile.

        Plans are cached per ``(lane tokens, tile)`` when every lane
        has a token, under an LRU cap of
        :data:`TABLE_CACHE_MAX_ENTRIES`.  Tokens must be
        content-addressed (equal tokens mean equal layouts): that is
        what lets samples and lanes share plans, and lanes with equal
        tokens share one table build.
        """
        key = (tuple(lane_tokens), tile)
        cacheable = all(token is not None for token in lane_tokens)
        if cacheable and key in self._table_cache:
            self._table_cache.move_to_end(key)
            return self._table_cache[key]

        built: dict = {}
        tables = []
        for positions, is_text, token in zip(
            lane_positions, lane_text, lane_tokens
        ):
            table = built.get(token)
            if table is None:
                table = self._lane_table(positions, is_text, grid, tile)
                if token is not None:
                    built[token] = table
            tables.append(table)
        table = np.stack(tables)
        plan = TilePlan(table=table, schedule=TileSchedule.stacked(table))
        if cacheable:
            self._table_cache[key] = plan
            while len(self._table_cache) > TABLE_CACHE_MAX_ENTRIES:
                self._table_cache.popitem(last=False)
        return plan

    def _lane_table(
        self,
        positions: np.ndarray,
        is_text: np.ndarray,
        grid: tuple[int, int, int],
        tile: tuple[int, int],
    ) -> np.ndarray:
        """Partner table for the rows of one tile of one lane; text
        rows receive no partners."""
        start, stop = tile
        image_local = np.nonzero(~is_text[start:stop])[0]
        table = np.full(
            (stop - start, max(1, self._num_offsets())), -1, dtype=np.int64
        )
        if image_local.size:
            image_table = build_neighbor_table(
                positions[start:stop][image_local], grid, self._block()
            )
            # local-image index -> tile-row index
            expanded = np.where(
                image_table >= 0, image_local[image_table], -1
            )
            table[image_local, : expanded.shape[1]] = expanded
        return table

    def _block(self) -> tuple[int, int, int]:
        cfg = self.config
        return (cfg.block_frames, cfg.block_height, cfg.block_width)

    def _num_offsets(self) -> int:
        return self.config.block_size - 1

    def gather(
        self,
        x: np.ndarray,
        positions: np.ndarray,
        is_text: np.ndarray,
        grid: tuple[int, int, int],
        cache_token: object | None = None,
    ) -> GatherResult:
        """Concentrate a GEMM input matrix: one lane of
        :meth:`gather_batch`.

        Args:
            x: Input of shape ``(tokens, k)`` in token-stream order.
            positions: ``(tokens, 3)`` FHW coordinates (text rows hold
                the sentinel and are skipped).
            is_text: Text mask.
            grid: Full FHW grid of the video.
            cache_token: Content-addressed key of the token layout
                (see :func:`repro.core.pipeline.layout_digest`);
                enables tile-plan reuse across gather sites and
                samples.  ``None`` disables caching.

        Returns:
            A :class:`GatherResult`; ``x_approx`` is bit-identical to
            scattering the concentrated GEMM (see
            :mod:`repro.core.scatter`).
        """
        return self.gather_batch(
            np.asarray(x, dtype=np.float32)[None], [positions], [is_text],
            grid, [cache_token],
        ).per_sample[0]

    def gather_batch(
        self,
        x_stack: np.ndarray,
        positions: "list[np.ndarray]",
        is_text: "list[np.ndarray]",
        grid: tuple[int, int, int],
        cache_token: "list | None" = None,
    ) -> BatchGatherResult:
        """Concentrate one GEMM input across a stack of samples.

        ``x_stack`` is ``(S, tokens, k)`` — the inputs of ``S`` samples
        stacked along a leading axis; ``positions``, ``is_text`` and
        ``cache_token`` hold one entry per lane (``cache_token=None``
        caches nothing).  Lanes whose layouts diverged after semantic
        pruning still run as *one* pass, because each tile of the
        stack is matched as one block-diagonal tile.  Per-sample
        slices of the result — values and statistics — are
        bit-identical to a gather of each slice alone with its own
        layout.  Cache tokens must be content-addressed layout keys,
        as for :meth:`gather`.
        """
        x_stack = np.asarray(x_stack, dtype=np.float32)
        num_samples, num_rows, k = x_stack.shape
        lane_positions = [np.asarray(p) for p in positions]
        lane_text = [np.asarray(t, dtype=bool) for t in is_text]
        lane_tokens = (
            [None] * num_samples if cache_token is None else list(cache_token)
        )
        if not (
            len(lane_positions) == len(lane_text) == len(lane_tokens)
            == num_samples
        ):
            raise ValueError("per-lane layouts must cover every sample")
        # Coverage is validated once here, not per tile: every tile
        # slices these same arrays.
        for pos, text in zip(lane_positions, lane_text):
            if pos.shape[:1] != (num_rows,) or text.shape != (num_rows,):
                raise ValueError(
                    "positions and is_text must cover every row of x"
                )
        vector_size = k if self.token_wise else min(self.config.vector_size, k)
        flat = self.matcher.split_blocks(
            x_stack.reshape(num_samples * num_rows, k), vector_size
        )
        blocks = flat.reshape((num_samples, num_rows) + flat.shape[1:])
        num_blocks = blocks.shape[2]
        # L2 norms once for the whole stack; the norm reduces over the
        # contiguous v axis row by row, so per-tile slices are
        # bit-identical to per-tile recomputation.  This is
        # np.linalg.norm's own formula for real input, without its
        # wrapper and its conjugate copy.
        norms = np.sqrt(np.add.reduce(blocks * blocks, axis=3))

        # Every row lies in exactly one tile, so the loop fills it all.
        reps_global = np.empty(
            (num_samples, num_blocks, num_rows), dtype=np.int64
        )
        tile_lengths: list[list[int]] = [[] for _ in range(num_samples)]
        tile_rows: list[list[int]] = [[] for _ in range(num_samples)]
        comparisons = np.zeros(num_samples, dtype=np.int64)
        m_tile = self.config.m_tile
        for start in range(0, num_rows, m_tile):
            stop = min(start + m_tile, num_rows)
            plan = self._tile_plan(
                lane_positions, lane_text, grid, (start, stop), lane_tokens
            )
            outcome = self.matcher.match_tile_batch(
                blocks[:, start:stop], plan.table,
                norms=norms[:, start:stop], schedule=plan.schedule,
            )
            reps_global[:, :, start:stop] = outcome.reps + start
            counts = outcome.unique_counts().tolist()   # (S, B)
            for s in range(num_samples):
                tile_lengths[s].extend(counts[s])
                tile_rows[s].extend([stop - start] * num_blocks)
            comparisons += outcome.comparisons

        total_vectors = num_rows * num_blocks
        map_bits = total_vectors * max(
            1, int(np.ceil(np.log2(max(2, min(m_tile, num_rows)))))
        )

        # One take assembles x_approx: k-block b of row i takes k-block
        # b of row reps_global[b, i], copied as one v-wide vector
        # rather than column by column.  Vector b of row i of lane s
        # is row (s * rows + i) * B + b of the flattened blocks.
        slots = reps_global.transpose(0, 2, 1) * num_blocks
        slots += np.arange(num_blocks)
        if num_samples > 1:
            slots += (
                np.arange(num_samples) * (num_rows * num_blocks)
            )[:, None, None]
        vector = blocks.shape[3]
        picked = flat.reshape(-1, vector).take(slots, axis=0).reshape(
            num_samples, num_rows, num_blocks * vector
        )
        x_approx = (
            picked if picked.shape[2] == k
            else np.ascontiguousarray(picked[:, :, :k])
        )

        per_sample = [
            GatherResult(
                x_approx=x_approx[s],
                reps=reps_global[s],
                vector_size=vector_size,
                unique_total=sum(tile_lengths[s]),
                total_vectors=total_vectors,
                tile_lengths=tile_lengths[s],
                tile_rows=tile_rows[s],
                map_bits=map_bits,
                comparisons=int(comparisons[s]),
            )
            for s in range(num_samples)
        ]
        return BatchGatherResult(x_approx=x_approx, per_sample=per_sample)
