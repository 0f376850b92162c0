"""The Focus plugin: multilevel concentration over a forward pass.

:class:`FocusPlugin` wires the Semantic Concentrator (SEC) and the
Similarity Concentrator (SIC: gather + scatter) into the inference
engine's hook points, mirroring how the Focus Unit sits between the
compute core and the memory interface (Fig. 4):

* at schedule layers, ``after_attention_probs`` runs the SEC and
  prunes low-relevance image tokens;
* at every ``qkv`` / ``o_proj`` / ``fc1`` GEMM, ``gemm_input`` runs the
  similarity gather on the incoming activation, records the
  concentrated tile statistics, and annotates the producer GEMM's
  write-back compression.

Ablation switches reproduce Fig. 11 (SEC only / SEC+SIC) and the
token-wise variant of Fig. 2(c).

The plugin stacks: the SEC runs per lane on each lane's probability
slice (its fixed budget keeps lanes in lockstep), and the SIC runs
*one* gather over the whole stack, in which each m-tile of the stack
is matched as one block-diagonal tile
(:meth:`~repro.core.gather.SimilarityGather.gather_batch`), so even
lanes whose layouts diverged after semantic pruning resolve in a
single matcher pass.

Tile plans are cached *content-addressed*: the gather's cache token is
:func:`layout_digest`, a digest of the token layout (positions + text
mask + grid), so identical layouts — across gather sites, samples,
and the lanes of a stack — resolve to one cached plan, and a plan is
never served to a different layout.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.config import DEFAULT_CONFIG, FocusConfig
from repro.core.blocks import linear_index
from repro.core.gather import SimilarityGather
from repro.core.scatter import scatter_accumulation_ops
from repro.core.semantic import SemanticConcentrator
from repro.model.plugins import DedupStats, InferencePlugin
from repro.model.spec import ModelConfig
from repro.model.vlm import BatchState, SyntheticVLM, TokenState

GATHER_SITES = ("qkv", "o_proj", "fc1")
"""GEMMs whose inputs are outputs of FFN / PV / O-projection — the
similarity-gather sites of Sec. VI-A."""


def layout_digest(state: TokenState) -> str:
    """Content digest of a token state's layout.

    Two states with equal digests have bit-identical positions, text
    masks, and grids, so they can share neighbor tables and wavefront
    schedules.  Memoized per state and
    :attr:`~repro.model.vlm.TokenState.version` in the state's scratch
    dict (the layout only changes when the version does).
    """
    cached = state.scratch.get("_layout_digest")
    if cached is not None and cached[0] == state.version:
        return cached[1]
    hasher = hashlib.sha1()
    hasher.update(np.ascontiguousarray(state.positions).tobytes())
    hasher.update(np.ascontiguousarray(state.is_text).tobytes())
    hasher.update(repr((state.grid, state.positions.shape)).encode("utf-8"))
    digest = hasher.hexdigest()
    state.scratch["_layout_digest"] = (state.version, digest)
    return digest


class FocusPlugin(InferencePlugin):
    """Streaming multilevel concentration for a synthetic VLM."""

    reusable = True
    """One instance drives any number of forward passes: the SEC and
    gather engine are configuration-only, and the tile-plan cache is
    keyed by :func:`layout_digest`, so a plan built for one sample
    serves another only when their layouts are identical."""

    stackable = True
    """The fixed-budget SEC prunes every lane of a same-shape stack to
    the same count at the same layers."""

    def __init__(
        self,
        model: SyntheticVLM | ModelConfig | int,
        config: FocusConfig = DEFAULT_CONFIG,
        enable_sec: bool = True,
        enable_sic: bool = True,
        token_wise: bool = False,
    ) -> None:
        """Create a Focus plugin.

        Args:
            model: The model (or its config, or just its layer count)
                the plugin will run under; needed to scale the
                retention schedule.
            config: Focus hyper-parameters.
            enable_sec: Run semantic (token-level) pruning.
            enable_sic: Run vector-level similarity concentration.
            token_wise: Compare whole tokens instead of sub-vectors
                (Fig. 2(c) ablation; implies coarser granularity).
        """
        if isinstance(model, SyntheticVLM):
            num_layers = model.config.num_layers
        elif isinstance(model, ModelConfig):
            num_layers = model.num_layers
        else:
            num_layers = int(model)
        self.config = config
        self.enable_sec = enable_sec
        self.enable_sic = enable_sic
        self.sec = SemanticConcentrator(config, num_layers)
        self.gather_engine = SimilarityGather(config, token_wise=token_wise)

    def after_attention_probs(
        self, layer_index: int, probs: np.ndarray, batch: BatchState
    ) -> list[np.ndarray] | None:
        if not self.enable_sec:
            return None
        keeps: list[np.ndarray | None] = []
        for index, lane in enumerate(batch.lanes):
            grid_linear = linear_index(
                np.maximum(lane.positions, 0), lane.grid
            )
            decision = self.sec.prune(
                layer_index,
                probs[index],
                lane.is_text,
                lane.num_image_initial,
                grid_linear,
            )
            if decision is None:
                keeps.append(None)
                continue
            lane.trace.metadata_bits += decision.metadata_bits
            lane.trace.sec_events.append(decision.event)
            keeps.append(decision.keep)
        pruned = [k for k in keeps if k is not None]
        if not pruned:
            return None
        if len(pruned) != len(keeps):
            # Cannot happen for the fixed-budget SEC (equal initial
            # counts + exact-k selection keep lanes in lockstep), but a
            # ragged prune would silently desynchronize the stack.
            raise RuntimeError(
                "semantic pruning diverged across lanes of one batch"
            )
        return pruned

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        batch: BatchState,
        producers,
        n: int,
    ) -> tuple[np.ndarray, list[DedupStats | None]]:
        if not self.enable_sic or site not in GATHER_SITES:
            return x, [None] * batch.num_lanes
        lanes = batch.lanes
        result = self.gather_engine.gather_batch(
            x,
            [lane.positions for lane in lanes],
            [lane.is_text for lane in lanes],
            lanes[0].grid,
            cache_token=[layout_digest(lane) for lane in lanes],
        )
        stats_list: list[DedupStats | None] = []
        num_rows = x.shape[1]
        for lane, r in zip(lanes, result.per_sample):
            stats_list.append(DedupStats(
                unique_vectors=r.unique_total,
                total_vectors=r.total_vectors,
                map_bits=r.map_bits,
                vector_size=r.vector_size,
                tile_lengths=r.tile_lengths,
                tile_rows=r.tile_rows,
                scatter_ops=scatter_accumulation_ops(
                    num_rows, n, r.reps.shape[0]
                ),
            ))
            lane.trace.sic_comparisons += r.comparisons
        return result.x_approx, stats_list
