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

Tile plans are cached *content-addressed*: the gather's cache token is
:func:`layout_digest`, a digest of the token layout (positions + text
mask + grid), so identical layouts — across gather sites, samples,
and the lanes of a batched pass — resolve to one cached plan, and a
plan is never served to a different layout.
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
from repro.model.vlm import SyntheticVLM, TokenState

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
        self, layer_index: int, probs: np.ndarray, state: TokenState
    ) -> np.ndarray | None:
        if not self.enable_sec:
            return None
        grid_linear = linear_index(
            np.maximum(state.positions, 0), state.grid
        )
        decision = self.sec.prune(
            layer_index,
            probs,
            state.is_text,
            state.num_image_initial,
            grid_linear,
        )
        if decision is None:
            return None
        state.trace.metadata_bits += decision.metadata_bits
        state.trace.sec_events.append(decision.event)
        return decision.keep

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        state: TokenState,
        producer,
        n: int,
    ) -> tuple[np.ndarray, DedupStats | None]:
        if not self.enable_sic or site not in GATHER_SITES:
            return x, None
        result = self.gather_engine.gather(
            x,
            state.positions,
            state.is_text,
            state.grid,
            cache_token=layout_digest(state),
        )
        stats = DedupStats(
            unique_vectors=result.unique_total,
            total_vectors=result.total_vectors,
            map_bits=result.map_bits,
            vector_size=result.vector_size,
            tile_lengths=result.tile_lengths,
            tile_rows=result.tile_rows,
            scatter_ops=scatter_accumulation_ops(
                x.shape[0], n, result.reps.shape[0]
            ),
        )
        state.trace.sic_comparisons += result.comparisons
        return result.x_approx, stats
