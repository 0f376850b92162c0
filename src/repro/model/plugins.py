"""Inference plugin protocol.

Every efficiency method in the paper — Focus, FrameFusion, AdapTiV,
CMC — is a transformation of the token stream at specific points of
the forward pass.  The :class:`InferencePlugin` interface exposes
those points; the engine (:mod:`repro.model.vlm`) stays method-agnostic
and the methods never duplicate transformer code.

The engine has one forward path: a stack of same-shape samples
(``lanes``) runs as one pass, and a single sample is a one-lane stack.
Hooks that see the whole stack take the
:class:`~repro.model.vlm.BatchState`; hooks that change one sample's
token set take that lane's :class:`~repro.model.vlm.TokenState`, are
called once per lane, and the engine re-stacks afterwards.  Hook order
within one forward pass::

    begin(batch)
    on_visual_tokens(lane)             # per lane: entry compression
                                       # (AdapTiV, CMC)
    for each layer:
        before_layer(layer, lane)      # per lane: token merging
                                       # (FrameFusion)
        gemm_input(layer, "qkv", ...)  # vector dedup (Focus SIC)
        after_attention_probs(...)     # semantic pruning (Focus SEC)
        gemm_input(layer, "o_proj", ...)
        gemm_input(layer, "fc1", ...)
    finish(batch)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.accel.trace import GemmTrace
    from repro.model.vlm import BatchState, TokenState


@dataclass
class DedupStats:
    """Outcome of a similarity-gather on one GEMM input.

    Attributes:
        unique_vectors: Total unique vectors over all
            (m-tile, k-block) pairs.
        total_vectors: Vector count before gathering.
        map_bits: Similarity-map metadata bits.
        tile_lengths: Unique-vector count per (m-tile, k-block); feeds
            the Fig. 13 histogram.
        tile_rows: Row count of the tile each entry came from.
        scatter_ops: Accumulations needed to scatter the concentrated
            partial sums back to the full output.
    """

    unique_vectors: int
    total_vectors: int
    map_bits: int
    vector_size: int = 32
    tile_lengths: list[int] = field(default_factory=list)
    tile_rows: list[int] = field(default_factory=list)
    scatter_ops: int = 0


class InferencePlugin:
    """Base plugin: all hooks are no-ops (dense execution)."""

    needs_attention_summary: bool = False
    """Whether the engine should compute the per-key attention summary
    (``lane.scratch["attn_received"]``, mean attention received over
    heads and queries) for every lane at every layer.
    Importance-style plugins (FrameFusion) set this; computing the
    summary lazily keeps an O(heads x s^2) reduction off every other
    method's hot path."""

    reusable: bool = False
    """Whether one instance may drive many forward passes.  A plugin
    is reusable when it carries no cross-forward state (or resets it
    in :meth:`begin`); the evaluation loop then constructs it once per
    cell instead of once per sample.  Defaults to ``False`` so
    stateful plugins stay correct by default."""

    stackable: bool = False
    """Whether the plugin keeps a stack of more than one lane in step.
    A stackable plugin prunes every lane to the same token count at
    the same points (so the stack stays rectangular) and keeps each
    lane's observable outputs bit-identical to a one-lane pass of that
    sample.  Plugins whose per-lane hooks or keep counts depend on the
    data do not stack; the engine refuses to run them on more than one
    lane, and the evaluation loop runs them one lane at a time."""

    def begin(self, batch: "BatchState") -> None:
        """Called once before the first layer."""

    def on_visual_tokens(self, state: "TokenState") -> None:
        """Entry-level token compression of one lane, before the LLM
        stack.

        Implementations mutate ``state`` (hidden/positions/masks) via
        :meth:`TokenState.apply_keep` or by replacing token values, and
        account their own search cost in
        ``state.trace.preprocess_macs``.
        """

    def before_layer(self, layer_index: int, state: "TokenState") -> None:
        """Called for each lane before each transformer layer."""

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        batch: "BatchState",
        producers: "list[GemmTrace | None]",
        n: int,
    ) -> tuple[np.ndarray, "list[DedupStats | None]"]:
        """Optionally concentrate the input of a projection GEMM.

        Args:
            layer_index: Current layer.
            site: ``"qkv"``, ``"o_proj"`` or ``"fc1"`` — the GEMMs whose
                inputs are outputs of FFN / PV / O-projection, i.e. the
                gather sites of the paper (Sec. VI-A, footnote 1).
            x: Stacked GEMM input of shape ``(lanes, tokens, k)``.
            batch: Current stack (per-lane token states hold the
                positions for block grouping).
            producers: Per-lane trace records of the GEMM that produced
                ``x``; implementations may annotate their output
                compression.
            n: Output width of the consuming GEMM (for scatter-op
                accounting).

        Returns:
            The (possibly approximated) stacked input and one
            :class:`DedupStats` per lane, or ``None`` for a lane that
            runs dense.
        """
        return x, [None] * batch.num_lanes

    def after_attention_probs(
        self,
        layer_index: int,
        probs: np.ndarray,
        batch: "BatchState",
    ) -> "list[np.ndarray] | None":
        """Optionally select tokens to keep after the attention softmax.

        Args:
            probs: Stacked attention probabilities of shape
                ``(lanes, heads, tokens, tokens)`` for the *current*
                token set.

        Returns:
            One boolean keep-mask over tokens per lane — every mask
            keeps the same number of tokens, so the stack stays
            rectangular — or ``None`` to keep all.
        """
        return None

    def finish(self, batch: "BatchState") -> None:
        """Called once after the last layer."""


DENSE_PLUGIN = InferencePlugin()
"""Shared no-op plugin instance for dense runs."""
