"""FrameFusion baseline (Fu et al., 2024).

FrameFusion combines *similarity* and *importance* for video token
reduction: in an early layer it merges tokens that are highly similar
to the token at the same spatial position of the previous frame, then
prunes the least-important remaining tokens (by attention received)
until a fixed compute-sparsity budget is met.  The paper runs it at a
70% sparsity target (Table II's "FF" column) as a software-only method
on the GPU.
"""

from __future__ import annotations

import numpy as np

from repro.model.functional import cosine_similarity_matrix
from repro.model.plugins import InferencePlugin
from repro.model.spec import ModelConfig
from repro.model.vlm import BatchState, TokenState


class FrameFusionPlugin(InferencePlugin):
    """Similarity merge + importance prune at a fixed sparsity target."""

    needs_attention_summary = True
    """Importance pruning reads ``state.scratch["attn_received"]``; the
    engine computes it lazily only for plugins that declare the need."""

    reusable = True
    """The only cross-forward state, ``_token_history``, is reset in
    :meth:`begin`, so one instance may drive many passes."""

    def __init__(
        self,
        model_config: ModelConfig,
        target_sparsity: float = 0.70,
        merge_layer: int = 1,
        prune_layer: int = 2,
        merge_threshold: float = 0.6,
    ) -> None:
        """Create a FrameFusion plugin.

        Args:
            model_config: Geometry of the model (for the op-accurate
                sparsity budget).
            target_sparsity: Fraction of dense compute to eliminate.
            merge_layer: Layer before which temporal merging runs.
            prune_layer: Layer before which importance pruning runs.
            merge_threshold: Hidden-state cosine above which a token is
                merged into its previous-frame counterpart.
        """
        if not 0.0 <= target_sparsity < 1.0:
            raise ValueError("target_sparsity must lie in [0, 1)")
        if prune_layer <= merge_layer:
            raise ValueError("pruning must follow merging")
        self.model_config = model_config
        self.num_layers = model_config.num_layers
        self.target_sparsity = target_sparsity
        self.merge_layer = merge_layer
        self.prune_layer = prune_layer
        self.merge_threshold = merge_threshold
        self._token_history: list[int] = []

    def _layer_ops(self, tokens: int) -> float:
        """Per-layer MACs at a given token count (linear + quadratic)."""
        d = self.model_config.hidden
        ffn = self.model_config.ffn_hidden
        linear = d * (4 * d + 2 * ffn)
        quadratic = 2 * d
        return linear * tokens + quadratic * tokens * tokens

    def begin(self, batch: BatchState) -> None:
        self._token_history = []

    def before_layer(self, layer_index: int, state: TokenState) -> None:
        self._token_history.append(state.num_tokens)
        if layer_index == self.merge_layer:
            self._merge_temporal(state)
        elif layer_index == self.prune_layer:
            self._prune_importance(state)

    def _merge_temporal(self, state: TokenState) -> None:
        """Merge tokens similar to their previous-frame counterpart."""
        image = ~state.is_text
        positions = state.positions
        hidden = state.hidden
        lookup: dict[tuple[int, int, int], int] = {}
        for idx in np.nonzero(image)[0]:
            frame, row, col = (int(v) for v in positions[idx])
            lookup[(frame, row, col)] = int(idx)

        drop = np.zeros(state.num_tokens, dtype=bool)
        comparisons = 0
        for (frame, row, col), idx in lookup.items():
            if frame == 0 or drop[idx]:
                continue
            prev = lookup.get((frame - 1, row, col))
            if prev is None or drop[prev]:
                continue
            comparisons += 1
            sim = cosine_similarity_matrix(
                hidden[idx:idx + 1], hidden[prev:prev + 1]
            )[0, 0]
            if sim > self.merge_threshold:
                # Average into the earlier token, drop the later one.
                hidden[prev] = 0.5 * (hidden[prev] + hidden[idx])
                drop[idx] = True
        state.trace.preprocess_macs += comparisons * hidden.shape[1]
        if drop.any():
            state.hidden = hidden
            state.apply_keep(~drop)

    def _prune_importance(self, state: TokenState) -> None:
        """Prune least-attended tokens to hit the sparsity budget."""
        budget = self._keep_budget(state)
        image_indices = np.nonzero(~state.is_text)[0]
        if image_indices.size <= budget:
            return
        received = state.scratch.get("attn_received")
        if received is None:
            return
        importance = np.asarray(received)[image_indices]
        order = np.argsort(-importance, kind="stable")
        keep = np.ones(state.num_tokens, dtype=bool)
        keep[image_indices[order[budget:]]] = False
        state.trace.preprocess_macs += int(importance.size)
        state.apply_keep(keep)

    def _keep_budget(self, state: TokenState) -> int:
        """Image tokens to keep so total compute hits the target.

        With some layers already executed at recorded token counts, the
        per-layer allowance for the remaining layers solves the
        quadratic ``linear * s + quadratic * s^2 = allowance`` for the
        total token count ``s`` (attention is quadratic in tokens).
        """
        num_text = state.num_text
        dense_tokens = state.num_image_initial + num_text
        dense_total = self.num_layers * self._layer_ops(dense_tokens)
        executed = sum(self._layer_ops(s) for s in self._token_history[:-1])
        remaining = self.num_layers - max(len(self._token_history) - 1, 0)
        allowance = (1.0 - self.target_sparsity) * dense_total - executed
        per_layer = allowance / max(remaining, 1)

        d = self.model_config.hidden
        linear = d * (4 * d + 2 * self.model_config.ffn_hidden)
        quadratic = 2 * d
        discriminant = linear * linear + 4 * quadratic * max(per_layer, 0.0)
        tokens_total = (-linear + np.sqrt(discriminant)) / (2 * quadratic)
        return max(int(tokens_total) - num_text, 1)
