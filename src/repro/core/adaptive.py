"""Adaptive (top-p) semantic pruning — the paper's stated extension.

Sec. VII-D: *"Future work may further enhance this strategy by
dynamically adapting to input contexts, e.g., using a post-softmax
attention threshold or top-p pruning, though such adaptation can
introduce runtime variations across inputs."*

:class:`AdaptiveSemanticConcentrator` implements exactly that: at each
schedule layer it keeps the smallest set of image tokens whose
cumulative (normalized) importance reaches a mass target ``p``, instead
of a fixed count.  Easy prompts (attention concentrated on few tokens)
prune harder; diffuse prompts keep more — trading deterministic
latency for input-adaptive sparsity.  A floor/ceiling pair bounds the
runtime variation the paper warns about.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.trace import SecEvent
from repro.config import FocusConfig
from repro.core.importance import importance_scores
from repro.core.offsets import encode_offsets, encoded_bits
from repro.core.pipeline import FocusPlugin
from repro.core.semantic import PruneDecision, SemanticConcentrator
from repro.model.spec import ModelConfig
from repro.model.vlm import SyntheticVLM


@dataclass(frozen=True)
class TopPSchedule:
    """Adaptive pruning parameters.

    Attributes:
        mass: Importance mass to retain at every schedule layer
            (the "p" of top-p).
        floor_ratio: Never keep fewer than this fraction of the fixed
            schedule's budget (bounds best-case runtime variation).
        ceiling_ratio: Never keep more than this multiple of the fixed
            schedule's budget (bounds worst-case latency).
    """

    mass: float = 0.90
    floor_ratio: float = 0.5
    ceiling_ratio: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 < self.mass <= 1.0:
            raise ValueError("mass must lie in (0, 1]")
        if self.floor_ratio <= 0 or self.ceiling_ratio < self.floor_ratio:
            raise ValueError("need 0 < floor_ratio <= ceiling_ratio")


class AdaptiveSemanticConcentrator(SemanticConcentrator):
    """Top-p variant of the SEC."""

    def __init__(
        self,
        config: FocusConfig,
        num_layers: int,
        schedule: TopPSchedule | None = None,
    ) -> None:
        super().__init__(config, num_layers)
        self.top_p = schedule or TopPSchedule()

    def prune(
        self,
        layer_index: int,
        probs: np.ndarray,
        is_text: np.ndarray,
        initial_image_tokens: int,
        grid_linear_index: np.ndarray,
    ) -> PruneDecision | None:
        budget = self.target_tokens(layer_index, initial_image_tokens)
        if budget is None:
            return None
        is_text = np.asarray(is_text, dtype=bool)
        num_image = int(np.count_nonzero(~is_text))
        floor = max(1, int(round(budget * self.top_p.floor_ratio)))
        ceiling = max(floor, int(round(budget * self.top_p.ceiling_ratio)))
        if num_image <= floor:
            return None

        scores = importance_scores(probs, is_text)
        total = float(scores.sum())
        if total <= 0.0:
            return None
        order = np.lexsort((np.arange(scores.shape[0]), -scores))
        cumulative = np.cumsum(scores[order]) / total
        adaptive_k = int(np.searchsorted(cumulative, self.top_p.mass) + 1)
        keep_count = int(np.clip(adaptive_k, floor, min(ceiling, num_image)))

        image_keep = np.zeros(num_image, dtype=bool)
        image_keep[order[:keep_count]] = True
        keep = np.ones(is_text.shape[0], dtype=bool)
        keep[~is_text] = image_keep

        retained_linear = np.sort(
            np.asarray(grid_linear_index)[~is_text][image_keep]
        )
        event = SecEvent(
            layer=layer_index, candidates=num_image, selected=keep_count
        )
        return PruneDecision(
            keep=keep,
            event=event,
            metadata_bits=encoded_bits(encode_offsets(retained_linear)),
        )


class AdaptiveFocusPlugin(FocusPlugin):
    """Focus pipeline with the top-p SEC swapped in."""

    stackable = False
    """Top-p keep counts depend on each lane's attention, so lanes of
    one stack would diverge in shape."""

    def __init__(
        self,
        model: SyntheticVLM | ModelConfig | int,
        config: FocusConfig | None = None,
        schedule: TopPSchedule | None = None,
        **kwargs: object,
    ) -> None:
        from repro.config import DEFAULT_CONFIG

        config = config or DEFAULT_CONFIG
        super().__init__(model, config, **kwargs)
        self.sec = AdaptiveSemanticConcentrator(
            config, self.sec.num_layers, schedule
        )
