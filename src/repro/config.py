"""Central configuration for the Focus reproduction.

:class:`FocusConfig` mirrors Table I of the paper: the hyper-parameters
of the multilevel concentration algorithm and the on-chip geometry the
algorithm is co-designed with.  A single instance is threaded through
the semantic concentrator, the similarity concentrator, and the
hardware simulator so that algorithm and architecture always agree on
tile and vector geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def _default_retention_schedule() -> dict[int, float]:
    """Table I semantic-pruning schedule for a 28-layer model.

    Retain 40%/30%/20%/15%/10% of the original image tokens starting at
    layers 3/6/9/18/26.  Layers before the first entry keep all tokens;
    between entries the most recent ratio applies.
    """
    return {3: 0.40, 6: 0.30, 9: 0.20, 18: 0.15, 26: 0.10}


@dataclass(frozen=True)
class FocusConfig:
    """Hyper-parameters of the Focus multilevel concentration pipeline.

    Attributes:
        block_frames: Temporal extent of the SIC comparison block
            (``f`` in the paper's ``f x h x w`` notation; default 2).
        block_height: Spatial height of the comparison block (default 2).
        block_width: Spatial width of the comparison block (default 2).
        vector_size: Length of the sub-token vectors compared by the
            similarity concentrator (Table I: 32).
        similarity_threshold: Cosine-similarity threshold above which a
            vector is considered redundant (Table I: 0.9).
        m_tile: GEMM output-tile height; similarity gathering never
            crosses a tile boundary (Table I: 1024).
        retention_schedule: Map from layer index to the fraction of the
            *original* image-token count retained from that layer on.
        schedule_depth: Depth of the model the schedule was written for;
            schedules are rescaled proportionally for other depths.
        max_sorter_lanes: Width ``a`` of the streaming bubble sorter.
        fp16: Whether activations are rounded through FP16 between
            layers, matching the FP16-multiplier datapath.

    Every field can change a concentrated result, so all of them key
    each evaluation job (:func:`~repro.engine.jobs.config_digest`).
    Execution knobs such as the forward-pass lane count
    (``--forward-batch``) do not, and live on
    :class:`~repro.engine.scheduler.ExperimentEngine` instead.
    """

    block_frames: int = 2
    block_height: int = 2
    block_width: int = 2
    vector_size: int = 32
    similarity_threshold: float = 0.9
    m_tile: int = 1024
    retention_schedule: dict[int, float] = field(
        default_factory=_default_retention_schedule
    )
    schedule_depth: int = 28
    max_sorter_lanes: int = 32
    fp16: bool = True

    def __post_init__(self) -> None:
        if self.vector_size <= 0:
            raise ValueError("vector_size must be positive")
        if not 0.0 < self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must lie in (0, 1]")
        if self.m_tile <= 0:
            raise ValueError("m_tile must be positive")
        if min(self.block_frames, self.block_height, self.block_width) < 1:
            raise ValueError("block dimensions must be >= 1")
        for layer, ratio in self.retention_schedule.items():
            if layer < 0:
                raise ValueError(f"retention layer {layer} must be >= 0")
            if not 0.0 < ratio <= 1.0:
                raise ValueError(f"retention ratio {ratio} must lie in (0, 1]")

    @property
    def block_size(self) -> int:
        """Number of vectors per comparison block (8 for 2x2x2)."""
        return self.block_frames * self.block_height * self.block_width

    def scaled_schedule(self, num_layers: int) -> dict[int, float]:
        """Rescale the retention schedule to a model with ``num_layers``.

        The paper's schedule targets a 28-layer LLM; our scaled-down
        models are shallower, so schedule layer indices are remapped
        proportionally while the retention ratios are preserved.

        Returns:
            Mapping from layer index (in the target model) to retention
            ratio, with collisions resolved in favour of the *smaller*
            ratio (pruning is monotone through depth).
        """
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        scaled: dict[int, float] = {}
        for layer, ratio in sorted(self.retention_schedule.items()):
            new_layer = round(layer * num_layers / self.schedule_depth)
            new_layer = min(max(new_layer, 0), num_layers - 1)
            current = scaled.get(new_layer, 1.0)
            scaled[new_layer] = min(current, ratio)
        return scaled

    def with_overrides(self, **kwargs: object) -> "FocusConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = FocusConfig()
"""Module-level default matching Table I of the paper."""
