"""The paper's contribution: streaming multilevel concentration."""

from repro.core.adaptive import (
    AdaptiveFocusPlugin,
    AdaptiveSemanticConcentrator,
    TopPSchedule,
)
from repro.core.blocks import (
    build_neighbor_table,
    comparisons_in_table,
    linear_index,
    neighbor_offsets,
)
from repro.core.gather import GatherResult, SimilarityGather, TilePlan
from repro.core.importance import (
    StreamingImportanceAnalyzer,
    importance_buffer_bytes,
    importance_scores,
)
from repro.core.layouter import BankAddress, ConvolutionLayouter
from repro.core.matching import (
    LevelGroup,
    MatchOutcome,
    SimilarityMatcher,
    TileSchedule,
    build_level_groups,
    level_schedule,
    partner_levels,
)
from repro.core.offsets import (
    decode_offsets,
    encode_offsets,
    encoded_bits,
    offsets_to_positions,
)
from repro.core.pipeline import GATHER_SITES, FocusPlugin
from repro.core.scatter import (
    gathered_gemm,
    scatter_accumulation_ops,
    scatter_counts,
)
from repro.core.semantic import PruneDecision, SemanticConcentrator
from repro.core.topk import (
    StreamingBubbleSorter,
    sorter_cycles,
    top_k_indices,
    top_k_mask,
)

__all__ = [
    "AdaptiveFocusPlugin",
    "AdaptiveSemanticConcentrator",
    "TopPSchedule",
    "build_neighbor_table",
    "comparisons_in_table",
    "linear_index",
    "neighbor_offsets",
    "GatherResult",
    "SimilarityGather",
    "TilePlan",
    "StreamingImportanceAnalyzer",
    "importance_buffer_bytes",
    "importance_scores",
    "BankAddress",
    "ConvolutionLayouter",
    "LevelGroup",
    "MatchOutcome",
    "SimilarityMatcher",
    "TileSchedule",
    "build_level_groups",
    "level_schedule",
    "partner_levels",
    "decode_offsets",
    "encode_offsets",
    "encoded_bits",
    "offsets_to_positions",
    "GATHER_SITES",
    "FocusPlugin",
    "gathered_gemm",
    "scatter_accumulation_ops",
    "scatter_counts",
    "PruneDecision",
    "SemanticConcentrator",
    "StreamingBubbleSorter",
    "sorter_cycles",
    "top_k_indices",
    "top_k_mask",
]
