"""Cycle-level accelerator models: systolic array, DRAM, energy, area."""

from repro.accel.arch import (
    ADAPTIV,
    ARCH_CONFIGS,
    CMC,
    FOCUS,
    METHOD_TO_ARCH,
    SYSTOLIC,
    ArchConfig,
)
from repro.accel.area import (
    area_breakdown,
    focus_overhead_fraction,
    total_area_mm2,
)
from repro.accel.buffers import (
    BufferRequirement,
    fits,
    output_buffer_kb_for_tile,
    tiling_requirement,
)
from repro.accel.dram import DramModel
from repro.accel.energy import EnergyBreakdown
from repro.accel.focus_unit import FocusUnitActivity, focus_unit_activity
from repro.accel.simulator import (
    SimResult,
    canonical_dram,
    dram_config,
    simulate,
    simulate_many,
)
from repro.accel.systolic import (
    concentrated_gemm_cycles,
    dense_gemm_cycles,
    gemm_utilization,
    tile_utilization,
)
from repro.accel.trace import (
    BYTES_PER_ELEMENT,
    GemmTrace,
    ModelTrace,
    SecEvent,
)

__all__ = [
    "ADAPTIV",
    "ARCH_CONFIGS",
    "CMC",
    "FOCUS",
    "METHOD_TO_ARCH",
    "SYSTOLIC",
    "ArchConfig",
    "area_breakdown",
    "focus_overhead_fraction",
    "total_area_mm2",
    "BufferRequirement",
    "fits",
    "output_buffer_kb_for_tile",
    "tiling_requirement",
    "DramModel",
    "EnergyBreakdown",
    "FocusUnitActivity",
    "focus_unit_activity",
    "SimResult",
    "canonical_dram",
    "dram_config",
    "simulate",
    "simulate_many",
    "concentrated_gemm_cycles",
    "dense_gemm_cycles",
    "gemm_utilization",
    "tile_utilization",
    "BYTES_PER_ELEMENT",
    "GemmTrace",
    "ModelTrace",
    "SecEvent",
]
