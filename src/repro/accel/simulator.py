"""Trace-driven accelerator simulator (the paper's SCALEsim-v2 +
DRAMsim3 methodology, Sec. VII-A).

For every GEMM in a model trace the simulator computes array cycles
(weight-stationary model) and DRAM transfer time, overlaps them
(double-buffered tiles), applies the method-specific memory behaviour
of each architecture, and accumulates the Fig. 9(b) energy breakdown:

* **systolic-array** — dense everything.
* **adaptiv** — tokens were merged by the on-chip unit, but the full
  uncompressed token set must be transferred in first; afterwards all
  traffic is at the reduced token count.
* **cmc** — the codec condenses tokens *off-chip*: the full vision
  output is written to DRAM, read by the codec, and written back
  condensed; per layer, reads are condensed but write-backs are
  *restored to full width* (the codec's reconstruction contract), which
  is why CMC keeps ~79% of dense DRAM traffic at 46% sparsity.
* **focus** — reads and writes are tile-local compressed (payload +
  similarity-map/offset metadata, already in the trace records); the
  Focus Unit's non-overlapped cycles and energy are charged explicitly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.accel.arch import ArchConfig
from repro.accel.dram import DramModel
from repro.accel.energy import (
    E_MAC_FP16_PJ,
    E_SFU_OP_PJ,
    E_SRAM_PJ_PER_BYTE,
    EnergyBreakdown,
)
from repro.accel.focus_unit import focus_unit_activity
from repro.accel.systolic import concentrated_gemm_cycles
from repro.accel.trace import BYTES_PER_ELEMENT, GemmTrace, ModelTrace

TOKEN_DIM_SITES = ("qkv", "o_proj", "fc1", "fc2", "pv")
"""GEMMs whose output height is the token count (restorable by CMC)."""


@dataclass
class SimResult:
    """Outcome of simulating one or more traces on one architecture.

    Attributes:
        arch: Architecture name.
        cycles: Total latency in core cycles.
        compute_cycles: Array-busy cycles (before overlap).
        dram_cycles: DRAM-transfer cycles (before overlap).
        macs: MACs executed on the array.
        dram_bytes: Total off-chip traffic.
        activation_dram_bytes: Off-chip traffic excluding weights (the
            quantity Fig. 12(a) compares, since weights are identical
            across methods).
        sram_bytes: Total on-chip buffer traffic.
        energy: Energy breakdown (core / buffer / DRAM).
        samples: Number of forward passes folded in.
    """

    arch: str
    cycles: int = 0
    compute_cycles: int = 0
    dram_cycles: int = 0
    macs: int = 0
    dram_bytes: int = 0
    activation_dram_bytes: int = 0
    sram_bytes: int = 0
    energy: EnergyBreakdown = field(
        default_factory=lambda: EnergyBreakdown(0.0, 0.0, 0.0)
    )
    samples: int = 0

    def latency_s(self, frequency_hz: float = 500e6) -> float:
        return self.cycles / frequency_hz

    def utilization(self, num_pes: int) -> float:
        """Average useful-MAC fraction of array capacity."""
        if self.compute_cycles == 0:
            return 0.0
        return self.macs / (self.compute_cycles * num_pes)

    def power_w(self, frequency_hz: float = 500e6) -> float:
        """Average total power over the run."""
        latency = self.latency_s(frequency_hz)
        return self.energy.total_j / latency if latency > 0 else 0.0

    def on_chip_power_w(self, frequency_hz: float = 500e6) -> float:
        """Average on-chip (core + buffer) power."""
        latency = self.latency_s(frequency_hz)
        on_chip = self.energy.core_j + self.energy.buffer_j
        return on_chip / latency if latency > 0 else 0.0

    def accumulate(self, other: "SimResult") -> None:
        """Fold another simulated run into this one."""
        if other.arch != self.arch:
            raise ValueError("cannot accumulate across architectures")
        self.cycles += other.cycles
        self.compute_cycles += other.compute_cycles
        self.dram_cycles += other.dram_cycles
        self.macs += other.macs
        self.dram_bytes += other.dram_bytes
        self.activation_dram_bytes += other.activation_dram_bytes
        self.sram_bytes += other.sram_bytes
        self.energy = EnergyBreakdown(
            core_j=self.energy.core_j + other.energy.core_j,
            buffer_j=self.energy.buffer_j + other.energy.buffer_j,
            dram_j=self.energy.dram_j + other.energy.dram_j,
        )
        self.samples += other.samples


def dram_config(dram: DramModel) -> tuple[tuple[str, float], ...]:
    """A :class:`DramModel`'s constructor arguments as sorted pairs.

    This is the canonical form of a DRAM configuration: rebuilding the
    model from it means an instance that was mutated in place
    (``object.__setattr__`` defeats ``frozen=True``) is simulated with
    the field values it reports, never with stale derived state.

    Raises:
        TypeError: If ``dram`` is not exactly a :class:`DramModel` — a
            subclass may override behaviour that a rebuild from plain
            field values would silently discard.
    """
    if type(dram) is not DramModel:
        raise TypeError(
            f"expected a plain DramModel, got {type(dram).__name__}; "
            "the DRAM model is rebuilt from its field values, so "
            "subclasses cannot be simulated faithfully"
        )
    return tuple(sorted(
        (f.name, getattr(dram, f.name))
        for f in dataclasses.fields(DramModel)
    ))


def canonical_dram(dram: DramModel | None, arch: ArchConfig) -> DramModel:
    """Normalize an optional DRAM model to a fresh canonical instance.

    ``None`` derives the bandwidth from the architecture (the historical
    default); anything else is round-tripped through
    :func:`dram_config`, so every simulation runs on an instance
    constructed the same way from the same field values.
    """
    if dram is None:
        dram = DramModel(bandwidth_gbs=arch.dram_bandwidth_gbs)
    return DramModel(**dict(dram_config(dram)))


def _gemm_dram_bytes(
    gemm: GemmTrace, arch: ArchConfig, initial_tokens: int
) -> tuple[int, int]:
    """Off-chip bytes of one GEMM under the architecture's policy.

    Returns:
        ``(weight_bytes, activation_bytes)``.  Attention score/prob
        matrices never leave the chip (softmax streams through the SFU
        straight into the PV GEMM), so ``qk`` writes and ``pv`` reads
        of the probability matrix are excluded; ``pv``'s "weight" side
        is the V matrix, which *is* an activation.
    """
    if gemm.name == "qk":
        # K streams as the stationary side, Q as the moving side; the
        # score matrix stays on-chip.
        return 0, gemm.weight_bytes + gemm.input_bytes
    if gemm.name == "pv":
        # Probabilities arrive from the on-chip SFU; V is re-read.
        return 0, gemm.weight_bytes

    weights = gemm.weight_bytes
    if arch.compression == "cmc" and gemm.name in TOKEN_DIM_SITES:
        read = gemm.m * gemm.k * BYTES_PER_ELEMENT
        write = max(initial_tokens, gemm.m) * gemm.n * BYTES_PER_ELEMENT
        return weights, read + write
    # Focus traces carry compressed sizes in their records; dense and
    # AdapTiV traces have no annotations so these are plain products.
    return weights, gemm.input_bytes + gemm.output_bytes


def _gemm_sram_bytes(gemm: GemmTrace, arch: ArchConfig) -> int:
    """On-chip buffer traffic of one GEMM (weight-stationary reuse)."""
    n_tiles = -(-gemm.n // arch.pe_cols)
    input_traffic = gemm.input_bytes * n_tiles
    weight_traffic = gemm.weight_bytes
    output_traffic = 2 * gemm.m * gemm.n * BYTES_PER_ELEMENT
    return input_traffic + weight_traffic + output_traffic


def _sfu_ops(trace: ModelTrace) -> int:
    """Softmax/RMSNorm special-function ops of a trace."""
    ops = 0
    for gemm in trace.gemms:
        if gemm.name == "qk":
            ops += gemm.m * gemm.n  # softmax over attention scores
        elif gemm.name in ("qkv", "fc1"):
            ops += gemm.m * gemm.k  # RMSNorm ahead of the projection
    return ops


def simulate(trace: ModelTrace, arch: ArchConfig,
             dram: DramModel | None = None) -> SimResult:
    """Simulate one forward-pass trace on an architecture.

    Per-GEMM latency is ``max(array cycles, DRAM cycles)`` — tiles are
    double-buffered so transfer and compute overlap; the longer one
    wins (this is also how SCALEsim composes its memory model).
    """
    dram = canonical_dram(dram, arch)
    result = SimResult(arch=arch.name, samples=1)

    compute_total = 0
    dram_total_bytes = 0
    activation_bytes_total = 0
    sram_total_bytes = 0
    overlapped_cycles = 0
    for gemm in trace.gemms:
        cycles = concentrated_gemm_cycles(gemm, arch.pe_rows, arch.pe_cols)
        weight_bytes, act_bytes = _gemm_dram_bytes(
            gemm, arch, trace.initial_tokens
        )
        gemm_bytes = weight_bytes + act_bytes
        transfer = dram.transfer_cycles(gemm_bytes, arch.frequency_hz)
        compute_total += cycles
        dram_total_bytes += gemm_bytes
        activation_bytes_total += act_bytes
        sram_total_bytes += _gemm_sram_bytes(gemm, arch)
        overlapped_cycles += max(cycles, transfer)

    preprocess_cycles = 0
    entry_bytes = 0
    hidden = trace.gemms[0].k if trace.gemms else 0
    if arch.compression == "cmc":
        # Codec round-trip: full vision output to DRAM, codec read,
        # condensed write-back.
        entry_bytes = 3 * trace.initial_tokens * hidden * BYTES_PER_ELEMENT
        preprocess_cycles = dram.transfer_cycles(entry_bytes,
                                                 arch.frequency_hz)
    elif arch.compression == "adaptiv":
        # Uncompressed tokens must be transferred in before merging.
        entry_bytes = 2 * trace.initial_tokens * hidden * BYTES_PER_ELEMENT
        preprocess_cycles = dram.transfer_cycles(entry_bytes,
                                                 arch.frequency_hz)
    dram_total_bytes += entry_bytes
    activation_bytes_total += entry_bytes

    exposed_unit_cycles = 0
    unit_energy = 0.0
    if arch.compression == "focus":
        activity = focus_unit_activity(
            trace,
            rows=arch.pe_rows,
            cols=arch.pe_cols,
            accumulators=arch.scatter_accumulators,
            compute_cycles=compute_total,
        )
        exposed_unit_cycles = activity.exposed_cycles
        unit_energy = activity.energy_j

    sfu_ops = _sfu_ops(trace)
    preprocess_energy = trace.preprocess_macs * E_MAC_FP16_PJ * 1e-12

    result.compute_cycles = compute_total
    result.dram_cycles = dram.transfer_cycles(dram_total_bytes,
                                              arch.frequency_hz)
    result.cycles = overlapped_cycles + preprocess_cycles + exposed_unit_cycles
    result.macs = trace.total_macs
    result.dram_bytes = dram_total_bytes
    result.activation_dram_bytes = activation_bytes_total
    result.sram_bytes = sram_total_bytes
    runtime_s = result.cycles / arch.frequency_hz
    result.energy = EnergyBreakdown(
        core_j=(
            trace.total_macs * E_MAC_FP16_PJ
            + sfu_ops * E_SFU_OP_PJ
        ) * 1e-12 + unit_energy + preprocess_energy,
        buffer_j=sram_total_bytes * E_SRAM_PJ_PER_BYTE * 1e-12,
        dram_j=dram.energy_j(dram_total_bytes, runtime_s),
    )
    return result


def simulate_many(
    traces: list[ModelTrace], arch: ArchConfig,
    dram: DramModel | None = None,
) -> SimResult:
    """Simulate a list of per-sample traces and fold the results.

    Args:
        traces: Per-sample traces, folded in order.
        arch: Architecture to simulate.
        dram: DRAM model; normalized through :func:`canonical_dram`.
    """
    dram = canonical_dram(dram, arch)
    if not traces:
        return SimResult(arch=arch.name)
    total = simulate(traces[0], arch, dram)
    for trace in traces[1:]:
        total.accumulate(simulate(trace, arch, dram))
    return total
