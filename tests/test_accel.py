"""Tests for the accelerator models: trace, systolic, arch, area,
DRAM, buffers, focus unit, simulator, scaling."""

import numpy as np
import pytest

from repro.accel.arch import ADAPTIV, ARCH_CONFIGS, CMC, FOCUS, SYSTOLIC, ArchConfig
from repro.accel.area import area_breakdown, focus_overhead_fraction, total_area_mm2
from repro.accel.buffers import (
    fits,
    output_buffer_kb_for_tile,
    tiling_requirement,
)
from repro.accel.dram import DramModel
from repro.accel.focus_unit import (
    _sorter_cycles,
    focus_unit_activity,
    scatter_cycles,
    sec_sorter_cycles,
    sic_matcher_cycles,
)
from repro.accel.scaling import ScaleFactors, scale_gemm, scale_to_paper
from repro.accel.simulator import (
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
from repro.accel.trace import GemmTrace, ModelTrace, SecEvent
from repro.core.topk import sorter_cycles as core_sorter_cycles


class TestGemmTrace:
    def test_dense_macs(self):
        gemm = GemmTrace(name="fc1", layer=0, m=10, k=20, n=30)
        assert gemm.dense_macs == 6000
        assert gemm.macs == 6000

    def test_concentrated_macs(self):
        gemm = GemmTrace(name="fc1", layer=0, m=10, k=64, n=30,
                         input_unique=12, vector_size=32)
        assert gemm.k_blocks == 2
        assert gemm.macs == 12 * 32 * 30

    def test_bytes_dense(self):
        gemm = GemmTrace(name="fc1", layer=0, m=4, k=8, n=2)
        assert gemm.input_bytes == 4 * 8 * 2
        assert gemm.weight_bytes == 8 * 2 * 2
        assert gemm.output_bytes == 4 * 2 * 2

    def test_bytes_compressed(self):
        gemm = GemmTrace(name="fc1", layer=0, m=4, k=64, n=32,
                         input_unique=3, vector_size=32, input_map_bits=80,
                         output_compressed_rows=2, output_map_bits=40)
        assert gemm.input_bytes == 3 * 32 * 2 + 10
        assert gemm.output_bytes == 2 * 32 * 2 + 5

    def test_trace_merge(self):
        a = ModelTrace()
        a.add(GemmTrace(name="fc1", layer=0, m=1, k=1, n=1))
        a.initial_tokens = 10
        b = ModelTrace(preprocess_macs=5, sic_comparisons=3)
        b.add(GemmTrace(name="fc2", layer=0, m=2, k=2, n=2))
        b.initial_tokens = 10
        a.merge(b)
        assert len(a.gemms) == 2
        assert a.preprocess_macs == 5
        assert a.sic_comparisons == 3
        assert a.initial_tokens == 20


class TestSystolic:
    def test_dense_cycles_formula(self):
        # One 32x32 weight tile: fill + stream + drain.
        assert dense_gemm_cycles(100, 32, 32, 32, 32) == 100 + 63

    def test_tiling_multiplies(self):
        single = dense_gemm_cycles(100, 32, 32, 32, 32)
        assert dense_gemm_cycles(100, 64, 64, 32, 32) == 4 * single

    def test_zero_dims(self):
        assert dense_gemm_cycles(0, 32, 32, 32, 32) == 0

    def test_concentrated_fewer_cycles(self):
        dense = GemmTrace(name="fc1", layer=0, m=1024, k=64, n=32)
        sparse = GemmTrace(name="fc1", layer=0, m=1024, k=64, n=32,
                           input_unique=256, vector_size=32)
        assert (concentrated_gemm_cycles(sparse, 32, 32)
                < concentrated_gemm_cycles(dense, 32, 32))

    def test_concentrated_matches_dense_when_no_dedup(self):
        gemm = GemmTrace(name="fc1", layer=0, m=100, k=32, n=32)
        assert concentrated_gemm_cycles(gemm, 32, 32) == \
            dense_gemm_cycles(100, 32, 32, 32, 32)

    def test_utilization_bounded(self):
        gemm = GemmTrace(name="fc1", layer=0, m=1000, k=64, n=64)
        util = gemm_utilization(gemm, 32, 32)
        assert 0 < util <= 1

    def test_tile_utilization_monotone(self):
        values = [tile_utilization(n, 32, 32) for n in (8, 64, 512, 1024)]
        assert values == sorted(values)
        assert tile_utilization(0, 32, 32) == 0.0


class TestArchAndArea:
    def test_table3_totals(self):
        """Table III: 3.12 / 3.38 / 3.58 / 3.21 mm^2."""
        assert total_area_mm2(SYSTOLIC) == pytest.approx(3.12, abs=0.02)
        assert total_area_mm2(ADAPTIV) == pytest.approx(3.38, abs=0.02)
        assert total_area_mm2(CMC) == pytest.approx(3.58, abs=0.02)
        assert total_area_mm2(FOCUS) == pytest.approx(3.21, abs=0.02)

    def test_focus_overhead_small(self):
        """The Focus Unit adds ~2.7% area over the vanilla array."""
        assert focus_overhead_fraction() == pytest.approx(0.027, abs=0.01)

    def test_buffer_totals(self):
        assert SYSTOLIC.buffer_kb == pytest.approx(734)
        assert FOCUS.buffer_kb == pytest.approx(734)
        assert ADAPTIV.buffer_kb == pytest.approx(768)
        assert CMC.buffer_kb == pytest.approx(907)

    def test_same_pe_count(self):
        counts = {arch.num_pes for arch in ARCH_CONFIGS.values()}
        assert counts == {1024}

    def test_breakdown_components(self):
        parts = area_breakdown(FOCUS)
        assert {"systolic_array", "buffer", "sfu", "sec", "sic"} == set(parts)
        total = sum(parts.values())
        assert parts["sec"] / total == pytest.approx(0.019, abs=0.005)
        assert parts["sic"] / total == pytest.approx(0.008, abs=0.004)

    def test_invalid_compression(self):
        with pytest.raises(ValueError):
            ArchConfig(name="x", compression="zip")


class TestDram:
    def test_transfer_time(self):
        dram = DramModel(bandwidth_gbs=64, efficiency=1.0)
        assert dram.transfer_seconds(64e9) == pytest.approx(1.0)

    def test_efficiency_derates(self):
        fast = DramModel(bandwidth_gbs=64, efficiency=1.0)
        slow = DramModel(bandwidth_gbs=64, efficiency=0.5)
        assert slow.transfer_seconds(1e9) == 2 * fast.transfer_seconds(1e9)

    def test_energy_includes_static(self):
        dram = DramModel()
        dynamic_only = dram.energy_j(1e9)
        with_static = dram.energy_j(1e9, runtime_s=1.0)
        assert with_static == pytest.approx(
            dynamic_only + dram.static_power_w
        )

    def test_zero_bytes(self):
        assert DramModel().transfer_seconds(0) == 0.0


class TestBuffers:
    def test_table1_tiling_fits_focus(self):
        requirement = tiling_requirement(
            m_tile=1024, n_tile=32, k_tile=32, hidden=3584
        )
        assert fits(FOCUS, requirement)

    def test_oversized_tile_does_not_fit(self):
        requirement = tiling_requirement(
            m_tile=64 * 1024, n_tile=32, k_tile=32, hidden=3584
        )
        assert not fits(FOCUS, requirement)

    def test_output_buffer_scaling(self):
        assert output_buffer_kb_for_tile(1024) == 256.0
        assert output_buffer_kb_for_tile(512) == 128.0


class TestFocusUnit:
    def test_sorter_formula_matches_core(self):
        for m, k, a in ((100, 8, 4), (57, 13, 32), (6272, 627, 32)):
            assert _sorter_cycles(m, k, a) == core_sorter_cycles(m, k, a)

    def test_sec_sorter_cycles(self):
        events = [SecEvent(layer=1, candidates=100, selected=32)]
        assert sec_sorter_cycles(events, lanes=32) == 100

    def test_matcher_cycles(self):
        trace = ModelTrace(sic_comparisons=70, tile_lengths=[10])
        assert sic_matcher_cycles(trace) == 80

    def test_scatter_cycles_scale_with_lanes(self):
        trace = ModelTrace()
        trace.add(GemmTrace(name="fc1", layer=0, m=8, k=8, n=8,
                            scatter_ops=640))
        assert scatter_cycles(trace, accumulators=64) == 10
        assert scatter_cycles(trace, accumulators=32) == 20
        with pytest.raises(ValueError):
            scatter_cycles(trace, accumulators=0)

    def test_sorter_hidden_under_attention(self):
        """Sec. V-B: the sorter finishes before Q(i)K^T does."""
        trace = ModelTrace()
        trace.add(GemmTrace(name="qk", layer=1, m=400, k=192, n=400))
        trace.sec_events.append(SecEvent(layer=1, candidates=400,
                                         selected=100))
        activity = focus_unit_activity(trace)
        assert activity.exposed_cycles == 0

    def test_energy_positive(self):
        trace = ModelTrace(sic_comparisons=100, tile_lengths=[5])
        trace.add(GemmTrace(name="fc1", layer=0, m=8, k=8, n=8,
                            scatter_ops=64))
        assert focus_unit_activity(trace).energy_j > 0


class TestSimulator:
    def _trace(self, m=256, concentrated=False):
        trace = ModelTrace(initial_tokens=m)
        kwargs = {}
        if concentrated:
            kwargs = dict(input_unique=m, vector_size=32,
                          input_map_bits=m * 10)
        trace.add(GemmTrace(name="qkv", layer=0, m=m, k=64, n=192, **kwargs))
        trace.add(GemmTrace(name="qk", layer=0, m=m, k=64, n=m))
        trace.add(GemmTrace(name="pv", layer=0, m=m, k=m, n=64))
        trace.add(GemmTrace(name="fc2", layer=0, m=m, k=192, n=64))
        return trace

    def test_dense_simulation(self):
        result = simulate(self._trace(), SYSTOLIC)
        assert result.cycles > 0
        assert result.dram_bytes > 0
        assert result.energy.total_j > 0

    def test_concentration_reduces_cycles(self):
        dense = simulate(self._trace(), SYSTOLIC)
        focus = simulate(self._trace(concentrated=True), FOCUS)
        assert focus.compute_cycles < dense.compute_cycles

    def test_attention_matrices_stay_on_chip(self):
        trace = ModelTrace(initial_tokens=128)
        trace.add(GemmTrace(name="qk", layer=0, m=128, k=64, n=128))
        result = simulate(trace, SYSTOLIC)
        # Only Q and K move; the score matrix does not.
        q_bytes = 128 * 64 * 2
        k_bytes = 64 * 128 * 2
        assert result.activation_dram_bytes == q_bytes + k_bytes

    def test_cmc_restores_full_outputs(self):
        reduced = ModelTrace(initial_tokens=256)
        reduced.add(GemmTrace(name="fc1", layer=0, m=128, k=64, n=64))
        cmc = simulate(reduced, CMC)
        systolic = simulate(reduced, SYSTOLIC)
        assert cmc.dram_bytes > systolic.dram_bytes

    def test_accumulate(self):
        a = simulate(self._trace(), SYSTOLIC)
        total = simulate(self._trace(), SYSTOLIC)
        total.accumulate(a)
        assert total.samples == 2
        assert total.cycles == 2 * a.cycles

    def test_accumulate_arch_mismatch(self):
        a = simulate(self._trace(), SYSTOLIC)
        b = simulate(self._trace(concentrated=True), FOCUS)
        with pytest.raises(ValueError):
            a.accumulate(b)

    def test_simulate_many_empty(self):
        result = simulate_many([], SYSTOLIC)
        assert result.cycles == 0

    def test_utilization_bounded(self):
        result = simulate(self._trace(), SYSTOLIC)
        assert 0 < result.utilization(SYSTOLIC.num_pes) <= 1


class TestDramNormalization:
    """Every simulation runs on a DramModel rebuilt from field values."""

    @staticmethod
    def _traces():
        traces = []
        for m in (64, 128, 256):
            trace = ModelTrace(initial_tokens=m)
            trace.add(GemmTrace(name="qkv", layer=0, m=m, k=64, n=192,
                                input_unique=m // 2, vector_size=32))
            trace.add(GemmTrace(name="fc2", layer=0, m=m, k=192, n=64))
            traces.append(trace)
        return traces

    def test_mutated_frozen_instance_normalized(self):
        traces = self._traces()
        shared = DramModel()
        object.__setattr__(shared, "efficiency", 0.5)  # defeats frozen=True
        mutated = simulate_many(traces, FOCUS, shared)
        explicit = simulate_many(traces, FOCUS, DramModel(efficiency=0.5))
        assert mutated == explicit
        assert mutated != simulate_many(traces, FOCUS, DramModel())

    def test_subclass_rejected(self):
        class TamperedDram(DramModel):
            def transfer_cycles(self, num_bytes, frequency_hz):
                return 0

        with pytest.raises(TypeError, match="DramModel"):
            simulate_many(self._traces(), FOCUS, TamperedDram())
        with pytest.raises(TypeError, match="DramModel"):
            dram_config(TamperedDram())

    def test_canonical_dram_defaults_to_arch_bandwidth(self):
        dram = canonical_dram(None, FOCUS)
        assert dram == DramModel(bandwidth_gbs=FOCUS.dram_bandwidth_gbs)

    def test_config_roundtrip(self):
        dram = DramModel(bandwidth_gbs=32.0, efficiency=0.7)
        assert DramModel(**dict(dram_config(dram))) == dram


class TestScaling:
    def test_factors(self):
        factors = ScaleFactors.for_sample(404, 192)
        assert factors.token == pytest.approx(6381 / 404)
        assert factors.hidden == pytest.approx(3584 / 192)

    def test_gemm_dims_scale_by_kind(self):
        factors = ScaleFactors(token=2.0, hidden=4.0)
        qk = scale_gemm(GemmTrace(name="qk", layer=0, m=10, k=16, n=10),
                        factors)
        assert (qk.m, qk.k, qk.n) == (20, 64, 20)
        fc1 = scale_gemm(GemmTrace(name="fc1", layer=0, m=10, k=16, n=48),
                         factors)
        assert (fc1.m, fc1.k, fc1.n) == (20, 64, 192)

    def test_unique_fraction_preserved(self):
        factors = ScaleFactors(token=4.0, hidden=2.0)
        gemm = GemmTrace(name="fc1", layer=0, m=64, k=64, n=64,
                         input_unique=64, vector_size=32)
        scaled = scale_gemm(gemm, factors)
        original_fraction = gemm.input_unique / (gemm.m * gemm.k_blocks)
        scaled_fraction = scaled.input_unique / (scaled.m * scaled.k_blocks)
        assert scaled_fraction == pytest.approx(original_fraction, rel=0.05)

    def test_scale_to_paper_trace(self, tiny_model, tiny_sample):
        trace = tiny_model.forward(tiny_sample).trace
        scaled = scale_to_paper(trace, tiny_model.config.hidden)
        assert scaled.total_macs > trace.total_macs
        assert len(scaled.gemms) == len(trace.gemms)
        assert scaled.initial_tokens == 6381
