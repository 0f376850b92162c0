"""Tests for INT8 quantization emulation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.dense import DensePlugin
from repro.core.pipeline import FocusPlugin
from repro.model import vlm
from repro.quant.int8 import INT8_LEVELS, fake_quant_int8, quantize_model


class TestFakeQuant:
    def test_zero_preserved(self):
        np.testing.assert_array_equal(
            fake_quant_int8(np.zeros((2, 4))), np.zeros((2, 4))
        )

    def test_extremes_preserved(self):
        x = np.array([[1.0, -1.0, 0.5]], dtype=np.float32)
        out = fake_quant_int8(x)
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(-1.0)

    @given(hnp.arrays(np.float32, (3, 16),
                      elements=st.floats(-10, 10, width=32)))
    # Regressions for a bound that ignored float32 rounding: a .5 tie
    # that misses scale / 2 by 8e-8, and a value just under 8 that
    # rounds to just over it, where the product's rounding is worth
    # half an ulp of |out| — twice an ulp of |x|.
    @example(np.array([[6.4783616] + [5.177588] * 15], dtype=np.float32))
    @example(np.array([[9.602549, 7.9769197]], dtype=np.float32))
    # A slice whose scale underflows float32 must not round to zero.
    @example(np.full((3, 16), 5.5e-44, dtype=np.float32))
    @settings(max_examples=40, deadline=None)
    def test_bounded_error(self, x):
        out = fake_quant_int8(x, axis=-1)
        scale = np.max(np.abs(x), axis=-1, keepdims=True) / INT8_LEVELS
        # round(x / scale) * scale is off by at most scale / 2 in exact
        # arithmetic.  In float32 the quotient's rounding adds at most
        # half an ulp of |x| and the product's at most half an ulp of
        # |out|; a full ulp of each covers both with margin.
        bound = scale / 2 + np.spacing(np.abs(x)) + np.spacing(np.abs(out))
        assert (np.abs(out - x) <= bound).all()

    @given(hnp.arrays(np.float32, (2, 8),
                      elements=st.floats(-10, 10, width=32)))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, x):
        once = fake_quant_int8(x)
        np.testing.assert_allclose(fake_quant_int8(once), once, atol=1e-6)

    def test_per_channel_axis(self):
        x = np.array([[100.0, 0.01], [100.0, 0.01]], dtype=np.float32)
        per_row = fake_quant_int8(x, axis=-1)
        per_col = fake_quant_int8(x, axis=0)
        # Per-row: the small value is crushed by the row's big scale.
        assert per_row[0, 1] == 0.0
        # Per-column: the small column keeps its own scale.
        assert per_col[0, 1] == pytest.approx(0.01, rel=0.02)


class TestQuantizeModel:
    def test_weights_differ_but_close(self, tiny_model):
        quantized = quantize_model(tiny_model)
        original = tiny_model.layers[0].wq
        rounded = quantized.layers[0].wq
        assert not np.array_equal(original, rounded)
        assert np.abs(original - rounded).max() < 0.05

    def test_original_untouched(self, tiny_model):
        before = tiny_model.layers[0].wq.copy()
        quantize_model(tiny_model)
        np.testing.assert_array_equal(tiny_model.layers[0].wq, before)
        assert tiny_model.quantized is False

    def test_accuracy_survives_int8(self, tiny_model, tiny_samples):
        quantized = quantize_model(tiny_model)
        assert quantized.quantized is True
        fp16 = [tiny_model.forward(s, DensePlugin()).correct
                for s in tiny_samples]
        int8 = [quantized.forward(s, DensePlugin()).correct
                for s in tiny_samples]
        assert sum(int8) >= sum(fp16) - 1

    @pytest.mark.parametrize("quantized", [False, True])
    def test_rounding_sites(self, tiny_model, tiny_sample, monkeypatch,
                            quantized):
        # The INT8 variant rounds the qkv, o_proj and fc1 inputs of
        # every layer, once each per forward; fc2, qk and pv stay
        # unrounded, and the FP16 model rounds nothing.
        model = quantize_model(tiny_model) if quantized else tiny_model
        calls = []

        def counting(x, axis=-1):
            calls.append(axis)
            return fake_quant_int8(x, axis=axis)

        monkeypatch.setattr(vlm, "fake_quant_int8", counting)
        model.forward(tiny_sample, DensePlugin())
        expected = 3 * tiny_model.config.num_layers if quantized else 0
        assert calls == [-1] * expected


class TestInt8Plugin:
    """A method's own plugin on the INT8 model variant."""

    def test_wraps_focus(self, tiny_model, tiny_sample, tiny_focus_config):
        quantized = quantize_model(tiny_model)
        plugin = FocusPlugin(quantized, tiny_focus_config)
        result = quantized.forward(tiny_sample, plugin)
        assert result.trace.sec_events
        gathered = [g for g in result.trace.gemms
                    if g.input_unique is not None]
        assert gathered

    def test_quantization_changes_gather_slightly(self, tiny_model,
                                                  tiny_sample,
                                                  tiny_focus_config):
        quantized = quantize_model(tiny_model)
        fp = tiny_model.forward(
            tiny_sample, FocusPlugin(tiny_model, tiny_focus_config)
        )
        q8 = quantized.forward(
            tiny_sample, FocusPlugin(quantized, tiny_focus_config)
        )
        fp_unique = sum(g.input_unique or 0 for g in fp.trace.gemms)
        q8_unique = sum(g.input_unique or 0 for g in q8.trace.gemms)
        # Table IV: sparsity changes only marginally under INT8.
        assert abs(fp_unique - q8_unique) / max(fp_unique, 1) < 0.2
