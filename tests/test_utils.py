"""Tests for repro.utils (rng and fp16 helpers)."""

import numpy as np
import pytest

from repro.utils.fp import quantize_fp16, to_fp16
from repro.utils.rng import rng_for


class TestRng:
    def test_deterministic(self):
        a = rng_for(0, "x").standard_normal(8)
        b = rng_for(0, "x").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_label_independence(self):
        a = rng_for(0, "x").standard_normal(8)
        b = rng_for(0, "y").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_seed_independence(self):
        a = rng_for(0, "x").standard_normal(8)
        b = rng_for(1, "x").standard_normal(8)
        assert not np.array_equal(a, b)

    def test_multiple_labels(self):
        a = rng_for(0, "x", 1).standard_normal(4)
        b = rng_for(0, "x", 2).standard_normal(4)
        assert not np.array_equal(a, b)


class TestFp16:
    def test_returns_float32(self):
        out = to_fp16(np.array([1.0, 2.0], dtype=np.float64))
        assert out.dtype == np.float32

    def test_rounding_visible(self):
        # 1 + 2^-12 is not representable in fp16 (10 mantissa bits).
        value = np.array([1.0 + 2.0**-12], dtype=np.float32)
        assert to_fp16(value)[0] == 1.0

    def test_exact_values_preserved(self):
        values = np.array([0.5, -2.0, 0.0, 1024.0], dtype=np.float32)
        np.testing.assert_array_equal(to_fp16(values), values)

    def test_quantize_disabled(self):
        value = np.array([1.0 + 2.0**-12], dtype=np.float32)
        out = quantize_fp16(value, enabled=False)
        assert out[0] != 1.0

    def test_idempotent(self):
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        once = to_fp16(x)
        np.testing.assert_array_equal(to_fp16(once), once)


def cast_fp16(x):
    """The contract: numpy's float16 cast and back to float32."""
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float16).astype(np.float32)


def assert_bits_match_cast(values):
    """``to_fp16`` equals the cast bit for bit on ``values``."""
    x = np.asarray(values, dtype=np.float32)
    got = to_fp16(x)
    assert got.dtype == np.float32 and got.shape == x.shape
    np.testing.assert_array_equal(
        got.view(np.uint32), cast_fp16(x).view(np.uint32)
    )


def float16_values():
    """Every non-NaN float16 value, as float32."""
    halves = np.arange(1 << 16, dtype=np.uint32).astype(np.uint16)
    values = halves.view(np.float16).astype(np.float32)
    return values[~np.isnan(values)]


class TestFp16Contract:
    """``to_fp16`` is numpy's float16 round trip, bit for bit.

    The bit-level rounding of float32 input is checked where it can go
    wrong: ties, carries into the exponent, the subnormal band, the
    overflow edge, signed zeros and infinities.  Every other input
    takes the cast itself.  ``scripts/check_fp16_exhaustive.py`` sweeps
    all 2**32 float32 patterns.
    """

    def test_every_float16_value(self):
        assert_bits_match_cast(float16_values())

    def test_midpoints_and_neighbours(self):
        # Midpoints between adjacent float16 values (exact in float32)
        # are RNE ties; one float32 ulp either side must round away
        # from the tie.  Midpoints below an exponent boundary carry
        # into the next binade when they round up.
        # (The midpoint past the largest finite value, 65520, is in
        # test_overflow_edge.)
        positive = float16_values()
        positive = np.unique(positive[(positive >= 0) & (positive < np.inf)])
        mids = (positive[:-1] + positive[1:]) / np.float32(2)
        assert ((mids > positive[:-1]) & (mids < positive[1:])).all()
        bits = mids.view(np.uint32)
        around = np.concatenate([bits - 1, bits, bits + 1]).view(np.float32)
        assert_bits_match_cast(np.concatenate([around, -around]))

    def test_subnormal_band(self):
        # Every float32 pattern below the smallest normal float16
        # (2**-14) at a prime stride, both signs: values rounding to
        # zero, to each float16 subnormal, and up to 2**-14 itself.
        bits = np.arange(0, 0x38800000 + 1, 61, dtype=np.uint32)
        band = bits.view(np.float32)
        assert_bits_match_cast(np.concatenate([band, -band]))

    @pytest.mark.parametrize("value", [
        65504.0, 65519.996, 65520.0, 65536.0, 65535.99, 1e38,
    ])
    def test_overflow_edge(self, value):
        edge = np.float32(value).view(np.uint32)
        near = np.arange(edge - 2, edge + 3, dtype=np.uint32)
        near = near.view(np.float32)
        assert_bits_match_cast(np.concatenate([near, -near]))

    def test_signed_zeros_and_infinities(self):
        assert_bits_match_cast([0.0, -0.0, np.inf, -np.inf, 1.0])
        out = to_fp16(np.float32([-0.0, -1e-9, -np.inf]))
        assert np.signbit(out).all()

    def test_nan_payloads(self):
        payloads = np.array([
            0x7FC00000, 0x7F800001, 0x7FA00000, 0x7FFFFFFF, 0x7F802000,
            0xFFC00000, 0xFF800001, 0xFFFFE000,
        ], dtype=np.uint32).view(np.float32)
        finite = np.linspace(-3, 3, 64, dtype=np.float32)
        x = np.concatenate([finite, payloads])
        np.testing.assert_array_equal(
            to_fp16(x).view(np.uint32), cast_fp16(x).view(np.uint32)
        )

    @pytest.mark.parametrize("dtype", [
        np.float64, np.float16, np.int32, np.int64,
    ])
    def test_other_input_dtypes(self, dtype):
        # float64 is cast directly: rounding it to float32 first would
        # round twice.
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(4096) * 300).astype(dtype)
        out = to_fp16(x)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(
            out.view(np.uint32), cast_fp16(x).view(np.uint32)
        )

    def test_double_rounding_case(self):
        # Cast from float64 in one step, 1 + 2**-11 + 2**-40 rounds up
        # to 1 + 2**-10; through float32 it would first become the tie
        # 1 + 2**-11 and then round down to even, 1.0.
        value = 1.0 + 2.0**-11 + 2.0**-40
        assert to_fp16(np.array([value]))[0] == np.float32(1.0 + 2.0**-10)

    def test_strided_scalar_and_empty_input(self):
        x = np.random.default_rng(4).standard_normal(
            (300, 2)
        ).astype(np.float32)
        x[6, 0] = 3e-6  # subnormal band, inside the strided view
        tiny = np.float32(-3e-6)
        for view in (x[::3, 0], x.T, x[:0], np.asarray(tiny)):
            assert_bits_match_cast(view)

    def test_returns_a_new_array(self):
        x = np.ones(16, dtype=np.float32)
        out = to_fp16(x)
        assert not np.shares_memory(out, x)

