"""Tests for repro.model.functional (numeric primitives)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.model.functional import (
    causal_mask,
    cosine_similarity,
    cosine_similarity_matrix,
    gelu,
    rms_norm,
    softmax,
)

finite_rows = hnp.arrays(
    np.float32, (4, 8),
    elements=st.floats(-10, 10, width=32, allow_nan=False),
)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = np.random.default_rng(0).standard_normal((5, 7)).astype(np.float32)
        out = softmax(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-5)

    def test_handles_large_logits(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    def test_neg_inf_mask(self):
        out = softmax(np.array([[0.0, -np.inf]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]])

    def test_out_in_place_is_bit_identical(self):
        x = np.random.default_rng(5).standard_normal(
            (2, 3, 9, 9)
        ).astype(np.float32)
        x += causal_mask(9)
        fresh = softmax(x, axis=-1)
        assert not np.shares_memory(fresh, x)
        scores = x.copy()
        probs = softmax(scores, axis=-1, out=scores)
        assert probs is scores
        np.testing.assert_array_equal(
            probs.view(np.uint32), fresh.view(np.uint32)
        )

    @given(finite_rows)
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, x):
        shifted = softmax(x + 3.0)
        np.testing.assert_allclose(softmax(x), shifted, atol=1e-5)


class TestRmsNorm:
    def test_output_rms_is_one(self):
        x = np.random.default_rng(1).standard_normal((6, 32)).astype(np.float32)
        out = rms_norm(x)
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-4)

    def test_direction_preserved(self):
        x = np.array([[3.0, 4.0]], dtype=np.float32)
        out = rms_norm(x)
        np.testing.assert_allclose(out[0] / np.linalg.norm(out[0]),
                                   x[0] / np.linalg.norm(x[0]), rtol=1e-5)

    def test_scale_invariant_direction(self):
        x = np.random.default_rng(2).standard_normal((1, 16)).astype(np.float32)
        np.testing.assert_allclose(rms_norm(x), rms_norm(5 * x), rtol=1e-4)

    def test_zero_input_safe(self):
        out = rms_norm(np.zeros((2, 8), dtype=np.float32))
        assert np.isfinite(out).all()


class TestGelu:
    def test_zero_at_zero(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_monotone_on_positive(self):
        x = np.linspace(0, 5, 50)
        out = gelu(x)
        assert (np.diff(out) > 0).all()

    def test_asymptotes(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)


class TestCausalMask:
    def test_shape_and_values(self):
        mask = causal_mask(4)
        assert mask.shape == (4, 4)
        assert (np.tril(np.ones((4, 4))) == (mask == 0)).all()
        assert np.isneginf(mask[0, 1])

    def test_single_token(self):
        assert causal_mask(1).item() == 0.0


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_antiparallel(self):
        assert cosine_similarity([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(-1.0)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 5)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        mat = cosine_similarity_matrix(a, b)
        assert mat.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert mat[i, j] == pytest.approx(
                    cosine_similarity(a[i], b[j]), abs=1e-5
                )

    @given(hnp.arrays(np.float32, (5,),
                      elements=st.floats(-100, 100, width=32)),
           hnp.arrays(np.float32, (5,),
                      elements=st.floats(-100, 100, width=32)))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, a, b):
        sim = cosine_similarity(a, b)
        assert -1.0001 <= sim <= 1.0001
