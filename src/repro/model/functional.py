"""Numerical primitives for the NumPy transformer substrate.

These mirror the operations the paper's accelerator executes: GEMMs on
the systolic array, and softmax / RMSNorm on the special function unit
(SFU).  All functions are pure and operate on ``float32`` arrays.
"""

from __future__ import annotations

import functools

import numpy as np


def softmax(
    x: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The shift, the exponential and the normalizing division all run in
    place on one array: a fresh one by default (never the caller's
    input), or ``out`` when given, numpy's ``out=`` convention.  Pass
    ``out=x`` to overwrite a float32 array the caller owns, such as
    the attention scores; that skips the largest temporary of the
    attention hot path, whose fresh pages cost more than the
    arithmetic.  Every element sees the same operations either way,
    so the result is bit-identical.
    """
    x = np.asarray(x, dtype=np.float32)
    shifted = np.subtract(
        x, np.max(x, axis=axis, keepdims=True), out=out
    )
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def rms_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalization (no learned gain).

    RMSNorm is the normalization used by the Qwen2 backbones of the
    paper's evaluation models and is one of the SFU operations Focus
    shares silicon with (Sec. VI-A).
    """
    x = np.asarray(x, dtype=np.float32)
    # np.mean's own steps (numpy/_core/_methods.py:_mean) without its
    # Python wrapper: the same bits at a fraction of the call cost.
    sq_mean = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    np.true_divide(
        sq_mean, np.intp(x.shape[-1]), out=sq_mean, casting="unsafe"
    )
    scale = np.sqrt(sq_mean + eps)
    return x / scale


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    x = np.asarray(x, dtype=np.float32)
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))
    return 0.5 * x * (1.0 + np.tanh(inner))


MASK_CACHE_MAX_ENTRIES = 32
"""LRU bound on memoized causal masks.  Each entry is ``s^2`` float32;
token counts repeat heavily within a forward pass (every layer between
two pruning events sees the same count) and across samples of one
dataset, so a small cap captures nearly all reuse at bounded memory."""


@functools.lru_cache(maxsize=MASK_CACHE_MAX_ENTRIES)
def causal_mask(num_tokens: int) -> np.ndarray:
    """Additive causal mask: 0 on/below the diagonal, -inf above.

    Masks are memoized per token count (the forward pass requests the
    same sizes at every layer) and returned *read-only* so a cached
    array can never be corrupted in place; add it, don't mutate it.
    """
    num_tokens = int(num_tokens)
    mask = np.zeros((num_tokens, num_tokens), dtype=np.float32)
    upper = np.triu_indices(num_tokens, k=1)
    mask[upper] = -np.inf
    mask.flags.writeable = False
    return mask


def attention_scores(
    q_h: np.ndarray, k_h: np.ndarray, head_dim: int
) -> np.ndarray:
    """Scaled, causally masked attention scores.

    Accepts per-head arrays of shape ``(..., s, head_dim)`` — the
    forward passes ``(lanes, heads, s, head_dim)``; ``matmul`` runs
    the very same per-slice GEMM for every lane and the scale/mask
    apply elementwise, so each lane's scores are bit-identical to a
    one-lane pass.

    The float32 scale keeps the attention path in float32 end to end:
    a bare ``np.sqrt(python int)`` is a float64 scalar and would
    silently promote every score matrix.  Scale and mask apply in
    place on the fresh matmul output (the memoized mask is only read).
    """
    scores = q_h @ np.swapaxes(k_h, -2, -1)
    scores /= np.float32(np.sqrt(head_dim))
    scores += causal_mask(scores.shape[-1])
    assert scores.dtype == np.float32, (
        f"attention scores promoted to {scores.dtype}"
    )
    return scores


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``.

    Args:
        a: Array of shape ``(na, d)``.
        b: Array of shape ``(nb, d)``.
        eps: Norm floor preventing division by zero.

    Returns:
        Array of shape ``(na, nb)``.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    return (a @ b.T) / np.maximum(na @ nb.T, eps)


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> float:
    """Cosine similarity between two 1-D vectors."""
    a = np.asarray(a, dtype=np.float32).ravel()
    b = np.asarray(b, dtype=np.float32).ravel()
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), eps)
    return float(a @ b) / denom
