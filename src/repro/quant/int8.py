"""INT8 quantization emulation (Table IV: synergy with quantization).

The paper integrates Focus with bitsandbytes-style INT8 inference.  We
emulate it with absmax fake-quantization: weights are quantized
per-output-channel once, by :func:`quantize_model`, and activations
per-token at every GEMM input.  The INT8 arm is a model variant, not a
method: the quantized :class:`~repro.model.vlm.SyntheticVLM` rounds
the inputs of its qkv, o_proj and fc1 GEMMs itself, before the
method's plugin sees them, so any method runs on the INT8 datapath
with its own plugin.  Values are rounded through the INT8 grid and
dequantized, so the rest of the NumPy pipeline (and the similarity
matcher, whose thresholds the quantization perturbs) sees exactly the
precision the hardware would.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - repro.model.vlm imports this module
    from repro.model.vlm import SyntheticVLM

INT8_LEVELS = 127
"""Symmetric signed INT8 grid."""

_SMALLEST_SCALE = np.finfo(np.float32).smallest_subnormal


def fake_quant_int8(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Round ``x`` through a symmetric per-slice INT8 grid.

    Args:
        x: Input array.
        axis: Axis along which each slice gets its own absmax scale
            (``-1``: per-row scaling for activations; ``0``: per-output-
            channel for weight matrices).
    """
    x = np.asarray(x, dtype=np.float32)
    scale = np.max(np.abs(x), axis=axis, keepdims=True) / INT8_LEVELS
    # A slice whose scale underflows (all zeros, or subnormals below
    # ~9e-44) takes the float32 grid itself, which holds it exactly;
    # a scale of 1.0 would round such values to zero.
    scale = np.where(scale > 0, scale, _SMALLEST_SCALE)
    return (np.round(x / scale) * scale).astype(np.float32, copy=False)


def quantize_model(model: SyntheticVLM) -> SyntheticVLM:
    """Return the INT8 variant of ``model``.

    Each projection matrix is quantized per output channel, the
    standard absmax scheme of bitsandbytes' LLM.int8 path, and the
    copy is marked :attr:`~repro.model.vlm.SyntheticVLM.quantized`, so
    its forward passes round GEMM-site activations per token.  The
    copy shares the original's config, which keeps dense-MAC
    accounting (and therefore sparsity) directly comparable; no
    weights are built twice.
    """
    quantized = copy.copy(model)
    quantized.quantized = True
    quantized.layers = [
        dataclasses.replace(weights, **{
            field.name: fake_quant_int8(getattr(weights, field.name), axis=0)
            for field in dataclasses.fields(weights)
        })
        for weights in model.layers
    ]
    return quantized
