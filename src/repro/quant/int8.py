"""INT8 quantization emulation (Table IV: synergy with quantization).

The paper integrates Focus with bitsandbytes-style INT8 inference.  We
emulate it with absmax fake-quantization: weights are quantized
per-output-channel once, activations per-token at every GEMM input.
Values are rounded through the INT8 grid and dequantized, so the rest
of the NumPy pipeline (and the similarity matcher, whose thresholds
the quantization perturbs) sees exactly the precision the hardware
would.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.model.plugins import DedupStats, InferencePlugin
from repro.model.vlm import BatchState, SyntheticVLM, TokenState

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
    return (np.round(x / scale) * scale).astype(np.float32)


def quantize_model(model: SyntheticVLM) -> SyntheticVLM:
    """Return a copy of the model with INT8-rounded weights.

    Each projection matrix is quantized per output channel, the
    standard absmax scheme of bitsandbytes' LLM.int8 path.
    """
    quantized = SyntheticVLM(model.config)
    quantized.layers = []
    for weights in model.layers:
        clone = copy.copy(weights)
        clone = type(weights)(
            wq=fake_quant_int8(weights.wq, axis=0),
            wk=fake_quant_int8(weights.wk, axis=0),
            wv=fake_quant_int8(weights.wv, axis=0),
            wo=fake_quant_int8(weights.wo, axis=0),
            w_fc1=fake_quant_int8(weights.w_fc1, axis=0),
            w_fc2=fake_quant_int8(weights.w_fc2, axis=0),
        )
        quantized.layers.append(clone)
    return quantized


class Int8ActivationPlugin(InferencePlugin):
    """Wrap another plugin with per-token INT8 activation rounding.

    Activations are quantized *before* the wrapped plugin's gather so
    the similarity matcher operates on the values the INT8 datapath
    would actually compare — the interaction Table IV measures.  The
    absmax scale is per row (last axis), so quantizing a stack equals
    quantizing each lane alone.
    """

    def __init__(self, inner: InferencePlugin | None = None) -> None:
        self.inner = inner or InferencePlugin()

    @property
    def needs_attention_summary(self) -> bool:  # type: ignore[override]
        """Delegated: the wrapped plugin decides whether the engine
        must compute per-key attention summaries."""
        return self.inner.needs_attention_summary

    @property
    def reusable(self) -> bool:  # type: ignore[override]
        """Delegated: the wrapper itself is stateless, so reuse is
        exactly as safe as the wrapped plugin's reuse."""
        return self.inner.reusable

    @property
    def stackable(self) -> bool:  # type: ignore[override]
        """Delegated: per-row rounding keeps lanes independent, so the
        wrapped plugin decides whether lanes stay in step."""
        return self.inner.stackable

    def begin(self, batch: BatchState) -> None:
        self.inner.begin(batch)

    def on_visual_tokens(self, state: TokenState) -> None:
        self.inner.on_visual_tokens(state)

    def before_layer(self, layer_index: int, state: TokenState) -> None:
        self.inner.before_layer(layer_index, state)

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        batch: BatchState,
        producers,
        n: int,
    ) -> tuple[np.ndarray, list[DedupStats | None]]:
        quantized = fake_quant_int8(x, axis=-1)
        return self.inner.gemm_input(
            layer_index, site, quantized, batch, producers, n
        )

    def after_attention_probs(
        self, layer_index: int, probs: np.ndarray, batch: BatchState
    ) -> list[np.ndarray] | None:
        return self.inner.after_attention_probs(layer_index, probs, batch)

    def finish(self, batch: BatchState) -> None:
        self.inner.finish(batch)
