"""INT8 quantization emulation for the Table IV synergy study."""

from repro.quant.int8 import INT8_LEVELS, fake_quant_int8, quantize_model

__all__ = ["INT8_LEVELS", "fake_quant_int8", "quantize_model"]
