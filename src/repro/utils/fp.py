"""Floating-point precision emulation.

The Focus accelerator computes GEMMs with FP16 multipliers and FP32
accumulators (Table I).  NumPy on CPU computes in FP32/FP64; these
helpers round values through ``float16`` so the algorithmic results see
the same quantization the hardware would.

Rounding float32 to float16 and back is the forward pass's most
frequent elementwise step (every residual add), and numpy's
``astype(float16).astype(float32)`` round trip costs several
nanoseconds per element on hosts where it takes numpy's scalar path.
:func:`to_fp16` therefore rounds float32 input on its ``uint32`` bit
pattern instead, in a handful of whole-array integer operations:

* **Normal range** (``|x| >= 2**-14``, the smallest normal float16):
  float16 keeps the top 10 of float32's 23 mantissa bits.  Adding
  ``0x0FFF`` plus the lowest kept bit (bit 13) and clearing the 13
  dropped bits rounds the magnitude to nearest, ties to even (RNE);
  a carry out of the mantissa bumps the exponent, which is exactly
  IEEE rounding up into the next binade.
* **Overflow**: a rounded magnitude of ``2**16`` (``0x47800000``) or
  more is past float16's largest finite value (65504), so it becomes
  infinity, as the cast does; ``65520`` is the first value to round
  there.
* **Subnormal band** (``|x| < 2**-14``): float16 spacing there is
  the fixed ``2**-24``, which is the float32 spacing of ``[0.5, 1)``,
  so ``(|x| + 0.5) - 0.5`` in float32 rounds to the float16 grid with
  the hardware's own RNE, and the subtraction is exact.
* The sign bit is copied back unchanged (so ``-0.0`` and negative
  values that round to zero keep their sign).

The result is bit-identical to numpy's cast on every non-NaN float32
pattern (``scripts/check_fp16_exhaustive.py`` sweeps all ``2**32``;
``tests/test_utils.py`` checks ties, carries, the subnormal band and
the overflow edge).  NaN payloads and non-float32 input (rounding
float64 to float32 first would round twice) keep numpy's cast.
"""

from __future__ import annotations

import numpy as np

_MAGNITUDE = np.uint32(0x7FFFFFFF)
_SIGN = np.uint32(0x80000000)
_INF = np.uint32(0x7F800000)
_DROPPED = np.uint32(0xFFFFE000)
"""Keeps float16's 10 mantissa bits of a float32 pattern."""
_FP16_OVERFLOW = np.uint32(0x47800000)
"""``2**16``: a rounded magnitude this large is float16 infinity."""
_FP16_OVERFLOW_MIN = np.uint32(0x477FF000)
"""``65520``, the smallest float32 magnitude that rounds to infinity."""
_FP16_MIN_NORMAL = np.uint32(0x38800000)
"""``2**-14``, the smallest normal float16."""
_HALF = np.float32(0.5)


def _cast_fp16(x: np.ndarray) -> np.ndarray:
    """The reference rounding: numpy's float16 cast and back."""
    return np.asarray(x, dtype=np.float16).astype(np.float32)


def _round_fp16_bits(x: np.ndarray) -> np.ndarray | None:
    """RNE-round non-empty float32 ``x`` to float16 values, as float32.

    Returns ``None`` when ``x`` holds a NaN (the caller falls back to
    the cast, which owns NaN payload handling).
    """
    bits = np.ascontiguousarray(x).reshape(-1).view(np.uint32)
    out = bits & _MAGNITUDE
    top = out.max()
    if top > _INF:
        return None
    tiny = np.flatnonzero(out < _FP16_MIN_NORMAL)
    tiny_values = out[tiny].view(np.float32)
    carry = out >> 13
    carry &= 1
    carry += 0x0FFF
    out += carry
    out &= _DROPPED
    if top >= _FP16_OVERFLOW_MIN:
        np.putmask(out, out >= _FP16_OVERFLOW, _INF)
    if tiny.size:
        tiny_values += _HALF
        tiny_values -= _HALF
        out[tiny] = tiny_values.view(np.uint32)
    np.bitwise_and(bits, _SIGN, out=carry)
    out |= carry
    return out.view(np.float32).reshape(x.shape)


def to_fp16(x: np.ndarray) -> np.ndarray:
    """Round ``x`` through IEEE float16 and return it as float32.

    This models storing a value in an FP16 register or SRAM word while
    keeping subsequent NumPy arithmetic in float32 (the accumulator
    precision of the paper's PE array).  The result is always a new
    array; see the module docstring for the bit-level rounding.
    """
    x = np.asarray(x)
    if x.dtype == np.float32 and x.size:
        rounded = _round_fp16_bits(x)
        if rounded is not None:
            return rounded
    return _cast_fp16(x)


def quantize_fp16(x: np.ndarray, enabled: bool = True) -> np.ndarray:
    """Conditionally apply :func:`to_fp16`.

    Args:
        x: Input array.
        enabled: When ``False`` the input is returned unchanged, which
            is useful for ablating precision effects in tests.
    """
    return to_fp16(x) if enabled else np.asarray(x, dtype=np.float32)
