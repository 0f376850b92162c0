"""Check the bit-level FP16 rounding against numpy's cast on every float32.

Usage::

    PYTHONPATH=src python scripts/check_fp16_exhaustive.py [--chunk-bits 22]

Sweeps all ``2**32`` float32 bit patterns in chunks of ``2**chunk-bits``
and compares :func:`repro.utils.fp._round_fp16_bits` with
``astype(float16).astype(float32)`` bit for bit on every non-NaN
pattern (NaN payloads always take the cast).  Prints one progress line
per 1/16 of the range and a final summary; exits 1 on any mismatch.
The sweep runs single-threaded and takes minutes, so it is not part of
the test suite (``tests/test_utils.py`` holds the targeted contract).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.utils.fp import _cast_fp16, _round_fp16_bits


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--chunk-bits", type=int, default=22,
                        help="log2 of the patterns checked per step")
    args = parser.parse_args(argv)
    chunk = 1 << args.chunk_bits
    total = 1 << 32
    checked = mismatches = 0
    start = time.perf_counter()
    for low in range(0, total, chunk):
        x = np.arange(low, low + chunk, dtype=np.uint64).astype(
            np.uint32).view(np.float32)
        nan = np.isnan(x)
        if nan.any():
            x = x[~nan]
        if x.size == 0:
            continue
        with np.errstate(over="ignore"):  # the cast warns on overflow
            expected = _cast_fp16(x).view(np.uint32)
        got = _round_fp16_bits(x).view(np.uint32)
        bad = np.flatnonzero(expected != got)
        if bad.size:
            mismatches += int(bad.size)
            first = x.view(np.uint32)[bad[0]]
            print(f"mismatch at 0x{first:08x}: cast 0x{expected[bad[0]]:08x}"
                  f" bits 0x{got[bad[0]]:08x}", file=sys.stderr)
        checked += int(x.size)
        if (low + chunk) % (total // 16) == 0:
            print(f"{(low + chunk) / total:6.1%}  checked {checked:,}"
                  f"  mismatches {mismatches}"
                  f"  {time.perf_counter() - start:.0f} s", flush=True)
    print(f"checked {checked:,} non-NaN float32 patterns,"
          f" {mismatches} mismatches,"
          f" {time.perf_counter() - start:.0f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
