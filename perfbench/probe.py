"""Host-speed probe: a fixed unit of CPU work, timed over and over.

Started by the benchmark for the length of a run::

    python3 perfbench/probe.py

Every ``PERIOD_S`` it runs one unit of the work the program mostly
does — interpreted Python (arithmetic, string keys, dict updates),
many numpy calls on small arrays, and one single-threaded matrix
product and softmax of the synthetic models' size (hidden 192) — and
prints ``<perf_counter at
the unit's midpoint> <CPU seconds the unit took>``.  CPU time, not
wall time, so waiting for a core the program holds does not count;
what remains is how fast the host runs a fixed piece of work at that
moment.  It exits on SIGINT or SIGTERM, or when its reader goes away.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

PERIOD_S = 0.25
_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((128, 192))
_W = _RNG.standard_normal((192, 192)) / 16
_V = _RNG.standard_normal(64)


def unit() -> float:
    total, table = 0, {}
    for i in range(2_000):
        key = f"k{i % 500}"
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    v = _V
    for _ in range(100):
        v = np.tanh(v * 0.5 + 0.1)
    x = np.tanh(_X @ _W)
    x = np.exp(x - x.max(axis=1, keepdims=True))
    x /= x.sum(axis=1, keepdims=True)
    return total + float(v[0]) + float(x[0, 0])


def main() -> int:
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    unit()  # the first call pays for lazy set-up
    try:
        while True:
            start, cpu = time.perf_counter(), time.thread_time()
            unit()
            cpu = time.thread_time() - cpu
            mid = (start + time.perf_counter()) / 2
            print(f"{mid:.6f} {cpu:.6f}", flush=True)
            time.sleep(PERIOD_S)
    except (KeyboardInterrupt, BrokenPipeError):
        return 0


if __name__ == "__main__":
    sys.exit(main())
