"""Process policy for engine pool workers: BLAS threads and CPU priority.

Every engine pool starts its workers through :func:`pin_worker`, so
CLI runs, ``repro serve``, peer shares and respawns after a crash all
get both halves of the policy; the serial, in-process path keeps the
environment's threading and the owner's priority.

**BLAS threads.**  A pool of ``N`` workers each running OpenBLAS's
default ``ncores`` threads puts ``N x ncores`` compute threads on
``ncores`` cores.  On a 2-vCPU host that oversubscription made
``all --samples 1 --workers 2`` 5-8x *slower* than serial (55-92 s
against 11-13 s); pinned to one BLAS thread per worker the same pool
is 1.4-1.7x faster.  So a worker runs one BLAS thread, while the
serial path keeps whatever threading the environment sets
(``OPENBLAS_NUM_THREADS`` and friends).

Every loaded OpenBLAS is found in ``/proc/self/maps`` and driven
through ``ctypes``: numpy's bundled ``libscipy_openblas64_`` and
scipy's ``libscipy_openblas`` export their setters under prefixed or
suffixed names, and no third-party thread controller is needed.
Everything degrades to a no-op where no OpenBLAS is mapped (another
BLAS vendor, a platform without ``/proc``).

**CPU priority.**  A worker lowers its own priority by
:data:`WORKER_NICE`, so the process that owns the pool -- the
server's event loop and engine threads, or an idle CLI parent --
is scheduled ahead of bulk compute whenever it has work (see the
constant for the numbers).
"""

from __future__ import annotations

import ctypes
import os

WORKER_NICE = 10
"""Niceness a pool worker adds to the one it inherits from its owner
(the kernel caps the sum at 19).

On a 2-vCPU host two workers running a cold ``mtconv`` pair held both
cores, so ``repro serve``'s warm hits waited for a core: the server's
threads spent 3.0-3.2 ms per request on the run queue.  With the
workers niced that wait fell to 0.8-1.0 ms, and perfbench
``serve-mix`` ``pass_s`` fell from 8.53 to 3.99 ms (medians of 10
alternating pairs); cold requests, which now yield to hits, rose from
211 to 246 ms p50.  ``paper-cold`` does not move: the CLI parent
sleeps while its workers compute.

10 against 5 (6 alternating ``serve-mix`` pairs): ``pass_s`` 3.88
against 4.07 ms median, and a lower hit p99 in every pair (7.2-9.5
against 9.7-11.0 ms) at the same cold p50.  Against a busy owner
thread a nice-10 worker still gets about a tenth of a core (CFS
weights 110 against 1024), so cold runs keep moving; at 19 it would
get about 1.5%.
"""

SETTERS = (
    "openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads_64_",
    "scipy_openblas_set_num_threads",
)
GETTERS = (
    "openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads_64_",
    "scipy_openblas_get_num_threads",
)


def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """Every OpenBLAS shared object mapped into this process, by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8",
                  errors="replace") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return {}
    paths = sorted({
        each[5].strip() for each in fields
        if len(each) == 6 and "openblas" in each[5].rsplit("/", 1)[-1]
    })
    libraries = {}
    for path in paths:
        try:
            libraries[path] = ctypes.CDLL(path)
        except OSError:
            pass
    return libraries


def _first_symbol(library: ctypes.CDLL, names: tuple[str, ...]):
    for name in names:
        try:
            return getattr(library, name)
        except AttributeError:
            continue
    return None


def set_blas_threads(count: int) -> None:
    """Set every mapped OpenBLAS to ``count`` threads (a no-op when
    none is mapped)."""
    for library in _openblas_libraries().values():
        setter = _first_symbol(library, SETTERS)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(count)


def blas_threads() -> dict[str, int]:
    """Thread count of every mapped OpenBLAS, keyed by library path."""
    threads = {}
    for path, library in _openblas_libraries().items():
        getter = _first_symbol(library, GETTERS)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            threads[path] = getter()
    return threads


def pin_worker() -> None:
    """Pool initializer: this worker process runs one BLAS thread at
    :data:`WORKER_NICE` below its owner's CPU priority.

    numpy is imported first so a worker started by ``spawn`` or
    ``forkserver`` (not only ``fork``) has its OpenBLAS mapped before
    the lookup.  Lowering the priority is best effort: where the
    platform has no ``os.nice`` or refuses the call, the worker runs at
    its owner's priority.  Neither half changes a computed bit.
    """
    import numpy  # noqa: F401

    set_blas_threads(1)
    try:
        os.nice(WORKER_NICE)
    except (OSError, AttributeError):
        pass
