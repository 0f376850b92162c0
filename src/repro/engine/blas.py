"""BLAS thread policy for worker processes.

A pool of ``N`` workers each running OpenBLAS's default ``ncores``
threads puts ``N x ncores`` compute threads on ``ncores`` cores.  On a
2-vCPU host that oversubscription made ``all --samples 1 --workers 2``
5-8x *slower* than serial (55-92 s against 11-13 s); pinned to one
BLAS thread per worker the same pool is 1.4-1.7x faster.  So every
engine pool starts its workers through :func:`pin_worker`, while the
serial, in-process path keeps whatever threading the environment sets
(``OPENBLAS_NUM_THREADS`` and friends).

Every loaded OpenBLAS is found in ``/proc/self/maps`` and driven
through ``ctypes``: numpy's bundled ``libscipy_openblas64_`` and
scipy's ``libscipy_openblas`` export their setters under prefixed or
suffixed names, and no third-party thread controller is needed.
Everything degrades to a no-op where no OpenBLAS is mapped (another
BLAS vendor, a platform without ``/proc``).
"""

from __future__ import annotations

import ctypes

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
    """Pool initializer: one BLAS thread for this worker process.

    numpy is imported first so a worker started by ``spawn`` or
    ``forkserver`` (not only ``fork``) has its OpenBLAS mapped before
    the lookup.
    """
    import numpy  # noqa: F401

    set_blas_threads(1)
