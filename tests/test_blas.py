"""Tests for the pool workers' BLAS thread policy."""

import pytest

from repro.engine import ExperimentEngine
from repro.engine.blas import blas_threads, set_blas_threads


@pytest.fixture
def parent_threads():
    """Give the test process two BLAS threads; restore them afterwards."""
    before = blas_threads()
    if not before:
        pytest.skip("no OpenBLAS mapped into this process")
    set_blas_threads(2)
    yield
    set_blas_threads(next(iter(before.values())))


def test_pool_workers_run_one_blas_thread(parent_threads):
    in_parent = blas_threads()
    with ExperimentEngine(workers=2) as engine:
        in_worker = engine._ensure_pool().submit(blas_threads).result()
    assert in_worker.keys() >= in_parent.keys()
    assert set(in_worker.values()) == {1}
    # The in-process path keeps the threading it was given.
    assert blas_threads().items() >= in_parent.items()
