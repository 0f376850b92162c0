"""Tests for the pool workers' CPU priority policy.

Every job here returns the niceness of the process that ran it, so a
test reads the policy where the work happens: pool workers run
:data:`~repro.engine.blas.WORKER_NICE` below their owner, the inline
executor and the owner itself keep the owner's priority.
"""

import os

import pytest

from repro.engine import EvalJob, ExperimentEngine, install_fault_plan
from repro.engine.blas import WORKER_NICE
from repro.engine.faults import FAULT_PLAN_ENV
from repro.engine.jobs import register_job_kind

KIND = "priority-test"


@register_job_kind(KIND)
def _niceness(job: EvalJob, forward_batch: int) -> int:
    return os.getpriority(os.PRIO_PROCESS, 0)


def _job(seed: int = 0) -> EvalJob:
    return EvalJob(model="m", dataset="d", method="nice", num_samples=1,
                   seed=seed, kind=KIND)


def _owner() -> int:
    return os.getpriority(os.PRIO_PROCESS, 0)


def _lowered(niceness: int) -> int:
    return min(niceness + WORKER_NICE, 19)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    yield
    install_fault_plan(None)


def test_pool_jobs_run_below_the_owner():
    assert 0 < WORKER_NICE <= 19
    owner = _owner()
    with ExperimentEngine(workers=2) as engine:
        results = engine.run([_job(0), _job(1)])
    assert set(results.values()) == {_lowered(owner)}
    assert _owner() == owner


def test_inline_jobs_run_at_the_owners_priority():
    owner = _owner()
    with ExperimentEngine(workers=1) as engine:
        assert engine.run([_job()])[_job()] == owner
    assert _owner() == owner


@pytest.mark.slow
def test_respawned_worker_is_lowered_again():
    owner = _owner()
    install_fault_plan(f"{KIND}:*:s0@1:kill")
    with ExperimentEngine(workers=2) as engine:
        results = engine.run([_job(0), _job(1)])
        assert engine.stats.pool_crashes >= 1
    assert set(results.values()) == {_lowered(owner)}


@pytest.mark.parametrize("refusal", ["raises", "missing"])
def test_pool_works_where_nice_is_refused(monkeypatch, refusal):
    """Forked workers inherit the patched ``os``: the initializer
    meets the refusal and the pool still runs, at the owner's
    priority."""
    if refusal == "raises":
        def refuse(increment):
            raise OSError("nice refused")

        monkeypatch.setattr(os, "nice", refuse)
    else:
        monkeypatch.delattr(os, "nice")
    owner = _owner()
    with ExperimentEngine(workers=2) as engine:
        results = engine.run([_job(0), _job(1)])
    assert set(results.values()) == {owner}
