"""The dispatch loop's executors.

The local executor is chosen from ``workers`` alone: ``workers == 1``
runs every job inline; anything larger runs every job on the process
pool, however small the batch, and falls back to inline execution
only when the pool cannot be built.  A fleet peer's share is one
future of the same loop, which an aborted batch abandons.
"""

import socket
import time

import pytest

from repro.engine import EvalJob, ExperimentEngine, RetryPolicy
from repro.engine.faults import FAULT_PLAN_ENV, install_fault_plan
from repro.remote.dispatch import LOCAL_NODE


def _job(**overrides) -> EvalJob:
    defaults = dict(model="llava-video", dataset="videomme",
                    method="dense", num_samples=1, seed=0)
    defaults.update(overrides)
    return EvalJob(**defaults)


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    yield
    install_fault_plan(None)


@pytest.mark.slow
def test_lone_job_runs_on_the_pool():
    with ExperimentEngine(workers=2) as engine:
        engine.run([_job()])
        assert engine._pool is not None
        assert engine.stats.executed == 1


@pytest.mark.slow
def test_unbuildable_pool_degrades_to_inline(monkeypatch):
    jobs = [_job(), _job(method="focus")]
    inline = ExperimentEngine().run(jobs)

    def no_pool(self):
        raise OSError("no processes left")

    monkeypatch.setattr(ExperimentEngine, "_ensure_pool", no_pool)
    install_fault_plan("eval:dense:*@1:raise")
    engine = ExperimentEngine(
        workers=2, retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
    )
    results = engine.run(jobs)
    assert engine._pool is None
    assert engine.stats.retries == 1
    assert engine.stats.executed == 2
    assert {job: results[job] for job in jobs} == dict(inline)


class _Cancelled(Exception):
    pass


def test_aborted_batch_abandons_a_silent_peer():
    # A peer that accepts the connection and never answers: its share
    # is still out when the batch aborts, and the abort must not wait
    # for the peer call's timeout.
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen()
    url = f"http://127.0.0.1:{silent.getsockname()[1]}"
    jobs = [_job(seed=seed) for seed in range(16)]

    def cancel_on_first_completed(event):
        if event.action == "completed":
            raise _Cancelled

    engine = ExperimentEngine(peers=[url])
    engine.fleet.peer(url).execute_timeout = 60.0
    shares = engine.fleet.partition(jobs)
    assert shares[LOCAL_NODE] and shares[url]
    start = time.monotonic()
    try:
        with pytest.raises(_Cancelled):
            engine.run(jobs, progress=cancel_on_first_completed)
        assert time.monotonic() - start < 30.0
        assert engine.stats.remote_jobs == 0
    finally:
        silent.close()  # resets the pending connection: the call ends
        engine.close()
