"""Single-flight: concurrent ``run()`` batches that share a unit execute
it once.

The engine's in-flight table turns a unit another live batch is
executing into a *waiter* on that batch's result.  These tests drive
two batches on two threads of one engine and pin down:

* N shared units execute exactly N times, in-process and on the pool,
  whether the batches list them in the same or in opposite orders;
* many batches in random orders under fast thread switching execute
  each shared unit once;
* an owner that is cancelled, or gives up in raise mode, passes
  nothing on: the waiter executes the unit under its own attempts;
* a split cell joins another batch's samples one by one.

Units are gated on a file (pool workers see it too), so a test opens
the gate only once both batches have classified their units.  Every
thread is joined with a timeout: a deadlock fails, it does not hang.
"""

from __future__ import annotations

import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import EvalJob, ExperimentEngine
from repro.engine.faults import JobFailure, RetryPolicy
from repro.engine.jobs import JOB_EXECUTORS, register_job_kind
from repro.eval.eval_shards import cell_samples, span_job

JOIN_S = 60.0
GATE_S = 30.0
INFLIGHT = {"tier": "inflight"}


@register_job_kind("single-flight")
def _gated_unit(job: EvalJob, forward_batch: int) -> dict:
    """Wait for the job's gate file, then return (or raise) a payload
    that names the unit."""
    extra = job.extra_map
    gate = extra.get("gate")
    if gate:
        deadline = time.monotonic() + GATE_S
        while not os.path.exists(gate):
            if time.monotonic() > deadline:
                raise TimeoutError(f"gate {gate} never opened")
            time.sleep(0.005)
    if extra.get("fail"):
        raise RuntimeError(
            f"{job.method} failed on {threading.current_thread().name}"
        )
    return {"unit": job.method, "seed": job.seed}


def unit(name: str, gate: Path | None = None, fail: bool = False):
    extra = []
    if gate is not None:
        extra.append(("gate", str(gate)))
    if fail:
        extra.append(("fail", True))
    return EvalJob(
        model="m", dataset="d", method=name, num_samples=1, seed=0,
        kind="single-flight", extra=tuple(extra), provider=__name__,
    )


class Batch(threading.Thread):
    """One ``engine.run`` on its own thread; keeps the outcome."""

    def __init__(self, engine, jobs, name, on_event=None, **kwargs):
        super().__init__(name=name, daemon=True)
        self.engine, self.jobs, self.kwargs = engine, jobs, kwargs
        self.on_event = on_event
        self.events = []
        self.result = None
        self.error = None

    def progress(self, event):
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)

    def run(self):
        try:
            self.result = self.engine.run(
                self.jobs, progress=self.progress, **self.kwargs
            )
        except BaseException as exc:  # noqa: BLE001 — asserted on
            self.error = exc

    def finish(self):
        self.join(JOIN_S)
        assert not self.is_alive(), f"{self.name} deadlocked"

    def actions(self, job):
        return [
            (e.action, e.detail) for e in self.events if e.job == job
            and e.action in ("cache-hit", "completed")
        ]


def started(job=None):
    """A progress hook and the event it sets on ``job``'s (or any)
    ``started`` event."""
    flag = threading.Event()

    def hook(event):
        if event.action == "started" and job in (None, event.job):
            flag.set()

    return flag, hook


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order", [1, -1], ids=["same", "opposite"])
def test_shared_units_execute_once(tmp_path, workers, order):
    gate = tmp_path / "gate"
    shared = [unit(f"u{i}", gate) for i in range(4)]
    own_b = unit("b")
    a_started, on_a = started()
    b_started, on_b = started(own_b)
    engine = ExperimentEngine(workers=workers)
    try:
        owner = Batch(engine, [*shared, unit("a")], "owner", on_a)
        owner.start()
        assert a_started.wait(JOIN_S)
        waiter = Batch(engine, [own_b, *shared[::order]], "waiter", on_b)
        waiter.start()
        assert b_started.wait(JOIN_S)
        gate.touch()
        owner.finish()
        waiter.finish()
    finally:
        engine.close()
    assert owner.error is None and waiter.error is None
    assert engine.stats.executed == len(shared) + 2
    assert engine.stats.joined == len(shared)
    for job in shared:
        assert owner.result[job] == waiter.result[job] == {
            "unit": job.method, "seed": 0,
        }
        assert waiter.actions(job) == [("cache-hit", INFLIGHT)]
        assert owner.actions(job) == [("completed", None)]


def test_many_batches_under_fast_switching_execute_each_unit_once():
    # More threads than cores, switching every microsecond: a claim or
    # release that lost an update would execute a unit twice or never.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(5):
            units = [unit(f"r{round_}-{i}") for i in range(8)]
            engine = ExperimentEngine(workers=1)
            batches = [
                Batch(engine, random.Random(i).sample(units, len(units)),
                      f"batch-{i}")
                for i in range(6)
            ]
            for batch in batches:
                batch.start()
            for batch in batches:
                batch.finish()
            assert [b.error for b in batches] == [None] * len(batches)
            assert engine.stats.executed == len(units)
            for batch in batches:
                assert batch.result == batches[0].result
    finally:
        sys.setswitchinterval(interval)


class Cancelled(RuntimeError):
    pass


def test_cancelled_owner_leaves_the_unit_to_its_waiter(tmp_path):
    gate = tmp_path / "gate"
    shared, quick, own_b = unit("shared", gate), unit("quick"), unit("b")
    a_started, on_a_start = started(shared)
    b_started, on_b = started(own_b)
    cancelling = threading.Event()

    def on_a(event):
        on_a_start(event)
        if event.action == "completed" and event.job == quick:
            # Cancel mid-job: `shared` is running on the other worker.
            assert b_started.wait(JOIN_S)
            cancelling.set()
            raise Cancelled("owner cancelled")

    engine = ExperimentEngine(workers=2)
    try:
        owner = Batch(engine, [shared, quick], "owner", on_a)
        owner.start()
        assert a_started.wait(JOIN_S)
        waiter = Batch(engine, [own_b, shared], "waiter", on_b)
        waiter.start()
        assert cancelling.wait(JOIN_S)
        gate.touch()
        owner.finish()
        waiter.finish()
    finally:
        engine.close()
    assert isinstance(owner.error, Cancelled)
    assert waiter.error is None
    # The waiter executed the unit itself: no in-flight hit.
    assert waiter.actions(shared) == [("completed", None)]
    assert waiter.result[shared] == {"unit": "shared", "seed": 0}
    assert engine.stats.joined == 0


def test_owner_giving_up_passes_no_failure_on(tmp_path):
    gate = tmp_path / "gate"
    doomed, own_b = unit("doomed", gate, fail=True), unit("b")
    a_started, on_a = started(doomed)
    b_started, on_b = started(own_b)
    engine = ExperimentEngine(
        workers=1, retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
    )
    owner = Batch(engine, [doomed], "owner", on_a)
    owner.start()
    assert a_started.wait(JOIN_S)
    waiter = Batch(
        engine, [own_b, doomed], "waiter", on_b, on_error="collect",
    )
    waiter.start()
    assert b_started.wait(JOIN_S)
    gate.touch()
    owner.finish()
    waiter.finish()
    assert isinstance(owner.error, RuntimeError)
    assert "owner" in str(owner.error)
    assert waiter.error is None
    failure = waiter.result[doomed]
    assert isinstance(failure, JobFailure)
    # The waiter's own two attempts, none of the owner's.
    assert failure.attempts == 2
    assert len(failure.tracebacks) == 2
    assert all(
        "failed on waiter" in tb and "owner" not in tb
        for tb in failure.tracebacks
    )
    assert waiter.result[own_b] == {"unit": "b", "seed": 0}


@pytest.mark.slow
@pytest.mark.parametrize("forward_batch", [1, 2])
def test_split_cell_joins_per_sample(monkeypatch, forward_batch):
    gate = threading.Event()
    evaluate = JOB_EXECUTORS["eval"]

    def gated(job, lanes):
        assert gate.wait(GATE_S)
        return evaluate(job, lanes)

    monkeypatch.setitem(JOB_EXECUTORS, "eval", gated)
    cell = EvalJob(model="llava-video", dataset="vqav2",
                   method="focus", num_samples=4, seed=0)
    half = span_job(cell, 0, 2)
    own_b = unit("b")
    a_started, on_a = started()
    b_started, on_b = started(own_b)
    engine = ExperimentEngine(workers=1, forward_batch=forward_batch)
    owner = Batch(engine, [cell], "owner", on_a)
    owner.start()
    assert a_started.wait(JOIN_S)
    waiter = Batch(engine, [own_b, half], "waiter", on_b)
    waiter.start()
    assert b_started.wait(JOIN_S)
    gate.set()
    owner.finish()
    waiter.finish()
    assert owner.error is None and waiter.error is None
    samples = cell_samples(half)
    assert engine.stats.joined == len(samples)
    assert engine.stats.executed_by_kind["eval"] == 4 // forward_batch
    for sample in samples:
        assert waiter.actions(sample) == [("cache-hit", INFLIGHT)]
    shards = [e for e in waiter.events if e.action == "eval-shard-done"]
    assert [e.detail["shards_done"] for e in shards] == [1, 2]
    # The waiter's fold equals a fresh run of the half cell.
    fresh = ExperimentEngine(workers=1).run([half])[half]
    assert waiter.result[half].accuracy == fresh.accuracy
    assert waiter.result[half].sparsities == fresh.sparsities
    assert waiter.result[half].dense_macs == fresh.dense_macs
