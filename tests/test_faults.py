"""Fault-tolerance tests: retries, timeouts, crash recovery, injection.

Every scheduler recovery path is driven by the deterministic
:class:`~repro.engine.faults.FaultPlan` harness, so these are ordinary
unit tests — no "hope a worker dies" flakiness.  The heavier scenarios
(real pool crashes, wall-clock timeouts) carry ``slow`` marks.
"""

import asyncio
import logging

import pytest

from repro.engine import (
    DEFAULT_RETRY_POLICY,
    EvalJob,
    ExperimentEngine,
    ExperimentFailure,
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    JobFailure,
    PoisonedJob,
    ResultCache,
    RetryPolicy,
    active_fault_plan,
    execute_job,
    fault_label,
    install_fault_plan,
    run_job_attempt,
)
from repro.engine import registry
from repro.engine.faults import FAULT_PLAN_ENV, shard_failure
from repro.eval.experiments import plan_table2
from repro.serve.async_engine import AsyncExperimentEngine
from repro.store.runstore import RunStore


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


class TestRetryPolicy:
    def test_defaults_disable_exception_retries(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 1
        assert DEFAULT_RETRY_POLICY.max_crash_attempts == 2

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(backoff_s=-0.1),
        dict(backoff_multiplier=0.5),
        dict(max_backoff_s=-1),
        dict(jitter=-0.01),
        dict(max_crash_attempts=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_should_retry_respects_budget_and_classes(self):
        policy = RetryPolicy(
            max_attempts=3, retryable=(RuntimeError,),
            non_retryable=(KeyError,),
        )
        assert policy.should_retry(RuntimeError("x"), attempts=1)
        assert policy.should_retry(RuntimeError("x"), attempts=2)
        assert not policy.should_retry(RuntimeError("x"), attempts=3)
        assert not policy.should_retry(ValueError("x"), attempts=1)
        assert not policy.is_retryable(KeyError("x"))

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_s=0.1, backoff_multiplier=2.0,
            max_backoff_s=0.3, jitter=0.1,
        )
        job = _job()
        first = policy.delay_s(job, 1)
        assert first == policy.delay_s(job, 1)  # pure function
        assert 0.1 <= first <= 0.1 * 1.1
        # exponential growth, then the ceiling (jitter on top)
        assert 0.2 <= policy.delay_s(job, 2) <= 0.2 * 1.1
        assert 0.3 <= policy.delay_s(job, 4) <= 0.3 * 1.1
        # different (job, attempt) pairs jitter differently
        assert policy.delay_s(job, 1) != policy.delay_s(_job(seed=1), 1)

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(max_attempts=2, backoff_s=0.2, jitter=0.0)
        assert policy.delay_s(_job(), 1) == 0.2


class TestJobFailure:
    def test_describe_and_detail(self):
        failure = JobFailure(
            job=_job(), kind="error", attempts=2,
            tracebacks=("Traceback ...\nKeyError: 'x'",),
        )
        assert failure.error == "KeyError: 'x'"
        assert "error after 2 attempt(s)" in failure.describe()
        detail = failure.as_detail()
        assert detail["job_id"] == _job().job_id
        assert detail["kind"] == "error"
        assert detail["attempts"] == 2
        assert detail["tracebacks"]

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            JobFailure(job=_job(), kind="meltdown", attempts=1)

    def test_shard_failure_aggregates_spans(self):
        span = JobFailure(job=_job(), kind="error", attempts=1,
                          tracebacks=("boom",))
        parent = shard_failure(_job(num_samples=4), [span])
        assert parent.kind == "shards-failed"
        assert span.describe() in parent.tracebacks[0]

    def test_experiment_failure_describe(self):
        failure = ExperimentFailure(
            name="table2",
            failures=(JobFailure(job=_job(), kind="error", attempts=1),),
        )
        text = failure.describe()
        assert text.startswith("experiment table2: 1 job(s) failed")
        assert _job().describe() in text
        assert failure.as_detail()[0]["kind"] == "error"


class TestFaultPlanDSL:
    def test_fault_label_shape(self):
        label = fault_label(_job(extra=(("span", (0, 2)),)))
        assert label == (
            "eval:dense:llava-video:videomme:n1:s0:span=(0, 2)"
        )

    def test_parse_and_match(self):
        plan = FaultPlan.parse(
            "eval:dense:*@2:raise; eval:focus:*@*:sleep=1.5; *@4:kill"
        )
        assert len(plan.rules) == 3
        assert plan.rules[1].action == "sleep"
        assert plan.rules[1].param == 1.5
        assert plan.rules[1].max_attempt is None
        # first matching rule wins; attempts gate firing
        assert plan.rule_for(_job(), 1).action == "raise"
        assert plan.rule_for(_job(), 2).action == "raise"
        assert plan.rule_for(_job(), 3).action == "kill"  # falls through
        assert plan.rule_for(_job(), 5) is None  # past every gate
        assert plan.rule_for(_job(method="focus"), 9).action == "sleep"

    @pytest.mark.parametrize("spec", [
        "no-action-here",            # lacks :ACTION
        "pattern-only:raise",        # lacks @ATTEMPTS
        "x@two:raise",               # bad attempts
        "x@1:sleep",                 # sleep without seconds
        "x@1:raise=3",               # raise takes no parameter
        "x@1:explode",               # unknown action
        " ; ",                       # no rules at all
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_apply_raise_and_inprocess_kill(self):
        plan = FaultPlan.parse("eval:dense:*@1:raise")
        with pytest.raises(InjectedFault):
            plan.apply(_job(), attempt=1)
        plan.apply(_job(), attempt=2)  # past the attempt gate: no-op
        kill = FaultPlan.parse("*@*:kill")
        with pytest.raises(InjectedCrash):
            kill.apply(_job(), attempt=1, in_worker=False)

    def test_install_and_env_activation(self, monkeypatch):
        assert active_fault_plan() is None
        installed = install_fault_plan("eval:*@1:raise")
        assert active_fault_plan() is installed
        # exported so pool workers inherit it
        import os
        assert os.environ[FAULT_PLAN_ENV] == "eval:*@1:raise"
        install_fault_plan(None)
        assert active_fault_plan() is None
        assert FAULT_PLAN_ENV not in os.environ
        monkeypatch.setenv(FAULT_PLAN_ENV, "sim:*@2:raise")
        env_plan = active_fault_plan()
        assert env_plan is not None
        assert env_plan.rules[0].max_attempt == 2
        assert active_fault_plan() is env_plan  # cached per spec text

    def test_run_job_attempt_matches_execute_job_without_plan(self):
        direct = execute_job(_job())
        attempted = run_job_attempt(_job(), attempt=1)
        assert attempted.accuracy == direct.accuracy
        assert attempted.correct == direct.correct

    def test_run_job_attempt_applies_active_plan(self):
        install_fault_plan("eval:dense:*@1:raise")
        with pytest.raises(InjectedFault):
            run_job_attempt(_job(), attempt=1)
        result = run_job_attempt(_job(), attempt=2)
        assert result.accuracy == execute_job(_job()).accuracy


class TestSerialRetries:
    def test_flaky_job_retried_bit_identically(self):
        baseline = ExperimentEngine().run([_job()])[_job()]
        install_fault_plan("eval:dense:*@1:raise")
        events = []
        engine = ExperimentEngine(
            progress=events.append,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        retried = engine.run([_job()])[_job()]
        assert retried.accuracy == baseline.accuracy
        assert retried.correct == baseline.correct
        assert retried.sparsities == baseline.sparsities
        assert engine.stats.retries == 1
        assert engine.stats.executed == 1
        retrying, = [e for e in events if e.action == "retrying"]
        assert retrying.detail["attempt"] == 1
        assert retrying.detail["max_attempts"] == 2
        assert "InjectedFault" in retrying.detail["reason"]

    def test_exhausted_attempts_collects_structured_failure(self):
        install_fault_plan("eval:dense:*@*:raise")
        events = []
        engine = ExperimentEngine(
            progress=events.append,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        results = engine.run(
            [_job(), _job(method="focus")], on_error="collect"
        )
        failure = results[_job()]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert len(failure.tracebacks) == 2
        assert "InjectedFault" in failure.error
        assert results[_job(method="focus")].accuracy >= 0.0
        assert engine.stats.failed == 1
        gave_up, = [e for e in events if e.action == "gave-up"]
        assert gave_up.detail["kind"] == "error"
        assert gave_up.job == _job()

    def test_raise_mode_reraises_original_error(self):
        install_fault_plan("eval:dense:*@*:raise")
        engine = ExperimentEngine(
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0)
        )
        with pytest.raises(InjectedFault):
            engine.run([_job()])

    def test_non_retryable_fails_fast(self):
        install_fault_plan("eval:dense:*@*:raise")
        engine = ExperimentEngine(retry_policy=RetryPolicy(
            max_attempts=3, backoff_s=0.0,
            non_retryable=(InjectedFault,),
        ))
        results = engine.run([_job()], on_error="collect")
        assert results[_job()].attempts == 1
        assert engine.stats.retries == 0

    def test_inprocess_kill_degrades_to_error(self):
        install_fault_plan("eval:dense:*@*:kill")
        engine = ExperimentEngine()
        results = engine.run([_job()], on_error="collect")
        assert results[_job()].kind == "error"
        assert "InjectedCrash" in results[_job()].error

    def test_on_error_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            ExperimentEngine().run([_job()], on_error="ignore")

    def test_job_timeout_validated(self):
        with pytest.raises(ValueError, match="job_timeout_s"):
            ExperimentEngine(job_timeout_s=0)

    def test_failed_shard_fails_parent_cell(self):
        # Sample 0 of the cell; sample 1's label ends in ":start=1".
        install_fault_plan("*:n1:s0@*:raise")
        parent = _job(num_samples=2)
        events = []
        engine = ExperimentEngine(progress=events.append)
        results = engine.run([parent], on_error="collect")
        failure = results[parent]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "shards-failed"
        assert failure.job == parent
        assert any(e.action == "gave-up" and e.job == parent
                   for e in events)


class TestRegistryPartialResults:
    def _plan(self):
        return plan_table2(
            models=("llava-video",), datasets=("videomme",),
            methods=("dense", "focus"), num_samples=1,
        )

    def test_run_plan_returns_experiment_failure(self):
        install_fault_plan("eval:dense:*@*:raise")
        result = registry.run_plan(
            self._plan(), ExperimentEngine(), on_error="collect",
            name="table2",
        )
        assert isinstance(result, ExperimentFailure)
        assert result.name == "table2"
        assert all(f.kind == "error" for f in result.failures)
        rendered = registry.format_result("table2", result)
        assert rendered == result.describe()

    def test_run_experiments_collects_per_experiment(self):
        install_fault_plan("eval:cmc:*@*:raise")
        results = registry.run_experiments(
            ["table2"], ExperimentEngine(), on_error="collect",
            num_samples=1, models=("llava-video",),
            datasets=("videomme",),
        )
        assert isinstance(results["table2"], ExperimentFailure)

    def test_async_run_reaches_partial_state(self):
        install_fault_plan("eval:cmc:*@*:raise")

        async def body():
            engine = AsyncExperimentEngine(ExperimentEngine())
            run = engine.launch(
                ["table2"], on_error="collect", num_samples=1,
                models=("llava-video",), datasets=("videomme",),
            )
            assert run.state == "running"
            async for _ in run.events():
                pass
            results = await run.result()
            assert isinstance(results["table2"], ExperimentFailure)
            assert run.state == "partial"
            await engine.close()

        asyncio.run(body())

    def test_async_launch_validates_on_error(self):
        async def body():
            engine = AsyncExperimentEngine(ExperimentEngine())
            with pytest.raises(ValueError, match="on_error"):
                engine.launch(["table2"], on_error="ignore")
            await engine.close()

        asyncio.run(body())


class TestSubscriberDrop:
    def test_raising_subscriber_dropped_with_warning(self, caplog):
        calls = []

        def bad(event):
            calls.append(event)
            raise RuntimeError("subscriber bug")

        engine = ExperimentEngine()
        token = engine.subscribe(bad)
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            engine.run([_job()])
        assert len(calls) == 1  # dropped after the first raise
        record, = [
            r for r in caplog.records
            if "dropping progress subscriber" in r.message
        ]
        assert str(token) in record.getMessage()
        assert record.exc_info is not None  # exception is logged, not lost
        caplog.clear()
        engine.run([_job(seed=7)])
        assert len(calls) == 1
        assert not any(
            "dropping progress subscriber" in r.message
            for r in caplog.records
        )


@pytest.mark.slow
class TestPoolRecovery:
    def test_worker_crash_recovered_and_pool_reusable(self):
        baseline = ExperimentEngine().run([_job()])[_job()]
        install_fault_plan("eval:dense:*@1:kill")
        events = []
        engine = ExperimentEngine(workers=2, progress=events.append)
        try:
            results = engine.run([_job(), _job(method="focus")])
            assert results[_job()].accuracy == baseline.accuracy
            assert results[_job(method="focus")].accuracy >= 0.0
            assert engine.stats.pool_crashes >= 1
            assert any(e.action == "retrying" for e in events)
            # the respawned pool serves the next batch too
            install_fault_plan(None)
            more = engine.run([_job(seed=5)])
            assert more[_job(seed=5)].accuracy >= 0.0
        finally:
            engine.close()

    def test_poisoned_job_quarantined_in_collect_mode(self):
        install_fault_plan("eval:dense:*@*:kill")
        events = []
        engine = ExperimentEngine(workers=2, progress=events.append)
        try:
            results = engine.run(
                [_job(), _job(method="focus")], on_error="collect"
            )
            failure = results[_job()]
            assert isinstance(failure, JobFailure)
            assert failure.kind == "poisoned"
            assert failure.attempts == engine.retry_policy.max_crash_attempts
            assert results[_job(method="focus")].accuracy >= 0.0
            assert engine.stats.quarantined == 1
            quarantined, = [
                e for e in events if e.action == "quarantined"
            ]
            assert quarantined.detail["kind"] == "poisoned"
        finally:
            engine.close()

    def test_poisoned_job_raises_poisonedjob_in_raise_mode(self):
        install_fault_plan("eval:dense:*@*:kill")
        engine = ExperimentEngine(workers=2)
        try:
            with pytest.raises(PoisonedJob) as excinfo:
                engine.run([_job(), _job(method="focus")])
            assert excinfo.value.failure.kind == "poisoned"
        finally:
            engine.close()

    def test_hung_job_times_out_then_succeeds(self):
        baseline = ExperimentEngine().run([_job()])[_job()]
        install_fault_plan("eval:dense:*@1:sleep=30")
        events = []
        engine = ExperimentEngine(
            workers=2, progress=events.append, job_timeout_s=1.0,
            retry_policy=RetryPolicy(max_attempts=2, backoff_s=0.0),
        )
        try:
            results = engine.run([_job(), _job(method="focus")])
            assert results[_job()].accuracy == baseline.accuracy
            assert results[_job(method="focus")].accuracy >= 0.0
            assert engine.stats.timeouts >= 1
            assert any(
                e.action == "retrying"
                and e.detail["reason"] == "timeout"
                for e in events
            )
        finally:
            engine.close()

    def test_permanently_hung_job_fails_as_timeout(self):
        install_fault_plan("eval:dense:*@*:sleep=30")
        engine = ExperimentEngine(workers=2, job_timeout_s=0.75)
        try:
            results = engine.run(
                [_job(), _job(method="focus")], on_error="collect"
            )
            failure = results[_job()]
            assert isinstance(failure, JobFailure)
            assert failure.kind == "timeout"
            assert results[_job(method="focus")].accuracy >= 0.0
        finally:
            engine.close()

    def test_broken_pool_slot_cleared_for_next_run(self):
        # after a crash-induced recycle the engine holds no dead pool:
        # the next batch builds a fresh one and succeeds.
        install_fault_plan("eval:dense:*@*:kill")
        engine = ExperimentEngine(workers=2)
        try:
            engine.run(
                [_job(), _job(method="focus")], on_error="collect"
            )
            assert engine.stats.pool_crashes >= 1
            install_fault_plan(None)
            results = engine.run(
                [_job(seed=5), _job(method="focus", seed=5)]
            )
            assert results[_job(seed=5)].accuracy >= 0.0
            assert engine._pool is not None  # fresh pool, alive
        finally:
            engine.close()


class TestStoreFailures:
    def test_partial_run_persists_failures(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        store.create_run("r1", ["table2"], {"num_samples": 1})
        detail = [{
            "job_id": "abc", "label": "x", "kind": "error",
            "attempts": 2, "error": "KeyError: 'x'", "tracebacks": [],
        }]
        store.finish_run(
            "r1", "partial", elapsed_s=0.5,
            reports={"table2": "experiment table2: 1 job(s) failed"},
            failures={"table2": detail},
        )
        run = store.get_run("r1")
        assert run["status"] == "partial"
        assert run["failures"]["table2"][0]["kind"] == "error"
        store.close()

    def test_done_run_has_no_failures(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        store.create_run("r1", ["fig9"], {})
        store.finish_run("r1", "done", elapsed_s=0.1)
        assert store.get_run("r1")["failures"] is None
        store.close()

    def test_v1_store_migrates_in_place(self, tmp_path):
        import sqlite3

        path = tmp_path / "runs.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript("""
            CREATE TABLE store_meta (
                key TEXT PRIMARY KEY, value TEXT NOT NULL);
            INSERT INTO store_meta VALUES ('schema_version', '1');
            CREATE TABLE runs (
                run_id TEXT PRIMARY KEY,
                created_at REAL NOT NULL,
                experiments TEXT NOT NULL,
                params TEXT NOT NULL,
                status TEXT NOT NULL DEFAULT 'running',
                error TEXT,
                elapsed_s REAL,
                event_schema INTEGER NOT NULL);
            INSERT INTO runs VALUES
                ('old', 1.0, '["fig9"]', '{}', 'done', NULL, 0.2, 1);
        """)
        conn.commit()
        conn.close()
        store = RunStore(path)  # migrates v1 -> v2 on open
        run = store.get_run("old")
        assert run["status"] == "done"
        assert run["failures"] is None
        store.create_run("new", ["table2"], {})
        store.finish_run(
            "new", "partial", elapsed_s=0.1,
            failures={"table2": []},
        )
        assert store.get_run("new")["failures"] == {"table2": []}
        meta = store._conn.execute(
            "SELECT value FROM store_meta WHERE key='schema_version'"
        ).fetchone()
        assert meta["value"] == "2"
        store.close()
