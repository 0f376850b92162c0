"""The engine's report memo: a repeat run reads its assembled results
and report texts back instead of assembling and formatting again.

Experiments here are throwaway registry entries over a job kind of
their own, so a test counts exactly the ``assemble_plan`` calls its
runs make.  Every thread is joined with a timeout: a deadlock fails,
it does not hang.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.engine import EvalJob, ExperimentEngine, registry
from repro.engine import memo as memo_module
from repro.engine.faults import ExperimentFailure
from repro.engine.jobs import register_job_kind
from repro.engine.memo import REPORT_MEMO_MAX_ENTRIES, Report, ReportMemo
from repro.engine.registry import EXPERIMENT_REGISTRY, ExperimentPlan

JOIN_S = 60.0
KIND = "report-memo-test"


@register_job_kind(KIND)
def _unit(job: EvalJob, forward_batch: int) -> dict:
    if job.extra_map.get("fail"):
        raise RuntimeError(f"{job.method} fails by design")
    return {"method": job.method, "seed": job.seed}


def _plan_factory(fail: bool = False):
    def plan(seed: int = 0, **_ignored) -> ExperimentPlan:
        jobs = tuple(
            EvalJob(
                model="m", dataset="d", method=f"unit{i}", num_samples=1,
                seed=seed, kind=KIND,
                extra=(("fail", True),) if fail and i == 1 else (),
            )
            for i in range(3)
        )
        return ExperimentPlan(
            jobs=jobs,
            assemble=lambda results: {
                "seed": seed,
                "units": [results[job]["method"] for job in jobs],
            },
        )

    return plan


@pytest.fixture
def experiments():
    """Register a working and a failing experiment; clean up after."""
    names = {"ok": "_memo_ok", "broken": "_memo_broken"}
    registry.register(names["ok"], "report-memo test")(_plan_factory())
    registry.register(names["broken"], "report-memo test, one job fails")(
        _plan_factory(fail=True)
    )
    yield names
    for name in names.values():
        EXPERIMENT_REGISTRY.pop(name, None)


@pytest.fixture
def assembled(monkeypatch):
    """Count ``assemble_plan`` calls (``calls``); ``hook``, when set,
    runs before each assembly."""
    state = {"calls": 0, "hook": None}
    original = registry.assemble_plan

    def counting(plan, results):
        state["calls"] += 1
        if state["hook"] is not None:
            state["hook"]()
        return original(plan, results)

    monkeypatch.setattr(registry, "assemble_plan", counting)
    return state


class TestRepeatRuns:
    def test_second_run_assembles_nothing(self, experiments, assembled):
        engine = ExperimentEngine()
        first = registry.run_experiments([experiments["ok"]], engine)
        assert assembled["calls"] == 1
        second = registry.run_experiments([experiments["ok"]], engine)
        assert assembled["calls"] == 1
        assert second == first
        assert second.reports == first.reports
        assert second.reports[experiments["ok"]].encode() == (
            registry.format_result(
                experiments["ok"], first[experiments["ok"]]
            ).encode()
        )

    def test_another_seed_gets_its_own_entry(self, experiments, assembled):
        engine = ExperimentEngine()
        seed0 = registry.run_experiments([experiments["ok"]], engine)
        seed1 = registry.run_experiments(
            [experiments["ok"]], engine, seed=1
        )
        assert assembled["calls"] == 2
        assert len(engine.report_memo) == 2
        assert seed0[experiments["ok"]]["seed"] == 0
        assert seed1[experiments["ok"]]["seed"] == 1

    def test_memo_belongs_to_its_engine(self, experiments, assembled):
        registry.run_experiments([experiments["ok"]], ExperimentEngine())
        registry.run_experiments([experiments["ok"]], ExperimentEngine())
        assert assembled["calls"] == 2

    def test_failed_plan_is_not_memoized(self, experiments, assembled):
        engine = ExperimentEngine()
        names = [experiments["ok"], experiments["broken"]]
        for _ in range(2):
            results = registry.run_experiments(
                names, engine, on_error="collect"
            )
            failure = results[experiments["broken"]]
            assert isinstance(failure, ExperimentFailure)
            assert results.reports[experiments["broken"]] == (
                failure.describe()
            )
        # Only the complete plan was assembled, once, and memoized.
        assert assembled["calls"] == 1
        assert len(engine.report_memo) == 1


class TestSingleFlight:
    def test_two_threads_assemble_one_spec_once(
        self, experiments, assembled, monkeypatch
    ):
        waiting = threading.Event()

        class WatchedEvent(threading.Event):
            def wait(self, timeout=None):
                waiting.set()
                return super().wait(timeout)

        class WatchedFlight(memo_module._Flight):
            __slots__ = ()

            def __init__(self) -> None:
                super().__init__()
                self.done = WatchedEvent()

        monkeypatch.setattr(memo_module, "_Flight", WatchedFlight)
        # The owner holds its assembly open until the other run waits
        # on it, so the second run cannot find a finished entry.
        assembled["hook"] = lambda: waiting.wait(JOIN_S)
        engine = ExperimentEngine()
        outcomes: dict[int, object] = {}

        def run(index: int) -> None:
            outcomes[index] = registry.run_experiments(
                [experiments["ok"]], engine
            )

        threads = [
            threading.Thread(target=run, args=(i,), daemon=True)
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_S)
        assert not any(thread.is_alive() for thread in threads)
        assert waiting.is_set()
        assert assembled["calls"] == 1
        assert outcomes[0].reports == outcomes[1].reports
        assert outcomes[0][experiments["ok"]] is outcomes[1][
            experiments["ok"]
        ]

    def test_failed_build_memoizes_nothing(self):
        def fail() -> Report:
            raise RuntimeError("assembly failed")

        memo = ReportMemo()
        with pytest.raises(RuntimeError, match="assembly failed"):
            memo.get("k", fail)
        assert len(memo) == 0
        report = memo.get("k", lambda: Report({"x": 1}, "x"))
        assert report.text == "x" and len(memo) == 1


    @pytest.mark.parametrize("max_entries", [16, 3])
    def test_many_threads_many_keys(self, max_entries):
        """More threads than cores under fast thread switching: every
        caller gets its own key's report, and without eviction each
        key is built exactly once."""
        memo = ReportMemo(max_entries=max_entries)
        keys = range(10)
        builds = {key: 0 for key in keys}
        builds_lock = threading.Lock()
        wrong: list[tuple[int, object]] = []

        def build(key):
            def make() -> Report:
                with builds_lock:
                    builds[key] += 1
                return Report(key, str(key))

            return make

        def worker(seed: int) -> None:
            order = [key for key in keys for _ in range(20)]
            random.Random(seed).shuffle(order)
            for key in order:
                report = memo.get(key, build(key))
                if report.result != key or report.text != str(key):
                    wrong.append((key, report))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,), daemon=True)
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(memo) == min(max_entries, len(keys))
        if max_entries >= len(keys):
            assert all(count == 1 for count in builds.values()), builds


class TestBound:
    def test_least_recently_used_entry_is_evicted(self):
        memo = ReportMemo(max_entries=2)
        builds = []

        def build(key):
            def make():
                builds.append(key)
                return Report(key, str(key))

            return make

        memo.get("a", build("a"))
        memo.get("b", build("b"))
        memo.get("a", build("a"))  # hit: "a" becomes most recent
        memo.get("c", build("c"))  # evicts "b"
        assert len(memo) == 2
        memo.get("a", build("a"))
        memo.get("b", build("b"))
        assert builds == ["a", "b", "c", "b"]

    def test_engine_memo_holds_the_documented_bound(
        self, experiments, assembled
    ):
        engine = ExperimentEngine()
        assert engine.report_memo.max_entries == REPORT_MEMO_MAX_ENTRIES
        for seed in range(REPORT_MEMO_MAX_ENTRIES + 3):
            registry.run_experiments(
                [experiments["ok"]], engine, seed=seed
            )
        assert len(engine.report_memo) == REPORT_MEMO_MAX_ENTRIES
        # The newest seeds are still memoized, the oldest is gone.
        registry.run_experiments(
            [experiments["ok"]], engine, seed=REPORT_MEMO_MAX_ENTRIES + 2
        )
        assert assembled["calls"] == REPORT_MEMO_MAX_ENTRIES + 3
        registry.run_experiments([experiments["ok"]], engine, seed=0)
        assert assembled["calls"] == REPORT_MEMO_MAX_ENTRIES + 4
