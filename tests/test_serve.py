"""Tests for the streaming serving layer (:mod:`repro.serve`).

Covers the JSON event codec (round-trips for every event kind), the
async engine bridge (event-stream parity with a synchronous callback,
backpressure, clean cancellation releasing pool workers), and the
HTTP frontend over real sockets (SSE framing, ``Last-Event-ID``
resume mid-run, identical streams for concurrent subscribers, the
result endpoint's bit-identity with offline runs, and run
cancellation over HTTP).
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from contextlib import asynccontextmanager

import numpy as np
import pytest

from repro.engine import ExperimentEngine, ResultCache
from repro.engine import jobs as jobs_module
from repro.engine.jobs import EvalJob, register_job_kind
from repro.engine.registry import (
    EXPERIMENT_REGISTRY,
    ExperimentPlan,
    format_result,
    register,
)
from repro.engine.scheduler import ProgressEvent
from repro.serve import (
    AsyncExperimentEngine,
    RunCancelled,
    events as codec,
)
from repro.load.trace import LoadRequest
from repro.serve.server import MAX_BODY_BYTES, RunLog, ServeApp

TEST_KIND = "serve-test"
TINY_NAME = "_serve_tiny"


@register_job_kind(TEST_KIND)
def _execute_serve_test(job: EvalJob, forward_batch: int) -> dict:
    delay = float(job.extra_map.get("sleep", 0.0))
    if delay:
        time.sleep(delay)
    return {"method": job.method, "samples": job.num_samples,
            "seed": job.seed}


def _tiny_plan_factory(jobs_count: int = 3, sleep: float = 0.0):
    def plan(num_samples: int = 2, seed: int = 0, **_ignored):
        jobs = tuple(
            EvalJob(
                model="tiny", dataset="synthetic", method=f"job{i}",
                num_samples=num_samples, seed=seed, kind=TEST_KIND,
                extra=(("sleep", sleep),),
            )
            for i in range(jobs_count)
        )
        return ExperimentPlan(
            jobs=jobs,
            assemble=lambda results: sorted(
                results[job]["method"] for job in jobs
            ),
        )

    return plan


@pytest.fixture
def tiny_experiment():
    """Register a fast throwaway experiment; clean the registry after."""
    register(TINY_NAME, "serve-layer test experiment")(
        _tiny_plan_factory()
    )
    yield TINY_NAME
    EXPERIMENT_REGISTRY.pop(TINY_NAME, None)


@pytest.fixture
def slow_experiment():
    """Like tiny, but each job sleeps so runs stay observably live."""
    name = "_serve_slow"
    register(name, "slow serve-layer test experiment")(
        _tiny_plan_factory(jobs_count=4, sleep=0.25)
    )
    yield name
    EXPERIMENT_REGISTRY.pop(name, None)


def make_job(**overrides) -> EvalJob:
    fields = dict(
        model="llava-video", dataset="videomme", method="focus",
        num_samples=4, seed=0,
    )
    fields.update(overrides)
    return EvalJob(**fields)


class TestEventCodec:
    """Round-trip every event kind through the canonical JSON codec."""

    def progress_events(self) -> list[ProgressEvent]:
        shard = make_job(num_samples=1, extra=(("start", 2),))
        capture = make_job(
            kind="fig2b", method="similarity",
            extra=(("vector_sizes", (16, 32)),),
        )
        detail = {
            "parent": make_job().describe(), "shards_done": 1,
            "shards_total": 2, "samples": 2,
            "accuracy": np.float64(50.0), "sparsity": np.float64(81.5),
        }
        retry_detail = {
            "attempt": 1, "max_attempts": 3, "delay_s": 0.05,
            "reason": "KeyError: 'x'",
        }
        failure_detail = {
            "job_id": capture.job_id, "label": "fig2b", "kind": "error",
            "attempts": 3, "error": "KeyError: 'x'", "tracebacks": [],
        }
        return [
            ProgressEvent("cache-hit", make_job(), 1, 4, 0.1, seq=1),
            ProgressEvent("started", capture, 1, 4, 0.2, seq=2),
            ProgressEvent("completed", capture, 2, 4, 0.3, seq=3),
            ProgressEvent("eval-shard-done", shard, 3, 4, 0.4,
                          detail=detail, seq=4),
            ProgressEvent("retrying", capture, 3, 4, 0.5,
                          detail=retry_detail, seq=5),
            ProgressEvent("gave-up", capture, 4, 4, 0.6,
                          detail=failure_detail, seq=6),
            ProgressEvent("quarantined", capture, 4, 4, 0.7,
                          detail=dict(failure_detail, kind="poisoned"),
                          seq=7),
        ]

    def test_progress_round_trip_all_actions(self):
        for event in self.progress_events():
            encoded = codec.encode_progress(event)
            decoded = codec.parse_event(codec.to_json(encoded))
            assert decoded == json.loads(json.dumps(encoded))
            assert decoded["event"] == "progress"
            assert decoded["action"] == event.action
            assert decoded["seq"] == event.seq
            assert decoded["job"]["job_id"] == event.job.job_id
            assert decoded["job"]["kind"] == event.job.kind
            assert not codec.is_terminal(decoded)
        # the fixture covers every action the scheduler can emit
        actions = {e.action for e in self.progress_events()}
        assert actions == set(codec.PROGRESS_ACTIONS)

    def test_shard_detail_survives_with_native_types(self):
        event, = [
            e for e in self.progress_events()
            if e.action == "eval-shard-done"
        ]
        decoded = codec.parse_event(
            codec.to_json(codec.encode_progress(event))
        )
        detail = decoded["detail"]
        assert detail["accuracy"] == 50.0
        assert isinstance(detail["accuracy"], float)
        assert detail["shards_done"] == 1
        # tuples in job extras become lists, losslessly
        assert decoded["job"]["extra"] == [["start", 2]]

    def test_terminal_round_trips(self):
        done = codec.encode_run_done(
            "r1", {"fig13": "REPORT\n"}, elapsed_s=1.5
        )
        failed = codec.encode_run_failed("r2", "KeyError: 'x'", 0.2)
        cancelled = codec.encode_run_cancelled("r3", 0.1)
        partial = codec.encode_run_partial(
            "r4", {"fig13": "FAILURE\n"},
            {"fig13": {"name": "fig13", "failures": []}}, 0.3,
        )
        for event in (done, failed, cancelled, partial):
            decoded = codec.parse_event(codec.to_json(event))
            assert decoded == event
            assert codec.is_terminal(decoded)
            assert decoded["event"] in codec.TERMINAL_EVENTS
        assert done["reports"]["fig13"]["sha256"] == (
            codec.report_digest("REPORT\n")
        )
        assert partial["reports"]["fig13"]["sha256"] == (
            codec.report_digest("FAILURE\n")
        )
        assert partial["failures"]["fig13"]["name"] == "fig13"
        assert {done["event"], failed["event"], cancelled["event"],
                partial["event"]} == set(codec.TERMINAL_EVENTS)

    def test_run_started_round_trips(self):
        started = codec.encode_run_started(
            "r1", ["table2", "fig9"], {"num_samples": 2, "seed": 0}
        )
        decoded = codec.parse_event(codec.to_json(started))
        assert decoded == started
        assert not codec.is_terminal(decoded)

    def test_newer_schema_rejected(self):
        event = codec.encode_run_cancelled("r", 0.0)
        event["schema"] = codec.EVENT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="newer"):
            codec.parse_event(codec.to_json(event))
        with pytest.raises(ValueError, match="schema"):
            codec.parse_event("{}")
        with pytest.raises(ValueError, match="object"):
            codec.parse_event("[1, 2]")

    def test_jsonify_flattens_numpy(self):
        flat = codec.jsonify({
            "a": np.int64(3), "b": np.float32(1.5),
            "c": np.arange(3), "d": (1, (2, 3)),
        })
        assert flat == {"a": 3, "b": 1.5, "c": [0, 1, 2],
                        "d": [1, [2, 3]]}
        assert json.loads(json.dumps(flat)) == flat

    def test_sse_framing_round_trips(self):
        events = [codec.encode_progress(e)
                  for e in self.progress_events()]
        for i, event in enumerate(events, start=1):
            event["id"] = i
        stream = "retry: 2000\n\n" + "".join(
            codec.format_sse(e) for e in events
        )
        assert codec.parse_sse(stream) == events
        frame = codec.format_sse(events[0])
        assert frame.startswith("id: 1\nevent: progress\ndata: ")
        assert frame.endswith("\n\n")


class TestAsyncEngineStream:
    """The async bridge yields exactly the synchronous event stream."""

    @staticmethod
    def fingerprint(events):
        return [
            (e.action, e.job.key, e.completed, e.total, e.detail)
            for e in events
        ]

    def test_stream_matches_sync_callback(self, tiny_experiment):
        from repro.engine import registry

        sync_events = []
        registry.run_experiments(
            [tiny_experiment], ExperimentEngine(),
            progress=sync_events.append,
        )

        async def collect():
            engine = AsyncExperimentEngine(ExperimentEngine())
            return [e async for e in engine.run([tiny_experiment])]

        async_events = asyncio.run(collect())
        assert self.fingerprint(async_events) == (
            self.fingerprint(sync_events)
        )
        assert [e.action for e in async_events] == (
            ["started", "completed"] * 3
        )
        # engine-wide sequence numbers are strictly increasing
        seqs = [e.seq for e in async_events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_backpressure_queue_of_one_loses_nothing(
        self, tiny_experiment
    ):
        async def collect():
            engine = AsyncExperimentEngine(
                ExperimentEngine(), queue_size=1
            )
            events = []
            async for event in engine.run([tiny_experiment]):
                await asyncio.sleep(0.01)  # slow consumer
                events.append(event)
            return events

        events = asyncio.run(collect())
        assert [e.action for e in events] == ["started", "completed"] * 3

    def test_result_matches_offline_assembly(self, tiny_experiment):
        from repro.engine import registry

        offline = registry.run_experiments(
            [tiny_experiment], ExperimentEngine()
        )

        async def run():
            engine = AsyncExperimentEngine(ExperimentEngine())
            handle = engine.launch([tiny_experiment])
            async for _ in handle.events():
                pass
            return await handle.result()

        assert asyncio.run(run()) == offline

    def test_unknown_experiment_fails_at_launch(self):
        async def attempt():
            engine = AsyncExperimentEngine(ExperimentEngine())
            engine.launch(["definitely-not-registered"])

        with pytest.raises(KeyError):
            asyncio.run(attempt())

    def test_failed_run_raises_from_result_and_run(self):
        # A plan factory that raises fails inside the engine thread;
        # the async stream must re-raise it at the end.
        name = "_serve_broken"

        def broken_plan(**_ignored):
            raise ValueError("broken plan factory")

        register(name, "always fails")(broken_plan)
        try:
            async def stream():
                engine = AsyncExperimentEngine(ExperimentEngine())
                async for _ in engine.run([name]):
                    pass

            with pytest.raises(ValueError, match="broken plan"):
                asyncio.run(stream())
        finally:
            EXPERIMENT_REGISTRY.pop(name, None)


@pytest.mark.slow
class TestCancellation:
    """Cancelling a run aborts its batch and releases pool workers."""

    def test_cancel_releases_workers_engine_reusable(
        self, slow_experiment, tiny_experiment
    ):
        async def scenario():
            shared = ExperimentEngine(workers=2)
            engine = AsyncExperimentEngine(shared)
            handle = engine.launch([slow_experiment])
            async for event in handle.events():
                if event.action == "completed":
                    handle.cancel()
            with pytest.raises(RunCancelled):
                await handle.result()
            # The shared engine (and its pool) must still be usable.
            follow_up = engine.launch([tiny_experiment])
            events = [e async for e in follow_up.events()]
            result = await follow_up.result()
            await engine.close()
            return events, result

        events, result = asyncio.run(scenario())
        assert result == {tiny_experiment: ["job0", "job1", "job2"]}
        assert [e.action for e in events].count("completed") == 3

    def test_closing_the_stream_cancels(self, slow_experiment):
        async def scenario():
            engine = AsyncExperimentEngine(ExperimentEngine(workers=2))
            handle = engine.launch([slow_experiment])
            stream = handle.events()
            await anext(stream)
            await stream.aclose()  # abandon mid-run
            assert handle.cancelled
            with pytest.raises(RunCancelled):
                await handle.result()
            await engine.close()

        asyncio.run(scenario())


class TestRunLog:
    """Ring-buffer retention and resume arithmetic."""

    def test_ids_are_contiguous_and_resume_is_exact(self):
        async def scenario():
            log = RunLog(capacity=100)
            for i in range(5):
                await log.append(
                    {"schema": 1, "event": "progress", "n": i}
                )
            all_events, dropped = log.events_since(0)
            assert dropped == 0
            assert [e["id"] for e in all_events] == [1, 2, 3, 4, 5]
            tail, dropped = log.events_since(3)
            assert dropped == 0
            assert [e["id"] for e in tail] == [4, 5]
            assert log.events_since(5) == ([], 0)

        asyncio.run(scenario())

    def test_overflow_reports_dropped_count(self):
        async def scenario():
            log = RunLog(capacity=2)
            for i in range(5):
                await log.append({"schema": 1, "event": "progress"})
            retained, dropped = log.events_since(0)
            assert [e["id"] for e in retained] == [4, 5]
            assert dropped == 3

        asyncio.run(scenario())


async def _start(app: ServeApp):
    # Mirror serve(): fork pool workers before any socket exists, so
    # children can't inherit (and pin open) client connections.
    await app.engine.warm_up()
    server = await asyncio.start_server(
        app.handle_client, "127.0.0.1", 0
    )
    return server, server.sockets[0].getsockname()[1]


@asynccontextmanager
async def serving(app: ServeApp):
    """Start ``app`` on an ephemeral port; always close-and-join.

    Tears down the listening socket (close + ``wait_closed``) and the
    app's engine even when the test body raises, so a failing test
    can't leak a bound socket or a worker pool into later tests.
    """
    server, port = await _start(app)
    try:
        yield server, port
    finally:
        server.close()
        await server.wait_closed()
        await app.shutdown()


async def _request(
    port: int, method: str, path: str,
    body: dict | None = None, headers: dict | None = None,
) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write((head + "\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    header, _, response_body = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, response_body


async def _json_request(port, method, path, body=None, headers=None):
    status, payload = await _request(port, method, path, body, headers)
    return status, json.loads(payload)


@pytest.mark.slow
class TestHttpFrontend:
    """The SSE/JSON-lines server over real sockets."""

    def test_oversized_body_rejected_before_read(self):
        assert MAX_BODY_BYTES == 64 << 20

        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                # Only the head is sent: a server that tried to read
                # the announced body would wait until the timeout.
                writer.write(
                    "POST /jobs HTTP/1.1\r\nHost: test\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                    .encode()
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                header, _, body = raw.partition(b"\r\n\r\n")
                assert int(header.split(b" ", 2)[1]) == 413
                assert b"limit" in body

        asyncio.run(scenario())

    def test_validation_errors(self, tiny_experiment):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                status, body = await _json_request(
                    port, "POST", "/runs", {"experiments": []}
                )
                assert status == 400
                status, body = await _json_request(
                    port, "POST", "/runs", {"experiments": ["nope"]}
                )
                assert status == 400 and "nope" in body["error"]
                status, _ = await _request(
                    port, "GET", "/runs/missing/events"
                )
                assert status == 404
                status, _ = await _request(port, "PUT", "/runs")
                assert status == 404
                status, body = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": ["table2"], "scenario": "mtconv"},
                )
                assert status == 400 and "only applies" in body["error"]
                status, body = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": ["scenario"],
                     "scenario": "mtconv:bogus=1"},
                )
                assert status == 400
                assert "bad scenario spec" in body["error"]
                status, body = await _json_request(port, "GET", "/healthz")
                assert status == 200 and body["ok"]
                status, body = await _json_request(
                    port, "GET", "/experiments"
                )
                assert status == 200
                names = [e["name"] for e in body["experiments"]]
                assert tiny_experiment in names and "table2" in names

        asyncio.run(scenario())

    def test_sse_stream_subscribers_and_resume(self, tiny_experiment):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                status, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [tiny_experiment], "samples": 2},
                )
                assert status == 201
                run_id = run["run_id"]
                events_path = f"/runs/{run_id}/events"

                # Two concurrent subscribers see identical sequences.
                (s1, raw1), (s2, raw2) = await asyncio.gather(
                    _request(port, "GET", events_path),
                    _request(port, "GET", events_path),
                )
                assert s1 == s2 == 200
                stream1 = codec.parse_sse(raw1.decode())
                stream2 = codec.parse_sse(raw2.decode())
                assert stream1 == stream2
                assert [e["id"] for e in stream1] == (
                    list(range(1, len(stream1) + 1))
                )
                assert stream1[0]["event"] == "run-started"
                assert stream1[-1]["event"] == "run-done"
                actions = [e.get("action") for e in stream1
                           if e["event"] == "progress"]
                assert actions == ["started", "completed"] * 3

                # Resume via Last-Event-ID replays the exact suffix.
                cut = len(stream1) // 2
                _, raw = await _request(
                    port, "GET", events_path,
                    headers={"Last-Event-ID": str(cut)},
                )
                assert codec.parse_sse(raw.decode()) == stream1[cut:]
                # ... and via the query parameter for curl users.
                _, raw = await _request(
                    port, "GET",
                    f"{events_path}?last_event_id={cut}",
                )
                assert codec.parse_sse(raw.decode()) == stream1[cut:]

                # JSON-lines carries the same stream.
                _, raw = await _request(
                    port, "GET", f"{events_path}?format=jsonl"
                )
                jsonl = [codec.parse_event(line)
                         for line in raw.decode().splitlines()]
                assert jsonl == stream1

                # Fan-out accounting: five subscribers streamed this
                # run (2 concurrent + 2 resumes + 1 jsonl), none left.
                status, described = await _json_request(
                    port, "GET", f"/runs/{run_id}"
                )
                assert status == 200
                assert described["subscribers"]["total"] == 5
                assert described["subscribers"]["peak"] >= 1
                assert described["subscribers"]["active"] == 0
                _, health = await _json_request(port, "GET", "/healthz")
                assert health["subscribers_active"] == 0

        asyncio.run(scenario())

    def test_resume_mid_run_loses_no_events(self, slow_experiment):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [slow_experiment]},
                )
                events_path = f"/runs/{run['run_id']}/events"

                # First connection: read a few frames, then drop it.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    f"GET {events_path} HTTP/1.1\r\n"
                    "Host: test\r\n\r\n".encode()
                )
                await writer.drain()
                seen = b""
                while seen.count(b"\n\n") < 4:  # headers + >=2 events
                    chunk = await reader.read(256)
                    assert chunk, "stream ended before enough events"
                    seen += chunk
                writer.close()
                # The drop may cut mid-frame: parse only the complete
                # frames (up to the final blank line).
                partial = seen.partition(b"\r\n\r\n")[2].decode()
                head = codec.parse_sse(
                    partial.rsplit("\n\n", 1)[0] + "\n\n"
                )
                assert head, "no complete events before the drop"
                last_id = head[-1]["id"]

                # Reconnect with Last-Event-ID: the rest, gap-free.
                _, raw = await _request(
                    port, "GET", events_path,
                    headers={"Last-Event-ID": str(last_id)},
                )
                tail = codec.parse_sse(raw.decode())
                ids = [e["id"] for e in head + tail]
                assert ids == list(range(1, ids[-1] + 1))
                assert (head + tail)[-1]["event"] == "run-done"

        asyncio.run(scenario())

    def test_result_bit_identical_to_offline(self, tiny_experiment):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [tiny_experiment],
                     "samples": 2, "seed": 3},
                )
                run_id = run["run_id"]
                result_path = f"/runs/{run_id}/result"
                # Drain the stream so the run is surely finished.
                _, raw = await _request(
                    port, "GET", f"/runs/{run_id}/events"
                )
                terminal = codec.parse_sse(raw.decode())[-1]
                status, result = await _json_request(
                    port, "GET", result_path
                )
                assert status == 200
                return terminal, result


        terminal, result = asyncio.run(scenario())
        from repro.engine import registry

        offline = registry.run_experiments(
            [TINY_NAME], ExperimentEngine(), num_samples=2, seed=3
        )
        expected = format_result(TINY_NAME, offline[TINY_NAME])
        assert result["experiments"][TINY_NAME] == expected
        assert terminal["reports"][TINY_NAME]["sha256"] == (
            codec.report_digest(expected)
        )

    def test_warm_run_hashes_each_config_once(
        self, tiny_experiment, monkeypatch
    ):
        """Encoding a progress event reads the job's cached config
        digest: a warm run hashes no more configs than it builds jobs,
        however many events it streams."""
        calls = {"digests": 0, "jobs": 0}
        digest = jobs_module.config_digest
        build = EvalJob.__init__

        def counted_digest(config):
            calls["digests"] += 1
            return digest(config)

        def counted_build(self, *args, **kwargs):
            calls["jobs"] += 1
            build(self, *args, **kwargs)

        async def run_once(port):
            _, run = await _json_request(
                port, "POST", "/runs",
                {"experiments": [tiny_experiment], "samples": 2},
            )
            _, raw = await _request(
                port, "GET", f"/runs/{run['run_id']}/events"
            )
            return codec.parse_sse(raw.decode())

        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                await run_once(port)
                # every binding, also names imported from the module
                for module in list(sys.modules.values()):
                    if getattr(module, "config_digest", None) is digest:
                        monkeypatch.setattr(
                            module, "config_digest", counted_digest
                        )
                monkeypatch.setattr(EvalJob, "__init__", counted_build)
                return await run_once(port)

        warm = asyncio.run(scenario())
        actions = [e["action"] for e in warm if e["event"] == "progress"]
        assert actions == ["cache-hit"] * 3
        assert warm[-1]["event"] == "run-done"
        assert 0 < calls["digests"] <= calls["jobs"]

    def test_result_conflicts_while_running_and_cancel(
        self, slow_experiment
    ):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(
                ExperimentEngine(workers=2)
            ))
            async with serving(app) as (server, port):
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [slow_experiment]},
                )
                run_id = run["run_id"]
                status, _ = await _json_request(
                    port, "GET", f"/runs/{run_id}/result"
                )
                assert status == 409  # still running
                status, body = await _json_request(
                    port, "DELETE", f"/runs/{run_id}"
                )
                assert status == 202
                # Stream drains to the cancellation terminal.
                _, raw = await _request(
                    port, "GET", f"/runs/{run_id}/events"
                )
                assert codec.parse_sse(raw.decode())[-1]["event"] == (
                    "run-cancelled"
                )
                status, _ = await _json_request(
                    port, "GET", f"/runs/{run_id}/result"
                )
                assert status == 410
                status, body = await _json_request(
                    port, "GET", f"/runs/{run_id}"
                )
                assert body["status"] == "cancelled"

        asyncio.run(scenario())

    def test_unknown_spec_keys_rejected(self, tiny_experiment):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                status, body = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [tiny_experiment], "sampels": 1,
                     "matcher": "reference"},
                )
                assert status == 400
                assert "['matcher', 'sampels']" in body["error"]
                assert not app.runs
                # The body `repro load` sends, plus on_error, is known.
                spec = LoadRequest(experiments=(tiny_experiment,)).spec()
                spec["on_error"] = "collect"
                status, run = await _json_request(
                    port, "POST", "/runs", spec
                )
                assert status == 201
                _, raw = await _request(
                    port, "GET", f"/runs/{run['run_id']}/events"
                )
                assert codec.parse_sse(raw.decode())[-1]["event"] == (
                    "run-done"
                )

        asyncio.run(scenario())

    def test_bad_samples_is_a_client_error(self, tiny_experiment):
        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                for samples in ("two", 0, -3, True, "2", 2.7):
                    status, body = await _json_request(
                        port, "POST", "/runs",
                        {"experiments": [tiny_experiment],
                         "samples": samples},
                    )
                    assert status == 400, samples
                    assert "samples" in body["error"]
                assert not app.runs

        asyncio.run(scenario())

    def test_partial_run_streams_failures_and_persists(
        self, tiny_experiment, tmp_path
    ):
        from repro.engine import install_fault_plan
        from repro.store import RunStore

        # poison one of the tiny experiment's three jobs on every
        # attempt; collect mode must finish the other two and end the
        # stream with run-partial instead of run-failed
        install_fault_plan(f"{TEST_KIND}:job1:*@*:raise")

        async def scenario():
            store = RunStore(tmp_path / "runs.sqlite")
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()), store=store,
            )
            try:
                async with serving(app) as (server, port):
                    _, run = await _json_request(
                        port, "POST", "/runs",
                        {"experiments": [tiny_experiment],
                         "on_error": "collect"},
                    )
                    run_id = run["run_id"]
                    _, raw = await _request(
                        port, "GET", f"/runs/{run_id}/events"
                    )
                    stream = codec.parse_sse(raw.decode())
                    status, result = await _json_request(
                        port, "GET", f"/runs/{run_id}/result"
                    )
                    while status == 409:
                        await asyncio.sleep(0.02)
                        status, result = await _json_request(
                            port, "GET", f"/runs/{run_id}/result"
                        )
                    stored = store.get_run(run_id)
                    return stream, status, result, stored
            finally:
                install_fault_plan(None)
                store.close()

        stream, status, result, stored = asyncio.run(scenario())
        terminal = stream[-1]
        assert terminal["event"] == "run-partial"
        assert tiny_experiment in terminal["failures"]
        assert any(e.get("action") == "gave-up" for e in stream)
        assert status == 200
        assert result["status"] == "partial"
        assert tiny_experiment in result["failures"]
        assert "1 job(s) failed" in result["experiments"][tiny_experiment]
        assert stored["status"] == "partial"
        assert stored["failures"][tiny_experiment][0]["kind"] == "error"

    def test_finished_runs_are_evicted_beyond_cap(self, tiny_experiment):
        async def scenario():
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()),
                max_finished_runs=2,
            )
            async with serving(app) as (server, port):
                ids = []
                for _ in range(4):
                    _, run = await _json_request(
                        port, "POST", "/runs",
                        {"experiments": [tiny_experiment]},
                    )
                    ids.append(run["run_id"])
                    # drain so the run is terminal before the next POST
                    await _request(
                        port, "GET", f"/runs/{run['run_id']}/events"
                    )
                assert len(app.runs) <= 3  # 2 retained + the newest
                status, _ = await _request(
                    port, "GET", f"/runs/{ids[0]}/events"
                )
                assert status == 404  # oldest evicted
                status, _ = await _json_request(
                    port, "GET", f"/runs/{ids[-1]}/result"
                )
                assert status == 200  # newest retained

        asyncio.run(scenario())

    def test_ring_overflow_sends_gap_marker(self, tiny_experiment):
        async def scenario():
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()), ring_size=2
            )
            async with serving(app) as (server, port):
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [tiny_experiment]},
                )
                run_id = run["run_id"]
                status, _ = await _json_request(
                    port, "GET", f"/runs/{run_id}/result"
                )
                while status == 409:
                    await asyncio.sleep(0.02)
                    status, _ = await _json_request(
                        port, "GET", f"/runs/{run_id}/result"
                    )
                _, raw = await _request(
                    port, "GET", f"/runs/{run_id}/events"
                )
                stream = codec.parse_sse(raw.decode())
                assert stream[0]["event"] == "gap"
                assert stream[0]["dropped"] > 0
                assert stream[-1]["event"] == "run-done"

        asyncio.run(scenario())

    def test_gap_carries_first_retained_seq_and_reconnect(
        self, tiny_experiment
    ):
        # Regression: the gap marker used to hard-code ``"seq": 0``,
        # so a client tracking its cursor by seq regressed to the
        # start of the run after every overflow.  The gap must carry
        # the first *retained* event's seq, and resuming from the
        # gap's id must replay exactly the retained suffix.
        async def scenario():
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()), ring_size=2
            )
            async with serving(app) as (server, port):
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [tiny_experiment]},
                )
                run_id = run["run_id"]
                status = 409
                while status == 409:
                    await asyncio.sleep(0.02)
                    status, _ = await _json_request(
                        port, "GET", f"/runs/{run_id}/result"
                    )
                _, raw = await _request(
                    port, "GET", f"/runs/{run_id}/events"
                )
                stream = codec.parse_sse(raw.decode())
                gap, retained = stream[0], stream[1:]
                assert gap["event"] == "gap"
                # stamped with the first retained seq, never 0: the
                # retained suffix of this run starts at a progress
                # event whose engine seq is well past the hole
                assert gap["seq"] == retained[0]["seq"] > 0
                # the gap's id is the last dropped id, so id cursors
                # continue exactly at the first retained event
                assert gap["id"] == retained[0]["id"] - 1

                # Reconnect-after-gap: a client that saw the gap
                # resumes from its id and gets only the retained
                # suffix — no second gap, no replay from the start.
                _, raw = await _request(
                    port, "GET", f"/runs/{run_id}/events",
                    headers={"Last-Event-ID": str(gap["id"])},
                )
                resumed = codec.parse_sse(raw.decode())
                assert resumed == retained

        asyncio.run(scenario())


@pytest.mark.slow
class TestServedRealExperiment:
    """Acceptance: served fig13 matches the offline run exactly."""

    def test_sse_sequence_and_result_match_offline(self):
        sync_events = []
        offline = ExperimentEngine(progress=sync_events.append)
        from repro.cli import run_experiments

        offline_reports = run_experiments(
            ["fig13"], samples=1, seed=0, engine=offline
        )

        async def scenario():
            app = ServeApp(AsyncExperimentEngine(ExperimentEngine()))
            async with serving(app) as (server, port):
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": ["fig13"], "samples": 1,
                     "seed": 0},
                )
                _, raw = await _request(
                    port, "GET", f"/runs/{run['run_id']}/events"
                )
                stream = codec.parse_sse(raw.decode())
                _, result = await _json_request(
                    port, "GET", f"/runs/{run['run_id']}/result"
                )
                return stream, result

        stream, result = asyncio.run(scenario())
        served = [e for e in stream if e["event"] == "progress"]
        expected = [codec.encode_progress(e) for e in sync_events]
        for event in served + expected:
            # timing and engine-global counters differ by design
            event.pop("elapsed_s"), event.pop("seq"), event.pop("id", 0)
        assert served == expected
        assert result["experiments"]["fig13"] == (
            offline_reports["fig13"]
        )
