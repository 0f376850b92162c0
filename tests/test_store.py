"""Tests for the durable run store (:mod:`repro.store`).

Covers the SQLite store itself (run/event/report round-trips, restart
recovery, schema guards), the serving log's write-through bridging
(``Last-Event-ID`` resume stays lossless past ring eviction), a
hypothesis property suite pinning byte-identical SSE/JSON-lines replay
— including mid-replay resume — for arbitrary stored runs, the HTTP
frontend recording through the store and serving stored runs after a
restart, and the ``repro replay`` / ``repro runs`` CLI entry points.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.engine import ExperimentEngine
from repro.engine.jobs import EvalJob, register_job_kind
from repro.engine.registry import (
    EXPERIMENT_REGISTRY,
    ExperimentPlan,
    register,
)
from repro.serve import AsyncExperimentEngine, events as codec
from repro.serve.server import RunLog, ServeApp
from repro.store import (
    DEFAULT_STORE_PATH,
    RunStore,
    StoreError,
    iter_frames,
    replay_run,
)

TEST_KIND = "store-test"
TINY_NAME = "_store_tiny"


@register_job_kind(TEST_KIND)
def _execute_store_test(job: EvalJob, forward_batch: int) -> dict:
    return {"method": job.method, "samples": job.num_samples}


@pytest.fixture
def tiny_experiment():
    """Register a fast throwaway experiment; clean the registry after."""

    def plan(num_samples: int = 2, seed: int = 0, **_ignored):
        jobs = tuple(
            EvalJob(
                model="tiny", dataset="synthetic", method=f"job{i}",
                num_samples=num_samples, seed=seed, kind=TEST_KIND,
            )
            for i in range(3)
        )
        return ExperimentPlan(
            jobs=jobs,
            assemble=lambda results: sorted(
                results[job]["method"] for job in jobs
            ),
        )

    register(TINY_NAME, "store-layer test experiment")(plan)
    yield TINY_NAME
    EXPERIMENT_REGISTRY.pop(TINY_NAME, None)


def _progress(seq: int, **detail) -> dict:
    """A minimal progress-shaped wire event (unstamped)."""
    return {
        "schema": codec.EVENT_SCHEMA_VERSION, "event": "progress",
        "seq": seq, "detail": detail,
    }


def _stamp(event: dict, event_id: int) -> dict:
    stamped = dict(event)
    stamped["id"] = event_id
    return stamped


def _fill(store: RunStore, run_id: str, count: int) -> list[dict]:
    """Create a run and append ``count`` stamped events directly."""
    store.create_run(run_id, ["x"], {"seed": 0}, created_at=1000.0)
    stamped = [_stamp(_progress(i), i) for i in range(1, count + 1)]
    for event in stamped:
        store.append_event(run_id, event)
    return stamped


class TestRunStore:
    """The SQLite tier on its own: rows in, rows out, guards."""

    def test_run_round_trip_and_listing_order(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.create_run(
                "old", ["fig9"], {"seed": 1}, created_at=100.0
            )
            store.create_run(
                "new", ["table2", "fig13"], {"seed": 2}, created_at=200.0
            )
            run = store.get_run("old")
            assert run["experiments"] == ["fig9"]
            assert run["params"] == {"seed": 1}
            assert run["status"] == "running"
            assert run["error"] is None
            assert run["event_schema"] == codec.EVENT_SCHEMA_VERSION
            assert run["last_event_id"] == 0
            assert store.get_run("missing") is None
            # newest first
            assert [r["run_id"] for r in store.list_runs()] == (
                ["new", "old"]
            )
            assert [r["run_id"] for r in store.list_runs(limit=1)] == (
                ["new"]
            )

    def test_events_round_trip_verbatim(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            stamped = _fill(store, "r", 5)
            assert store.last_event_id("r") == 5
            assert store.events_since("r") == stamped
            assert store.events_since("r", last_id=3) == stamped[3:]
            assert store.events_since("r", last_id=1, limit=2) == (
                stamped[1:3]
            )
            # the stored payload is the canonical JSON line, byte-exact
            for (event_id, name, payload), event in zip(
                store.raw_events_since("r"), stamped
            ):
                assert event_id == event["id"]
                assert name == "progress"
                assert payload == codec.to_json(event)
            # chunked iteration covers the same rows in order
            assert list(store.iter_raw_events("r", chunk=2)) == (
                store.raw_events_since("r")
            )

    def test_append_requires_a_stamped_id(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.create_run("r", ["x"], {})
            with pytest.raises(StoreError, match="integer 'id'"):
                store.append_event("r", _progress(1))

    def test_finish_records_status_and_reports(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            _fill(store, "r", 2)
            store.finish_run(
                "r", "done", elapsed_s=1.25,
                reports={"fig9": "REPORT\n", "table2": "TABLE\n"},
            )
            run = store.get_run("r")
            assert run["status"] == "done"
            assert run["elapsed_s"] == 1.25
            assert store.reports("r") == {
                "fig9": "REPORT\n", "table2": "TABLE\n",
            }
            assert store.report_digests("r") == {
                "fig9": {"sha256": codec.report_digest("REPORT\n"),
                         "chars": 7},
                "table2": {"sha256": codec.report_digest("TABLE\n"),
                           "chars": 6},
            }

    def test_finish_guards(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.create_run("r", ["x"], {})
            with pytest.raises(StoreError, match="terminal"):
                store.finish_run("r", "running", elapsed_s=0.0)
            with pytest.raises(StoreError, match="no such run"):
                store.finish_run("ghost", "done", elapsed_s=0.0)

    def test_recover_interrupted_fails_stale_running_rows(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.create_run("a", ["x"], {}, created_at=1.0)
            store.create_run("b", ["x"], {}, created_at=2.0)
            store.create_run("c", ["x"], {}, created_at=3.0)
            store.finish_run("b", "done", elapsed_s=0.5)
            assert sorted(store.recover_interrupted()) == ["a", "c"]
            assert store.get_run("a")["status"] == "failed"
            assert "interrupted" in store.get_run("a")["error"]
            assert store.get_run("b")["status"] == "done"
            # idempotent: a second sweep finds nothing
            assert store.recover_interrupted() == []

    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with RunStore(path) as store:
            stamped = _fill(store, "r", 3)
            store.finish_run("r", "done", elapsed_s=0.1,
                            reports={"x": "text"})
        with RunStore(path) as store:
            assert store.events_since("r") == stamped
            assert store.get_run("r")["status"] == "done"
            assert store.reports("r") == {"x": "text"}

    def test_newer_store_schema_rejected(self, tmp_path):
        path = tmp_path / "s.sqlite"
        RunStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value='999' "
            "WHERE key='schema_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="newer than supported"):
            RunStore(path)


class TestWriteThroughRunLog:
    """The serving log as a cache over the store: lossless resume."""

    def test_evicted_prefix_is_bridged_from_the_store(self, tmp_path):
        async def scenario():
            with RunStore(tmp_path / "s.sqlite") as store:
                store.create_run("r", ["x"], {})
                log = RunLog(capacity=2, store=store, run_id="r")
                stamped = [
                    await log.append(_progress(i)) for i in range(1, 7)
                ]
                # the ring alone retains only the last 2 ...
                assert log._ring_since(0)[1] == 4
                # ... but resume sees everything, with no gap
                assert log.events_since(0) == (stamped, 0)
                assert log.events_since(3) == (stamped[3:], 0)
                # ids the store already served don't repeat
                assert log.events_since(6) == ([], 0)

        asyncio.run(scenario())

    def test_partial_bridge_advances_without_gaps(self, tmp_path):
        async def scenario():
            with RunStore(tmp_path / "s.sqlite") as store:
                store.create_run("r", ["x"], {})
                log = RunLog(capacity=1, store=store, run_id="r")
                log.STORE_CHUNK = 2  # force several bridging queries
                stamped = [
                    await log.append(_progress(i)) for i in range(1, 9)
                ]
                collected, last_id = [], 0
                while last_id < log.last_id:
                    batch, dropped = log.events_since(last_id)
                    assert dropped == 0
                    assert batch, "resume stalled before the tail"
                    collected.extend(batch)
                    last_id = batch[-1]["id"]
                assert collected == stamped

        asyncio.run(scenario())

    def test_without_a_store_overflow_still_reports_the_gap(self):
        async def scenario():
            log = RunLog(capacity=2)
            for i in range(1, 6):
                await log.append(_progress(i))
            retained, dropped = log.events_since(0)
            assert dropped == 3
            assert [e["id"] for e in retained] == [4, 5]

        asyncio.run(scenario())

    def test_sick_store_is_shed_and_the_stream_survives(
        self, tmp_path, capsys
    ):
        async def scenario():
            store = RunStore(tmp_path / "s.sqlite")
            store.create_run("r", ["x"], {})
            store.close()  # writes now raise ProgrammingError
            log = RunLog(capacity=4, store=store, run_id="r")
            stamped = [
                await log.append(_progress(i)) for i in range(1, 4)
            ]
            assert log.store is None  # durable tier shed on failure
            assert log.events_since(0) == (stamped, 0)

        asyncio.run(scenario())
        assert "run-store write failed" in capsys.readouterr().err


# -- hypothesis: replay parity for arbitrary stored runs --------------

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_DETAILS = st.dictionaries(
    st.text(min_size=1, max_size=8), _SCALARS, max_size=3
)


@st.composite
def _recorded_runs(draw):
    """(wire events, ring capacity, resume cut) for one stored run."""
    count = draw(st.integers(min_value=1, max_value=25))
    events = [
        {
            "schema": codec.EVENT_SCHEMA_VERSION, "event": "progress",
            "seq": seq, "detail": draw(_DETAILS),
        }
        for seq in range(1, count + 1)
    ]
    capacity = draw(st.integers(min_value=1, max_value=count + 2))
    cut = draw(st.integers(min_value=0, max_value=count))
    return events, capacity, cut


class TestReplayParity:
    """For any stored run, replay is byte-identical to the live stream
    — full, resumed mid-stream, and at every framing."""

    @given(_recorded_runs())
    @settings(max_examples=25, deadline=None)
    def test_replay_is_byte_identical_including_resume(self, case):
        events, capacity, cut = case
        with tempfile.TemporaryDirectory() as tmp:
            with RunStore(Path(tmp) / "s.sqlite") as store:
                store.create_run("r", ["x"], {})

                async def record():
                    log = RunLog(capacity, store=store, run_id="r")
                    return [await log.append(e) for e in events], log

                stamped, log = asyncio.run(record())

                # what a live subscriber received, byte for byte
                live_sse = codec.SSE_RETRY_PREAMBLE + "".join(
                    codec.format_sse(e) for e in stamped
                )
                live_jsonl = "".join(
                    codec.to_json(e) + "\n" for e in stamped
                )
                assert replay_run(store, "r") == live_sse
                assert replay_run(store, "r", jsonl=True) == live_jsonl

                # mid-replay resume emits exactly the recorded suffix
                suffix = stamped[cut:]
                assert replay_run(store, "r", last_event_id=cut) == (
                    codec.SSE_RETRY_PREAMBLE
                    + "".join(codec.format_sse(e) for e in suffix)
                )
                assert replay_run(
                    store, "r", jsonl=True, last_event_id=cut
                ) == "".join(codec.to_json(e) + "\n" for e in suffix)

                # chunk size is invisible in the output
                assert "".join(
                    iter_frames(store, "r", chunk=3)
                ) == live_sse

                # and live resume through the write-through log is
                # lossless regardless of ring capacity
                assert log.events_since(cut) == (suffix, 0)


async def _start(app: ServeApp):
    await app.engine.warm_up()
    server = await asyncio.start_server(
        app.handle_client, "127.0.0.1", 0
    )
    return server, server.sockets[0].getsockname()[1]


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
class TestStoreBackedServer:
    """The HTTP frontend recording through (and serving from) a store."""

    def test_record_replay_and_restart_resume(
        self, tiny_experiment, tmp_path
    ):
        store_path = tmp_path / "runs.sqlite"

        async def record():
            store = RunStore(store_path)
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()),
                ring_size=2, store=store,
            )
            server, port = await _start(app)
            try:
                _, run = await _json_request(
                    port, "POST", "/runs",
                    {"experiments": [tiny_experiment], "samples": 2},
                )
                run_id = run["run_id"]
                _, sse = await _request(
                    port, "GET", f"/runs/{run_id}/events"
                )
                _, jsonl = await _request(
                    port, "GET", f"/runs/{run_id}/events?format=jsonl"
                )
                status, result = await _json_request(
                    port, "GET", f"/runs/{run_id}/result"
                )
                assert status == 200
                return run_id, sse, jsonl, result
            finally:
                server.close()
                await server.wait_closed()
                await app.shutdown()
                store.close()

        run_id, live_sse, live_jsonl, live_result = asyncio.run(record())

        # Despite a 2-slot ring, the store keeps resume-from-0 gapless.
        stream = codec.parse_sse(live_sse.decode())
        assert [e["id"] for e in stream] == (
            list(range(1, len(stream) + 1))
        )
        assert all(e["event"] != "gap" for e in stream)
        assert stream[-1]["event"] == "run-done"

        # Offline replay reproduces the live bytes exactly.
        with RunStore(store_path) as store:
            assert replay_run(store, run_id).encode() == live_sse
            assert replay_run(
                store, run_id, jsonl=True
            ).encode() == live_jsonl
            assert store.recover_interrupted() == []  # finished cleanly

        cut = len(stream) // 2

        async def restarted():
            store = RunStore(store_path)
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()), store=store
            )
            server, port = await _start(app)
            try:
                status, sse = await _request(
                    port, "GET", f"/runs/{run_id}/events"
                )
                assert status == 200
                _, suffix = await _request(
                    port, "GET", f"/runs/{run_id}/events",
                    headers={"Last-Event-ID": str(cut)},
                )
                _, info = await _json_request(
                    port, "GET", f"/runs/{run_id}"
                )
                _, result = await _json_request(
                    port, "GET", f"/runs/{run_id}/result"
                )
                _, listing = await _json_request(port, "GET", "/runs")
                cancel_status, _ = await _json_request(
                    port, "DELETE", f"/runs/{run_id}"
                )
                return sse, suffix, info, result, listing, cancel_status
            finally:
                server.close()
                await server.wait_closed()
                await app.shutdown()
                store.close()

        sse, suffix, info, result, listing, cancel_status = (
            asyncio.run(restarted())
        )
        # A fresh process on the same store streams the same bytes ...
        assert sse == live_sse
        # ... and Last-Event-ID resume survives the restart lossless.
        assert suffix == codec.SSE_RETRY_PREAMBLE.encode() + b"".join(
            codec.format_sse(e).encode() for e in stream[cut:]
        )
        assert info["stored"] is True and info["status"] == "done"
        assert result["experiments"] == live_result["experiments"]
        assert result["reports"] == live_result["reports"]
        stored_ids = [r["run_id"] for r in listing["stored_runs"]]
        assert run_id in stored_ids
        assert cancel_status == 409  # stored runs cannot be cancelled

    def test_interrupted_run_prefix_stays_replayable(self, tmp_path):
        # Simulate a crash mid-run: events recorded, no terminal row.
        store_path = tmp_path / "runs.sqlite"
        with RunStore(store_path) as store:
            stamped = _fill(store, "dead", 4)

        async def restarted():
            store = RunStore(store_path)
            assert store.recover_interrupted() == ["dead"]
            app = ServeApp(
                AsyncExperimentEngine(ExperimentEngine()), store=store
            )
            server, port = await _start(app)
            try:
                status, sse = await _request(
                    port, "GET", "/runs/dead/events"
                )
                result_status, body = await _json_request(
                    port, "GET", "/runs/dead/result"
                )
                return status, sse, result_status, body
            finally:
                server.close()
                await server.wait_closed()
                await app.shutdown()
                store.close()

        status, sse, result_status, body = asyncio.run(restarted())
        assert status == 200
        assert codec.parse_sse(sse.decode()) == stamped
        assert result_status == 500
        assert "interrupted" in body["error"]


class TestCliEntryPoints:
    """``repro replay`` / ``repro runs`` and serve-flag validation."""

    @pytest.fixture
    def recorded(self, tmp_path):
        """A finished run recorded straight into a store file."""
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            stamped = _fill(store, "run-a", 3)
            store.finish_run(
                "run-a", "done", elapsed_s=0.2,
                reports={"fig9": "REPORT\n"},
            )
            store.create_run(
                "run-b", ["table2"], {}, created_at=2000.0
            )
            store.finish_run("run-b", "failed", elapsed_s=0.1,
                            error="boom")
        return path, stamped

    def test_replay_emits_recorded_frames(self, recorded, capsys):
        path, stamped = recorded
        assert cli_main(
            ["replay", "run-a", "--store-path", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert out == codec.SSE_RETRY_PREAMBLE + "".join(
            codec.format_sse(e) for e in stamped
        )

    def test_replay_jsonl_resume_and_output_file(
        self, recorded, tmp_path, capsys
    ):
        path, stamped = recorded
        target = tmp_path / "replayed.jsonl"
        assert cli_main([
            "replay", "run-a", "--store-path", str(path),
            "--format", "jsonl", "--last-event-id", "1",
            "--output", str(target),
        ]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == "".join(
            codec.to_json(e) + "\n" for e in stamped[1:]
        )

    def test_replay_unknown_run_lists_recent(self, recorded, capsys):
        path, _ = recorded
        assert cli_main(
            ["replay", "ghost", "--store-path", str(path)]
        ) == 2
        err = capsys.readouterr().err
        assert "no run 'ghost'" in err and "run-a" in err

    def test_replay_missing_store_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no run store"):
            cli_main([
                "replay", "x",
                "--store-path", str(tmp_path / "absent.sqlite"),
            ])

    def test_runs_listing_inspection_and_latest(self, recorded, capsys):
        path, _ = recorded
        assert cli_main(["runs", "--store-path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run-a" in out and "run-b" in out

        assert cli_main(
            ["runs", "--store-path", str(path), "--latest"]
        ) == 0
        assert capsys.readouterr().out.strip() == "run-b"  # newest

        assert cli_main(
            ["runs", "run-a", "--store-path", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert codec.report_digest("REPORT\n") in out

        assert cli_main(
            ["runs", "--store-path", str(path), "--json"]
        ) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in listed] == ["run-b", "run-a"]
        assert listed[1]["last_event_id"] == 3

        assert cli_main(
            ["runs", "ghost", "--store-path", str(path)]
        ) == 2

    def test_runs_empty_store(self, tmp_path, capsys):
        path = tmp_path / "empty.sqlite"
        RunStore(path).close()
        assert cli_main(["runs", "--store-path", str(path)]) == 1
        assert "empty" in capsys.readouterr().err

    def test_serve_flag_validation(self):
        from repro.serve.server import build_parser, main as serve_main

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--ring-size", "0"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--ring-size", "-3"])
        with pytest.raises(SystemExit):
            parser.parse_args(["--ring-size", "many"])
        assert parser.parse_args(
            ["--ring-size", "5"]
        ).ring_size == 5
        # --no-store and --store-path are mutually exclusive
        with pytest.raises(SystemExit):
            serve_main(["--no-store", "--store-path", "x.sqlite"])
