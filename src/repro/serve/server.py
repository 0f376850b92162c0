"""Stdlib-only asyncio HTTP frontend streaming experiment progress.

``python -m repro.cli serve`` (or ``python -m repro.serve.server``)
starts a single-process server that launches registry specs and fans
their live event streams out to any number of clients:

``POST /runs``
    Launch a run.  JSON body: ``{"experiments": ["table2", ...],
    "samples": N, "seed": S, "scenario": SPEC,
    "on_error": "raise"|"collect"}`` (everything but ``experiments``
    optional), validated by :class:`~repro.engine.registry.RunSpec`
    exactly as the CLI validates its flags; a bad or unknown key is a
    ``400``.  ``on_error: "collect"`` selects partial-results mode:
    jobs that permanently fail (see :mod:`repro.engine.faults`) cost
    their experiment, not the run, which then terminates with a
    ``run-partial`` event and status ``partial``.  Responds ``201``
    with the run id and the events/result URLs.  All runs share one
    :class:`~repro.engine.scheduler.ExperimentEngine` and one
    :class:`~repro.engine.cache.ResultCache`: a spec overlapping any
    *finished* run is served from the cache, and one overlapping a
    *live* run waits for that run's shared jobs instead of executing
    them again (single-flight, ``cache-hit`` events of tier
    ``inflight``).
``GET /runs/{id}/events``
    The run's event stream as Server-Sent Events (or JSON lines with
    ``?format=jsonl``).  Events replay from a per-run ring buffer, so
    subscribers can join late, resume with ``Last-Event-ID`` (header
    or ``?last_event_id=N``) after a dropped connection without losing
    events, and any number can stream one run concurrently; the
    stream ends after the terminal event.  With the durable run store
    (on by default; ``--store-path``/``--no-store``) every event also
    writes through to SQLite, so resume stays lossless after the ring
    evicts *and* across server restarts — a run recorded before a
    restart replays byte-identically from the store, and ``repro
    replay <run-id>`` does the same offline.
``GET /runs/{id}/result``
    The assembled artifact: per-experiment reports rendered by the
    same formatters as the offline CLI — byte-identical to an offline
    run of the same spec.  ``409`` while the run is still streaming.
``DELETE /runs/{id}``
    Cancel a run; its workers return to the shared pool.
``GET /runs``, ``GET /runs/{id}``, ``GET /experiments``, ``GET /healthz``
    Introspection: run listing/status, the registry catalog, liveness.
``POST /jobs``
    Fleet execute endpoint (see :mod:`repro.remote.dispatch`): a
    pickled job batch runs through this server's engine — cache,
    pool, retries and all — and the per-job results return as
    digest-carrying canonical payload bytes.  This is what makes any
    ``repro serve`` process usable as a ``--peers`` target.

The HTTP layer is deliberately minimal (HTTP/1.1, ``Connection:
close``, no TLS) — it is the reproduction's serving surface, not a
general web server; front it with a real proxy for anything public.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import secrets
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable
from urllib.parse import parse_qs, urlsplit

from repro.engine import registry
from repro.engine.faults import ExperimentFailure, JobFailure
from repro.serve import events as codec
from repro.serve.async_engine import (
    AsyncExperimentEngine,
    AsyncRun,
    RunCancelled,
)
from repro.serve.http import (
    HttpError,
    header_block,
    read_request,
    respond_bytes,
    respond_json,
)
from repro.store.replay import frame_raw
from repro.store.runstore import DEFAULT_STORE_PATH, RunStore

DEFAULT_PORT = 8377
MAX_BODY_BYTES = 64 << 20
"""Request-body ceiling (64 MiB); larger bodies get ``413`` before they
are read.  The largest body is a ``POST /jobs`` batch of pickled job
keys, about 144 bytes per job (the 103 evaluation jobs of ``all
--samples 1`` encode to 14,813 bytes), so 64 MiB holds some 460k jobs
while one request can no longer make the server buffer a gigabyte;
everything else is small JSON."""
DEFAULT_RING_SIZE = 65536
DEFAULT_MAX_FINISHED_RUNS = 256
"""Terminal runs retained (with their event logs and reports) before
the oldest are evicted — bounds an always-on server's memory.  With a
run store attached, evicted runs stay reachable from SQLite."""


class RunLog:
    """Per-run append-only event log: ring-buffer cache over the store.

    Events get contiguous ids ``1..n`` at append time and are encoded
    once, to the canonical JSON line that the store row, the SSE
    frames and the JSON-lines frames all carry.  Subscribers replay
    any retained suffix by id and block on an
    :class:`asyncio.Condition` for live tail-follow.  With a
    :class:`~repro.store.runstore.RunStore` attached, every append
    *writes through* to SQLite before it lands in the ring, so the
    ring is purely a cache: :meth:`rows_since` bridges any evicted
    prefix from the store and resume stays lossless at every ring
    size.  Without a store, an overflowing stream drops its oldest
    events and :meth:`rows_since` reports the gap.
    """

    STORE_CHUNK = 4096
    """Events fetched from SQLite per bridging query — bounds one
    response batch while a subscriber catches up over a huge log."""

    def __init__(
        self,
        capacity: int = DEFAULT_RING_SIZE,
        store: RunStore | None = None,
        run_id: str | None = None,
    ) -> None:
        self.capacity = max(1, capacity)
        self.store = store
        self.run_id = run_id
        # (id, event name, canonical JSON line): the store's row shape.
        self._rows: deque[tuple[int, str, str]] = deque()
        self._first_id = 1  # id of _rows[0] when non-empty
        self._next_id = 1
        self.closed = False
        self._cond = asyncio.Condition()

    @property
    def last_id(self) -> int:
        return self._next_id - 1

    async def append(self, event: dict[str, Any]) -> dict[str, Any]:
        """Assign the next id, persist, retain, and wake subscribers."""
        stamped = dict(event)
        async with self._cond:
            stamped["id"] = self._next_id
            self._next_id += 1
            line = codec.to_json(stamped)
            if self.store is not None:
                try:
                    self.store.append_event(self.run_id, stamped, line)
                except Exception as exc:
                    # Never let a sick store kill a live stream: shed
                    # the durable tier and keep serving from the ring.
                    print(
                        f"repro-serve: run-store write failed for "
                        f"{self.run_id} ({type(exc).__name__}: {exc}); "
                        "continuing ring-only", file=sys.stderr,
                    )
                    self.store = None
            self._rows.append(
                (stamped["id"], str(stamped.get("event", "")), line)
            )
            while len(self._rows) > self.capacity:
                self._rows.popleft()
                self._first_id += 1
            if codec.is_terminal(stamped):
                self.closed = True
            self._cond.notify_all()
        return stamped

    def rows_since(
        self, last_id: int
    ) -> tuple[list[tuple[int, str, str]], int]:
        """``(id, event, line)`` rows with id > ``last_id``, plus the
        unbridgeable drop count.

        Served from the ring when retained; a prefix the ring evicted
        is bridged from the run store (in :attr:`STORE_CHUNK` slices,
        so one call never materializes an unbounded backlog — callers
        advance past the returned batch and call again).  The second
        element is how many requested events are gone from *both*
        tiers (0 in the lossless case).  Ring cost is proportional to
        the suffix returned, so a live tail pays O(1) per event.
        """
        rows, dropped = self._ring_since(last_id)
        if not dropped or self.store is None:
            return rows, dropped
        bridge = self.store.raw_events_since(
            self.run_id, last_id, limit=min(dropped, self.STORE_CHUNK)
        )
        if bridge and bridge[-1][0] - last_id == len(bridge):
            if len(bridge) == dropped:
                return bridge + rows, 0
            return bridge, 0  # partial bridge: caller resumes after it
        return rows, dropped  # store can't bridge: report the gap

    def events_since(
        self, last_id: int
    ) -> tuple[list[dict[str, Any]], int]:
        """:meth:`rows_since` with each row decoded to its event."""
        rows, dropped = self.rows_since(last_id)
        return [json.loads(line) for _, _, line in rows], dropped

    def _ring_since(
        self, last_id: int
    ) -> tuple[list[tuple[int, str, str]], int]:
        if not self._rows:
            return [], 0
        dropped = max(0, self._first_id - 1 - last_id)
        start = max(0, last_id + 1 - self._first_id)
        count = len(self._rows) - start
        if count <= 0:
            return [], dropped
        if count < start:
            # Short suffix of a long log (the live-tail case): walk in
            # from the right instead of skipping the whole prefix.
            suffix = list(itertools.islice(reversed(self._rows), count))
            suffix.reverse()
            return suffix, dropped
        return list(itertools.islice(self._rows, start, None)), dropped

    async def wait_beyond(self, last_id: int) -> None:
        """Block until an event with id > ``last_id`` exists or the
        stream is closed."""
        async with self._cond:
            await self._cond.wait_for(
                lambda: self.last_id > last_id or self.closed
            )


@dataclass
class Run:
    """Server-side state of one launched run."""

    run_id: str
    experiments: list[str]
    params: dict[str, Any]
    log: RunLog
    handle: AsyncRun
    status: str = "running"  # running | done | partial | failed | cancelled
    on_error: str = "raise"
    error: str | None = None
    reports: dict[str, str] = field(default_factory=dict)
    failures: dict[str, Any] = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)
    pump: asyncio.Task | None = None
    cache_before: Any = None  # CacheStats snapshot at launch
    joined: int = 0  # units taken from another live run (single-flight)
    # Subscriber fan-out counters (event-stream connections).
    subscribers_active: int = 0
    subscribers_total: int = 0
    subscribers_peak: int = 0

    def describe(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "status": self.status,
            "experiments": list(self.experiments),
            "params": codec.jsonify(self.params),
            "on_error": self.on_error,
            "events_logged": self.log.last_id,
            "error": self.error,
            "failed_experiments": sorted(self.failures),
            "subscribers": {
                "active": self.subscribers_active,
                "total": self.subscribers_total,
                "peak": self.subscribers_peak,
            },
            "events_url": f"/runs/{self.run_id}/events",
            "result_url": f"/runs/{self.run_id}/result",
        }


class ServeApp:
    """Routing + run lifecycle over one shared async engine."""

    def __init__(
        self,
        engine: AsyncExperimentEngine | None = None,
        ring_size: int = DEFAULT_RING_SIZE,
        max_finished_runs: int = DEFAULT_MAX_FINISHED_RUNS,
        store: RunStore | None = None,
    ) -> None:
        self.engine = (
            engine if engine is not None else AsyncExperimentEngine()
        )
        self.ring_size = ring_size
        self.max_finished_runs = max(1, max_finished_runs)
        self.store = store
        self.runs: dict[str, Run] = {}
        self._finished: deque[str] = deque()  # terminal run ids, oldest first

    def _evict_finished_runs(self) -> None:
        """Keep at most ``max_finished_runs`` terminal runs.

        Evicted runs' logs and reports are dropped (their cached job
        results live on in the engine's ``ResultCache``); live runs
        are never evicted, so ``runs`` stays bounded by live traffic
        plus the retention cap instead of growing forever.  The
        oldest-finished runs go first, at a cost proportional to the
        runs evicted.
        """
        while len(self._finished) > self.max_finished_runs:
            del self.runs[self._finished.popleft()]

    # -- run lifecycle -----------------------------------------------

    async def start_run(self, spec: dict[str, Any]) -> Run:
        """Validate a POSTed spec, launch it, and start its pump."""
        try:
            run_spec = registry.RunSpec.from_record(spec)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        names = list(run_spec.experiments)
        params = run_spec.params

        self._evict_finished_runs()
        run_id = secrets.token_hex(8)
        if self.store is not None:
            self.store.create_run(run_id, names, params)
        run = Run(
            run_id=run_id,
            experiments=names,
            params=params,
            on_error=run_spec.on_error,
            log=RunLog(self.ring_size, store=self.store, run_id=run_id),
            cache_before=self.engine.engine.cache.stats.snapshot(),
            handle=self.engine.launch(
                names, on_error=run_spec.on_error, **params
            ),
        )
        self.runs[run_id] = run
        await run.log.append(
            codec.encode_run_started(run_id, run.experiments, params)
        )
        run.pump = asyncio.ensure_future(self._pump(run))
        return run

    async def _pump(self, run: Run) -> None:
        """Single consumer of the run's event stream; feeds the log."""
        try:
            async for event in run.handle.events():
                if (
                    event.action == "cache-hit"
                    and event.detail["tier"] == "inflight"
                ):
                    run.joined += 1
                await run.log.append(codec.encode_progress(event))
            results = await run.handle.result()
        except (RunCancelled, asyncio.CancelledError):
            run.status = "cancelled"
            await run.log.append(codec.encode_run_cancelled(
                run.run_id, time.monotonic() - run.started
            ))
            self._finish_run(run)
            return
        except Exception as exc:  # schedule failed; report, keep serving
            run.status = "failed"
            run.error = f"{type(exc).__name__}: {exc}"
            await run.log.append(codec.encode_run_failed(
                run.run_id, run.error, time.monotonic() - run.started
            ))
            self._finish_run(run)
            return
        run.reports = {name: results.reports[name] for name in run.experiments}
        run.failures = {
            name: result.as_detail()
            for name, result in results.items()
            if isinstance(result, ExperimentFailure)
        }
        elapsed = time.monotonic() - run.started
        cache_tiers = self._cache_delta(run)
        if run.failures:
            # Collect-mode run with permanently failed jobs: partial.
            run.status = "partial"
            await run.log.append(codec.encode_run_partial(
                run.run_id, run.reports, run.failures, elapsed,
                cache_tiers=cache_tiers,
            ))
        else:
            run.status = "done"
            await run.log.append(codec.encode_run_done(
                run.run_id, run.reports, elapsed,
                cache_tiers=cache_tiers,
            ))
        self._finish_run(run)

    def _cache_delta(self, run: Run) -> dict[str, Any] | None:
        """The shared cache's per-tier activity over this run's life.

        Concurrent runs share one cache, so overlapping runs' deltas
        overlap too — the field reports what the cache did *while the
        run was live*, which for the common serial-usage case is
        exactly the run's own traffic.  ``joined`` (present only when
        non-zero) is the run's own count of units it took from another
        live run instead of executing them.
        """
        if run.cache_before is None:
            return None
        delta = self.engine.engine.cache.stats.snapshot().delta(
            run.cache_before
        )
        tiers: dict[str, Any] = delta.tiers()
        tiers["hits"] = delta.hits
        tiers["misses"] = delta.misses
        tiers["remote_stores"] = delta.remote_stores
        if run.joined:
            tiers["joined"] = run.joined
        return tiers

    def _finish_run(self, run: Run) -> None:
        """Retire a terminal run: queue it for eviction and record its
        status, reports, and failures in the store."""
        self._finished.append(run.run_id)
        if self.store is None:
            return
        try:
            self.store.finish_run(
                run.run_id, run.status,
                elapsed_s=time.monotonic() - run.started,
                error=run.error, reports=run.reports,
                failures=run.failures or None,
            )
        except Exception as exc:
            print(
                f"repro-serve: run-store finish failed for "
                f"{run.run_id} ({type(exc).__name__}: {exc})",
                file=sys.stderr,
            )

    def _get_run(self, run_id: str) -> Run:
        try:
            return self.runs[run_id]
        except KeyError:
            raise HttpError(404, f"no such run {run_id!r}") from None

    def _stored_run(self, run_id: str) -> dict[str, Any]:
        """A run known only to the store (finished before this process
        started, or evicted from the live table)."""
        info = self.store.get_run(run_id) if self.store else None
        if info is None:
            raise HttpError(404, f"no such run {run_id!r}")
        return info

    @staticmethod
    def _describe_stored(info: dict[str, Any]) -> dict[str, Any]:
        return {
            "run_id": info["run_id"],
            "status": info["status"],
            "experiments": list(info["experiments"]),
            "params": info["params"],
            "events_logged": info["last_event_id"],
            "error": info["error"],
            "failed_experiments": sorted(info.get("failures") or {}),
            "stored": True,
            "events_url": f"/runs/{info['run_id']}/events",
            "result_url": f"/runs/{info['run_id']}/result",
        }

    # -- HTTP plumbing ------------------------------------------------

    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection, one request (``Connection: close``)."""
        try:
            try:
                request = await read_request(
                    reader, max_body=MAX_BODY_BYTES
                )
            except HttpError as exc:
                await respond_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            if request is None:
                return
            method, target, headers, body = request
            try:
                await self._route(method, target, headers, body, writer)
            except HttpError as exc:
                await respond_json(
                    writer, exc.status, {"error": exc.message}
                )
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away mid-stream; run keeps going
            except Exception as exc:
                await respond_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self, method: str, target: str, headers: dict[str, str],
        body: bytes, writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query = {
            key: values[-1]
            for key, values in parse_qs(url.query).items()
        }

        if parts == ["healthz"] and method == "GET":
            await respond_json(writer, 200, {
                "ok": True, "runs": len(self.runs),
                "subscribers_active": sum(
                    run.subscribers_active for run in self.runs.values()
                ),
                "schema": codec.EVENT_SCHEMA_VERSION,
            })
        elif parts == ["experiments"] and method == "GET":
            await respond_json(writer, 200, {
                "experiments": list(registry.experiment_catalog()),
            })
        elif parts == ["jobs"] and method == "POST":
            await self._execute_jobs(writer, body)
        elif parts == ["runs"] and method == "POST":
            try:
                spec = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                raise HttpError(400, f"invalid JSON body: {exc}")
            run = await self.start_run(spec)
            await respond_json(writer, 201, run.describe())
        elif parts == ["runs"] and method == "GET":
            listing: dict[str, Any] = {
                "runs": [run.describe() for run in self.runs.values()],
            }
            if self.store is not None:
                live = set(self.runs)
                listing["stored_runs"] = [
                    self._describe_stored(info)
                    for info in self.store.list_runs()
                    if info["run_id"] not in live
                ]
            await respond_json(writer, 200, listing)
        elif len(parts) == 2 and parts[0] == "runs" and method == "GET":
            if parts[1] in self.runs:
                payload = self._get_run(parts[1]).describe()
            else:
                payload = self._describe_stored(self._stored_run(parts[1]))
            await respond_json(writer, 200, payload)
        elif len(parts) == 2 and parts[0] == "runs" and method == "DELETE":
            if parts[1] not in self.runs and self.store is not None \
                    and self.store.get_run(parts[1]) is not None:
                raise HttpError(
                    409, f"run {parts[1]!r} is not live (stored runs "
                    "cannot be cancelled)"
                )
            run = self._get_run(parts[1])
            run.handle.cancel()
            await respond_json(writer, 202, run.describe())
        elif (
            len(parts) == 3 and parts[0] == "runs"
            and parts[2] == "events" and method == "GET"
        ):
            if parts[1] in self.runs:
                await self._stream_events(
                    writer, self._get_run(parts[1]), headers, query
                )
            else:
                await self._stream_stored(
                    writer, self._stored_run(parts[1]), headers, query
                )
        elif (
            len(parts) == 3 and parts[0] == "runs"
            and parts[2] == "result" and method == "GET"
        ):
            if parts[1] in self.runs:
                await self._respond_result(
                    writer, self._get_run(parts[1])
                )
            else:
                await self._respond_stored_result(
                    writer, self._stored_run(parts[1])
                )
        else:
            raise HttpError(404, f"no route for {method} {url.path}")

    async def _execute_jobs(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        """Fleet execute endpoint: run a shipped job batch.

        The batch runs through this server's engine (its cache, pool,
        retry policy, and fault machinery — a job cached here never
        re-executes), in collect mode so one bad job costs one entry,
        not the batch.  Per-job entries return as the pickled
        :func:`repro.remote.protocol.encode_job_results` envelope:
        ``("ok", digest, canonical_bytes)`` or ``("failed", detail)``.
        Same trust model as the cache tier: pickled payloads, trusted
        network only.
        """
        from repro.remote import protocol

        try:
            jobs = protocol.decode_jobs(body)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        # The engine is thread-safe; run the blocking batch off the
        # event loop so live runs keep streaming while peers execute.
        results = await asyncio.to_thread(
            self.engine.engine.run, jobs, on_error="collect"
        )
        entries: dict[str, tuple] = {}
        for job in jobs:
            value = results[job]
            if isinstance(value, JobFailure):
                entries[job.job_id] = ("failed", value.as_detail())
            else:
                data = protocol.encode_payload(value)
                entries[job.job_id] = (
                    "ok", protocol.payload_digest(data), data
                )
        await respond_bytes(
            writer, 200, protocol.encode_job_results(entries)
        )

    async def _respond_result(
        self, writer: asyncio.StreamWriter, run: Run
    ) -> None:
        if run.status == "running":
            raise HttpError(409, f"run {run.run_id} is still running")
        if run.status == "cancelled":
            raise HttpError(410, f"run {run.run_id} was cancelled")
        if run.status == "failed":
            raise HttpError(500, f"run {run.run_id} failed: {run.error}")
        payload = {
            "run_id": run.run_id,
            "status": run.status,
            "experiments": run.reports,
            "reports": {
                name: {
                    "sha256": codec.report_digest(text),
                    "chars": len(text),
                }
                for name, text in run.reports.items()
            },
        }
        if run.status == "partial":
            payload["failures"] = codec.jsonify(run.failures)
        await respond_json(writer, 200, payload)

    @staticmethod
    def _parse_stream_query(
        headers: dict[str, str], query: dict[str, str],
    ) -> tuple[bool, int]:
        """``(jsonl, last_id)`` from the resume header/query params."""
        jsonl = query.get("format") == "jsonl"
        raw_resume = headers.get(
            "last-event-id", query.get("last_event_id", "0")
        )
        try:
            return jsonl, max(0, int(raw_resume))
        except ValueError:
            raise HttpError(
                400, f"invalid Last-Event-ID {raw_resume!r}"
            ) from None

    def _start_stream(
        self, writer: asyncio.StreamWriter, jsonl: bool
    ) -> None:
        content_type = (
            "application/x-ndjson" if jsonl else "text/event-stream"
        )
        writer.write(header_block(200, content_type))
        if not jsonl:
            writer.write(codec.SSE_RETRY_PREAMBLE.encode("latin-1"))

    async def _stream_events(
        self, writer: asyncio.StreamWriter, run: Run,
        headers: dict[str, str], query: dict[str, str],
    ) -> None:
        jsonl, last_id = self._parse_stream_query(headers, query)
        self._start_stream(writer, jsonl)
        await writer.drain()

        run.subscribers_active += 1
        run.subscribers_total += 1
        run.subscribers_peak = max(
            run.subscribers_peak, run.subscribers_active
        )
        try:
            await self._tail_events(writer, run, jsonl, last_id)
        finally:
            run.subscribers_active -= 1

    async def _tail_events(
        self, writer: asyncio.StreamWriter, run: Run,
        jsonl: bool, last_id: int,
    ) -> None:
        while True:
            batch, dropped = run.log.rows_since(last_id)
            if dropped:
                # Both the ring and the store (if any) have lost part
                # of the requested replay; tell the client instead of
                # silently skipping.  The gap carries the first
                # *retained* seq so id/seq cursors move forward.
                first_seq = (
                    json.loads(batch[0][2]).get("seq", 0) if batch else 0
                )
                gap = codec.encode_gap(
                    dropped, last_id + dropped, first_seq
                )
                writer.write(codec.frame(gap, jsonl))
                last_id += dropped
            for event_id, name, line in batch:
                writer.write(
                    frame_raw(event_id, name, line, jsonl).encode("utf-8")
                )
                last_id = event_id
            await writer.drain()
            if run.log.closed and last_id >= run.log.last_id:
                return
            if not batch and not dropped:
                await run.log.wait_beyond(last_id)

    async def _stream_stored(
        self, writer: asyncio.StreamWriter, info: dict[str, Any],
        headers: dict[str, str], query: dict[str, str],
    ) -> None:
        """Replay a store-only run (e.g. recorded before a restart).

        Byte-identical to the live stream the run produced: frames are
        built from the stored canonical JSON lines.  The stream ends
        at the last stored event — stored runs are never live, so
        there is nothing to tail.
        """
        jsonl, last_id = self._parse_stream_query(headers, query)
        self._start_stream(writer, jsonl)
        await writer.drain()
        for event_id, name, payload in self.store.iter_raw_events(
            info["run_id"], last_id, chunk=RunLog.STORE_CHUNK
        ):
            writer.write(
                frame_raw(event_id, name, payload, jsonl).encode("utf-8")
            )
            if event_id % RunLog.STORE_CHUNK == 0:
                await writer.drain()
        await writer.drain()

    async def _respond_stored_result(
        self, writer: asyncio.StreamWriter, info: dict[str, Any],
    ) -> None:
        run_id = info["run_id"]
        if info["status"] == "running":
            raise HttpError(409, f"run {run_id} is still running")
        if info["status"] == "cancelled":
            raise HttpError(410, f"run {run_id} was cancelled")
        if info["status"] == "failed":
            raise HttpError(
                500, f"run {run_id} failed: {info['error']}"
            )
        payload = {
            "run_id": run_id,
            "status": info["status"],
            "stored": True,
            "experiments": self.store.reports(run_id),
            "reports": self.store.report_digests(run_id),
        }
        if info["status"] == "partial":
            payload["failures"] = info.get("failures") or {}
        await respond_json(writer, 200, payload)

    async def shutdown(self) -> None:
        """Cancel every live run and release the engine's workers."""
        for run in self.runs.values():
            if run.status == "running":
                run.handle.cancel()
        for run in self.runs.values():
            if run.pump is not None:
                try:
                    await run.pump
                except asyncio.CancelledError:
                    pass
        await self.engine.close()


async def serve(
    app: ServeApp, host: str, port: int,
    ready: asyncio.Event | None = None,
) -> None:
    """Accept connections until cancelled; announce readiness on stderr."""
    # Fork the worker pool before any socket exists: forked children
    # inherit open fds, and an inherited client connection would never
    # see EOF after the parent closes it.
    await app.engine.warm_up()
    server = await asyncio.start_server(app.handle_client, host, port)
    addr = server.sockets[0].getsockname()
    print(
        f"repro-serve listening on http://{addr[0]}:{addr[1]} "
        f"(schema v{codec.EVENT_SCHEMA_VERSION})",
        file=sys.stderr, flush=True,
    )
    if ready is not None:
        ready.set()
    # SIGTERM (how supervisors stop a server) shuts down like Ctrl-C:
    # the finally closes the engine, whose pool workers would otherwise
    # outlive the server.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel
    )
    try:
        async with server:
            await server.serve_forever()
    finally:
        await app.shutdown()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="Serve experiment runs over HTTP with SSE/JSON-lines "
                    "progress streaming.",
    )
    # No cycle: cli loads serve lazily.
    from repro.cli import add_engine_flags, positive_int

    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default: {DEFAULT_PORT})")
    add_engine_flags(parser)
    parser.add_argument("--ring-size", type=positive_int,
                        default=DEFAULT_RING_SIZE,
                        help="events retained per run in memory for "
                             "replay/resume (>= 1); the run store "
                             "bridges anything older")
    parser.add_argument("--store-path", default=None, metavar="PATH",
                        help="durable run-store database every event "
                             "writes through to (default: "
                             f"{DEFAULT_STORE_PATH})")
    parser.add_argument("--no-store", action="store_true",
                        help="disable the durable run store (runs die "
                             "with the process, as before)")
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    if args.no_store and args.store_path is not None:
        parser.error("--no-store conflicts with --store-path")
    from repro.cli import make_engine  # no cycle: cli loads serve lazily

    engine = make_engine(args)
    store = None
    if not args.no_store:
        store = RunStore(args.store_path or DEFAULT_STORE_PATH)
        interrupted = store.recover_interrupted()
        if interrupted:
            print(
                f"repro-serve: marked {len(interrupted)} interrupted "
                f"run(s) failed (recorded events stay replayable): "
                f"{interrupted}", file=sys.stderr,
            )
    app = ServeApp(
        AsyncExperimentEngine(engine), ring_size=args.ring_size,
        store=store,
    )
    try:
        asyncio.run(serve(app, args.host, args.port))
    except (KeyboardInterrupt, asyncio.CancelledError):
        print("repro-serve: interrupted, shutting down",
              file=sys.stderr)
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
