"""The experiment engine: dedupe, cache, and execute job batches.

:class:`ExperimentEngine` takes a batch of :class:`~repro.engine.jobs.
EvalJob` objects — possibly collected from *several* experiments —
collapses duplicates by key, serves what it can from the result cache,
and runs the remainder through one dispatch loop
(:meth:`ExperimentEngine._execute`).  The loop's local executor runs
jobs in-process (``workers=1``) or on a
:class:`~concurrent.futures.ProcessPoolExecutor`; fleet peers, when
configured, each take a share as one more future.  Progress events
(``cache-hit`` / ``started`` / ``completed``, over every job kind the
batch schedules: ``eval``, ``fig2b``, …) stream to an optional
callback as jobs finish.  An ``eval`` cell of several samples is a
fold of per-sample jobs (:mod:`repro.eval.eval_shards`): its samples
execute, dedupe, and cache individually and stream
``eval-shard-done`` partial results as they land.

Execution is fault tolerant (see :mod:`repro.engine.faults`), with
one retry/settle state machine for every executor: a
:class:`~repro.engine.faults.RetryPolicy` re-dispatches failed
attempts with deterministic backoff, per-job wall-clock timeouts
reclaim hung pool workers, a worker crash (``BrokenProcessPool``) no
longer aborts the batch — the pool is respawned and only the in-flight
cohort is re-dispatched, one job at a time so a repeat crash indicts
exactly one job, which is then quarantined as *poisoned* — and the
jobs a peer does not deliver rejoin the local queue without penalty.  In
partial-results mode (``run(..., on_error="collect")``) permanently
failed jobs map to structured :class:`~repro.engine.faults.JobFailure`
records instead of raising, and the retry lifecycle streams as
``retrying`` / ``gave-up`` / ``quarantined`` progress events.

The engine is safe to drive from several threads at once — the async
serving layer (:mod:`repro.serve`) runs many concurrent
:meth:`ExperimentEngine.run` batches against one engine and one
:class:`~repro.engine.cache.ResultCache`.  Concurrent batches that
share a unit execute it once: an engine-wide in-flight table makes
every later batch a *waiter* on the batch already executing it (see
:meth:`ExperimentEngine.run`).  Every emitted
:class:`ProgressEvent` carries an engine-wide monotonic sequence
number; per-batch callbacks are passed to :meth:`run` itself, while
:meth:`subscribe` attaches engine-wide observers that see the
interleaved stream of every batch in sequence order.

Because every job is a pure function of its key (see
:mod:`repro.engine.jobs`), parallel execution is bit-identical to
serial execution: worker count, completion order, retries, and crash
recovery influence only wall-clock time, never results.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.engine.blas import pin_worker
from repro.engine.cache import MISS, ResultCache
from repro.engine.counters import Counters
from repro.engine.faults import (
    DEFAULT_RETRY_POLICY,
    JobFailure,
    JobTimeout,
    PeerUnreachable,
    PoisonedJob,
    RetryPolicy,
    run_job_attempt,
)
from repro.engine.jobs import EvalJob
from repro.engine.memo import ReportMemo

logger = logging.getLogger("repro.engine")


@dataclass(frozen=True)
class ProgressEvent:
    """One streamed scheduling event.

    Attributes:
        action: ``"cache-hit"``, ``"started"``, ``"completed"``,
            ``"eval-shard-done"`` (a sample of a split cell landed —
            streamed *in addition to* the cache-hit/completed event of
            the job that carried it), ``"retrying"`` (a failed,
            timed-out, or crash-interrupted attempt is being
            re-dispatched), ``"gave-up"`` (the job's attempt budget is
            exhausted), or ``"quarantined"`` (the job repeatedly
            killed its worker and is poisoned).
        job: The job the event refers to.
        completed: Jobs finished so far (including cache hits and
            permanent failures).
        total: Schedulable units in this batch (a split cell counts
            its cached samples and executed chunks, not itself).
        elapsed_s: Seconds since the batch started.
        detail: Action-specific payload; for ``eval-shard-done`` the
            running partial result of the sample's parent cell
            (``parent``, ``shards_done``, ``shards_total``,
            ``samples``, ``accuracy``, ``sparsity`` — see
            :meth:`repro.eval.eval_shards.ShardProgress.update`);
            for ``cache-hit`` the serving ``tier`` (``memory`` /
            ``disk`` / ``remote``, or ``inflight`` for a unit taken
            from another live batch that executed it); for
            ``retrying`` the attempt counters, backoff, and reason;
            for ``gave-up``/``quarantined`` the
            :meth:`~repro.engine.faults.JobFailure.as_detail` payload.
        seq: Engine-wide monotonic sequence number, assigned under the
            emit lock.  Events observed by any single callback are
            strictly increasing in ``seq``; with several concurrent
            batches, engine-wide subscribers can totally order the
            interleaved stream by it.
    """

    action: str
    job: EvalJob
    completed: int
    total: int
    elapsed_s: float = 0.0
    detail: Any = None
    seq: int = 0


ProgressCallback = Callable[[ProgressEvent], None]


def _warm_up_probe() -> None:
    """Picklable no-op submitted by :meth:`ExperimentEngine.warm_up`."""
    return None


@dataclass
class EngineStats(Counters):
    """Cumulative scheduling counters (one engine's lifetime).

    ``executed`` counts actual evaluation calls; the acceptance
    criterion "a warm-cache re-run performs zero new ``evaluate()``
    calls" is checked against it — a job executed by a fleet peer
    counts in ``remote_jobs`` instead, never in ``executed``.
    ``retries`` counts local re-dispatches (failed attempt, timeout,
    crash cohort), ``timeouts`` hung attempts reclaimed by killing
    the pool, ``pool_crashes`` pool teardowns forced by a worker
    crash, ``peer_failures`` peer batches that were requeued, whole
    or in part, for local execution (their jobs' ``retrying`` events
    carry the ``peer`` and count no retry), and ``failed`` /
    ``quarantined`` permanently failed and poisoned jobs.  ``joined``
    counts units a batch took from another live batch that was
    executing them (single-flight) instead of executing them again.
    """

    jobs_submitted: int = 0
    jobs_unique: int = 0
    jobs_deduped: int = 0
    cache_hits: int = 0
    executed: int = 0
    joined: int = 0
    remote_jobs: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_crashes: int = 0
    peer_failures: int = 0
    failed: int = 0
    quarantined: int = 0
    wall_s: float = 0.0
    executed_by_kind: dict[str, int] = field(default_factory=dict)


@dataclass(eq=False)
class _JobState:
    """One pending job's scheduling state across attempts.

    ``dispatches`` counts every hand-off to a worker (it is the
    attempt number fault plans see, so an injected "kill on attempt 1"
    cannot re-fire after an unattributed cohort re-dispatch), while
    ``attempts`` counts only *attributed* failures and is what the
    retry budget is charged against.  ``crash_attempts`` tracks
    consecutive worker crashes with exact (singleton) attribution —
    reaching ``RetryPolicy.max_crash_attempts`` quarantines the job.
    """

    job: EvalJob
    started: bool = False
    dispatches: int = 0
    attempts: int = 0
    crash_attempts: int = 0
    tracebacks: list[str] = field(default_factory=list)
    not_before: float = 0.0  # monotonic clock gate for backoff
    deadline: float | None = None  # monotonic wall-clock budget


class _Flight:
    """One cache unit a live batch is executing.

    Other batches that need the unit wait on ``done``; ``payload`` is
    the result, or :data:`~repro.engine.cache.MISS` when the owner
    released the unit without one (it failed, aborted or was
    cancelled).
    """

    __slots__ = ("done", "payload")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.payload: Any = MISS


Land = Callable[[EvalJob, Any, "str | None"], None]
"""``land(job, payload, peer)``: the dispatch loop hands every unit it
executed (``peer`` names the fleet peer that ran it) to
:meth:`ExperimentEngine.run`'s single publish point."""


class _InlineExecutor:
    """The in-process executor: ``submit`` runs the call in the calling
    thread and returns an already-complete future."""

    @staticmethod
    def submit(
        fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


_INLINE = _InlineExecutor()


def _peer_payload(entry: Any) -> Any:
    """The payload a peer's result entry delivers, or ``MISS``.

    A missing entry, a job-level failure and bytes that fail their
    digest all miss: local execution is the authoritative fallback for
    each (it reproduces failures with the coordinator's own retry
    policy and records).
    """
    from repro.remote import protocol

    if not (
        isinstance(entry, tuple) and len(entry) == 3 and entry[0] == "ok"
        and protocol.payload_digest(entry[2]) == entry[1]
    ):
        return MISS
    try:
        return protocol.decode_payload(entry[2])
    except Exception:
        return MISS


class ExperimentEngine:
    """Schedules deduplicated job batches over a cache and worker pool.

    Args:
        workers: Chooses the local executor.  ``1`` runs every job
            inline, in the calling thread (still through the cache),
            under the environment's BLAS threading; more runs them on
            a process pool of that size, one job per worker at a
            time, whatever the batch size, and every pool worker runs
            one BLAS thread (:func:`repro.engine.blas.pin_worker`).
            If the pool cannot be (re)built, the batch finishes
            inline.
        cache: Result cache; defaults to a fresh memory-only cache.
        progress: Optional streaming callback invoked from the
            scheduling process as jobs hit the cache, start, and
            complete.
        retry_policy: How failed attempts are retried (the CLI's
            ``--retries`` / ``--retry-backoff``).  Defaults to
            :data:`~repro.engine.faults.DEFAULT_RETRY_POLICY` — no
            exception retries, but worker-crash recovery and the
            poison-quarantine threshold stay active.
        job_timeout_s: Per-job wall-clock budget, measured from
            dispatch (the CLI's ``--job-timeout``).  Enforced only by
            the worker pool (an inline attempt cannot be interrupted):
            a hung attempt is reclaimed by tearing the pool down
            (running futures cannot be cancelled), innocent in-flight
            jobs are re-dispatched without penalty, and the timed-out
            job is retried or failed per the retry policy.  ``None``
            (default) disables the budget.
        forward_batch: Lanes per forward pass (the CLI's
            ``--forward-batch``; default 1).  Handed to every job's
            execution and the most samples one executed chunk of a
            split cell carries, never part of a key: results are
            bit-identical for any value, so a warm cache serves them
            whatever it is.  A fleet peer runs its share with its own
            engine's value.
        peers: Fleet peer base URLs (the CLI's ``--peers``) — other
            ``repro serve`` processes exposing ``POST /jobs``.  Each
            batch is partitioned by rendezvous hashing on job id over
            peers + the local engine (see :mod:`repro.remote.
            dispatch`), each peer share ships as one request that
            runs concurrently with the local share, and whatever a
            peer does not deliver rejoins the local queue without
            penalty as soon as its answer (or failure) is in — a
            fleet of any size degrades gracefully to, and stays
            bit-identical with, local-only execution.

    The process pool is created lazily on the first batch that
    executes anything locally and reused across :meth:`run` calls — a
    server that runs many small batches pays the pool spawn cost
    once, not per batch.
    :meth:`close` (or the context-manager protocol) releases the
    workers; a closed engine recreates the pool on next use.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: ProgressCallback | None = None,
        retry_policy: RetryPolicy | None = None,
        job_timeout_s: float | None = None,
        peers: Iterable[str] | None = None,
        forward_batch: int = 1,
    ) -> None:
        self.workers = max(1, int(workers))
        self.cache = cache if cache is not None else ResultCache()
        self.progress = progress
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else DEFAULT_RETRY_POLICY
        )
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ValueError(
                f"job_timeout_s must be > 0, got {job_timeout_s}"
            )
        self.job_timeout_s = job_timeout_s
        if forward_batch < 1:
            raise ValueError(
                f"forward_batch must be >= 1, got {forward_batch}"
            )
        self.forward_batch = forward_batch
        self.fleet = None
        peer_urls = list(peers) if peers is not None else []
        if peer_urls:
            # Lazy: the engine layer stays importable without the
            # remote package; only a fleet run needs it.
            from repro.remote.dispatch import FleetDispatcher

            self.fleet = FleetDispatcher(peer_urls)
        self.stats = EngineStats()
        # Assembled reports of the runs driven through this engine
        # (repro.engine.registry.run_experiments): a repeat run skips
        # assembly and formatting.
        self.report_memo = ReportMemo()
        self._pool: ProcessPoolExecutor | None = None
        # One reentrant lock guards the counters, the pool handle, the
        # in-flight table, and event emission, so concurrent run()
        # threads (the async serving layer) stay consistent and
        # sequence numbers stay monotonic per observer.
        self._lock = threading.RLock()
        self._inflight: dict[EvalJob, _Flight] = {}
        self._seq = itertools.count(1)
        self._subscribers: dict[int, ProgressCallback] = {}
        self._subscriber_tokens = itertools.count(1)

    def subscribe(self, callback: ProgressCallback) -> int:
        """Attach an engine-wide progress observer; returns a token.

        Subscribers see every event from every batch (all concurrent
        :meth:`run` calls), delivered under the emit lock in strictly
        increasing ``seq`` order.  A subscriber that raises is dropped
        (with a logged warning) — a broken monitor must not kill
        unrelated runs.  Per-batch streaming belongs in :meth:`run`'s
        ``progress`` argument instead.
        """
        with self._lock:
            token = next(self._subscriber_tokens)
            self._subscribers[token] = callback
            return token

    def unsubscribe(self, token: int) -> None:
        """Detach a :meth:`subscribe` observer (idempotent)."""
        with self._lock:
            self._subscribers.pop(token, None)

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent) and drain
        any pending remote-cache publishes."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        flush = getattr(self.cache, "flush_remote", None)
        if flush is not None:
            flush()

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass  # interpreter shutdown; atexit reaps the workers

    # -- internals ---------------------------------------------------

    def _note_executed(self, job: EvalJob) -> None:
        with self._lock:
            self.stats.executed += 1
            self.stats.executed_by_kind[job.kind] = (
                self.stats.executed_by_kind.get(job.kind, 0) + 1
            )

    def _note_retry(self) -> None:
        with self._lock:
            self.stats.retries += 1

    def _note_pool_crash(self) -> None:
        with self._lock:
            self.stats.pool_crashes += 1

    @staticmethod
    def _format_exception(exc: BaseException) -> str:
        return "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )

    def _emit(
        self, action: str, job: EvalJob, completed: int, total: int,
        start: float, detail: Any = None,
        progress: ProgressCallback | None = None,
    ) -> None:
        """Build one sequenced event and deliver it to every observer.

        ``progress`` is the batch-local callback handed to :meth:`run`
        (exceptions propagate — the async layer cancels a run by
        raising from it), ``self.progress`` the engine-wide one from
        the constructor.  :meth:`subscribe` observers are notified
        under the emit lock so each sees a strictly ``seq``-ordered
        stream even across concurrent batches; a subscriber that
        raises is dropped with a logged warning.
        """
        if (
            progress is None
            and self.progress is None
            and not self._subscribers
        ):
            return
        with self._lock:
            event = ProgressEvent(
                action=action, job=job, completed=completed, total=total,
                elapsed_s=time.perf_counter() - start, detail=detail,
                seq=next(self._seq),
            )
            for token, callback in list(self._subscribers.items()):
                try:
                    callback(event)
                except Exception:
                    self._subscribers.pop(token, None)
                    logger.warning(
                        "dropping progress subscriber %d after its "
                        "callback raised",
                        token, exc_info=True,
                    )
        for callback in (progress, self.progress):
            if callback is not None:
                callback(event)

    def _record_permanent(
        self, state: _JobState, kind: str, exc: BaseException | None,
        results: dict[EvalJob, Any], failures: dict[EvalJob, JobFailure],
        total: int, start: float,
        progress: ProgressCallback | None, on_error: str,
    ) -> None:
        """Register a job's terminal failure; raise in raise-mode."""
        attempts = (
            state.crash_attempts if kind == "poisoned" else state.attempts
        )
        failure = JobFailure(
            job=state.job, kind=kind, attempts=attempts,
            tracebacks=tuple(state.tracebacks),
        )
        with self._lock:
            self.stats.failed += 1
            if kind == "poisoned":
                self.stats.quarantined += 1
        failures[state.job] = failure
        action = "quarantined" if kind == "poisoned" else "gave-up"
        self._emit(
            action, state.job, len(results) + len(failures), total,
            start, detail=failure.as_detail(), progress=progress,
        )
        if on_error == "raise":
            raise exc if exc is not None else PoisonedJob(failure)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=pin_worker
                )
            return self._pool

    def _respawn_pool(self) -> ProcessPoolExecutor | None:
        """(Re)build the pool; ``None`` means degrade to inline."""
        try:
            return self._ensure_pool()
        except Exception:
            logger.warning(
                "worker pool could not be rebuilt; degrading to inline "
                "in-process execution", exc_info=True,
            )
            return None

    def _discard_pool(
        self, pool: ProcessPoolExecutor, terminate: bool = False
    ) -> None:
        """Drop a broken/poisoned pool so the next use starts fresh.

        ``terminate`` additionally SIGTERMs the worker processes —
        required when reclaiming a hung worker, whose running future
        can never be cancelled.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        processes = list(
            (getattr(pool, "_processes", None) or {}).values()
        )
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if terminate:
            for proc in processes:
                try:
                    proc.terminate()
                except Exception:
                    pass

    def warm_up(self) -> None:
        """Start the worker pool now instead of on the first batch.

        Idempotent; a no-op for ``workers=1``.  Under the default
        ``fork`` start method every worker process is forked at the
        pool's first submission, and forked children inherit all open
        file descriptors — including accepted client sockets, whose
        inherited duplicates would keep a connection from ever
        delivering EOF after the parent closes it.  The serving
        frontend therefore warms the pool *before* it opens its
        listening socket.
        """
        if self.workers > 1:
            self._ensure_pool().submit(_warm_up_probe).result()

    def _ship(self, url: str, jobs: list[EvalJob]) -> Future:
        """Send one peer its share on a thread of its own; the future
        resolves to the peer's result entries by job id."""
        future: Future = Future()

        def call() -> None:
            try:
                future.set_result(self.fleet.peer(url).execute(jobs))
            except BaseException as exc:  # noqa: BLE001 — see result()
                future.set_exception(exc)

        threading.Thread(
            target=call, name=f"repro-fleet-{url}", daemon=True
        ).start()
        return future

    def _execute(
        self, pending: list[_JobState], results: dict[EvalJob, Any],
        failures: dict[EvalJob, JobFailure], total: int, start: float,
        land: Land, progress: ProgressCallback | None, on_error: str,
    ) -> None:
        """The dispatch loop: drive every pending job until it lands
        or fails for good.

        Fleet peers (if any) take their rendezvous share first, one
        batch per peer on a thread of its own.  The rest queue in
        ``ready`` for the local executor: the worker pool when
        ``workers > 1`` (a window of ``workers`` futures, per-job
        deadlines, crash cohorts), else — or once the pool cannot be
        (re)built — the inline executor (window 1, runs in this
        thread, no deadlines).  Every future is collected here, so
        every unit lands, retries and fails on this thread:

        * a failed attempt is charged and retried per the engine's
          :class:`RetryPolicy`, after its backoff;
        * a worker crash (``BrokenProcessPool``) tears the pool down
          and re-dispatches the local in-flight cohort through the
          ``isolation`` queue, one job alone in the pool at a time, so
          a repeat crash indicts exactly one job;
        * a hung job is reclaimed by terminating the pool; the other
          local jobs in flight are re-dispatched without penalty;
        * a peer share lands each verified entry with its ``peer``;
          every other job of the share joins ``ready`` without penalty
          (one ``peer_failures`` per share).

        Pool events see only local futures: a peer share is never
        cancelled, requeued or charged by them.  On abort (raise
        mode, or a progress callback that raises) local futures are
        cancelled and awaited; peer shares still out are abandoned,
        and :meth:`run` releases their units empty.
        """
        policy = self.retry_policy
        ready: deque[_JobState] = deque()
        isolation: deque[_JobState] = deque()
        inflight: dict[Future, _JobState] = {}  # local attempts
        shares: dict[Future, tuple[str, list[_JobState]]] = {}
        executor: Any = None  # the pool or _INLINE, built when needed

        def emit(action: str, state: _JobState, detail: Any = None) -> None:
            self._emit(
                action, state.job, len(results) + len(failures), total,
                start, detail=detail, progress=progress,
            )

        def start_job(state: _JobState, detail: Any = None) -> None:
            if not state.started:
                state.started = True
                emit("started", state, detail)

        def retrying(
            state: _JobState, delay: float, reason: str,
            peer: str | None = None,
        ) -> None:
            detail = {
                "attempt": state.attempts,
                "max_attempts": policy.max_attempts,
                "delay_s": delay,
                "reason": reason,
            }
            if peer is None:
                self._note_retry()
            else:  # a penalty-free requeue, counted in peer_failures
                detail["peer"] = peer
            emit("retrying", state, detail)

        def fail(state: _JobState, kind: str, exc: Exception | None) -> None:
            self._record_permanent(
                state, kind, exc, results, failures, total, start,
                progress, on_error,
            )

        def handle_error(
            state: _JobState, exc: Exception, reason: str | None = None,
            trace: str | None = None,
        ) -> None:
            state.attempts += 1
            state.crash_attempts = 0
            state.tracebacks.append(trace or self._format_exception(exc))
            if not policy.should_retry(exc, state.attempts):
                kind = "timeout" if isinstance(exc, JobTimeout) else "error"
                fail(state, kind, exc)
                return
            delay = policy.delay_s(state.job, state.attempts)
            state.not_before = time.monotonic() + delay
            retrying(state, delay, reason or f"{type(exc).__name__}: {exc}")
            ready.append(state)

        def dispatch(state: _JobState) -> None:
            start_job(state)
            pooled = executor is not _INLINE
            future = executor.submit(
                run_job_attempt, state.job, state.dispatches + 1,
                in_worker=pooled, forward_batch=self.forward_batch,
            )
            state.dispatches += 1
            state.deadline = (
                time.monotonic() + self.job_timeout_s
                if pooled and self.job_timeout_s is not None else None
            )
            inflight[future] = state

        def drop_local() -> list[_JobState]:
            """Cancel every local attempt in flight; return its jobs."""
            states = list(inflight.values())
            for future in inflight:
                future.cancel()
            inflight.clear()
            for state in states:
                state.deadline = None
            return states

        def discard_pool(terminate: bool = False) -> None:
            nonlocal executor
            self._discard_pool(executor, terminate=terminate)
            executor = None

        def collect(future: Future, state: _JobState) -> bool:
            """Fold one finished local attempt in; True if the pool
            crashed under it."""
            try:
                payload = future.result()
            except BrokenProcessPool:
                return True
            except Exception as exc:
                handle_error(state, exc)
                return False
            self._note_executed(state.job)
            land(state.job, payload, None)
            return False

        def crash(cohort: list[_JobState]) -> None:
            # A worker crash kills the whole pool: every local attempt
            # still in flight died with it and joins the cohort.
            self._note_pool_crash()
            cohort += drop_local()
            discard_pool()
            if len(cohort) > 1:
                # The culprit is unknown, so nobody is charged;
                # re-dispatch one at a time so a repeat crash indicts
                # exactly one job.
                for state in cohort:
                    retrying(state, 0.0, "worker-lost")
                    isolation.append(state)
                return
            state, = cohort  # a singleton: attribution is exact
            state.crash_attempts += 1
            state.tracebacks.append(
                "worker crashed (BrokenProcessPool) on "
                f"dispatch {state.dispatches}"
            )
            if state.crash_attempts >= policy.max_crash_attempts:
                fail(state, "poisoned", None)
                return
            delay = policy.delay_s(state.job, state.crash_attempts)
            state.not_before = time.monotonic() + delay
            retrying(state, delay, "worker-crash")
            isolation.append(state)

        def reclaim_hung() -> None:
            now = time.monotonic()
            hung: list[_JobState] = []
            for future, state in list(inflight.items()):
                if state.deadline is None or now < state.deadline:
                    continue
                del inflight[future]
                state.deadline = None
                if future.cancel():
                    ready.appendleft(state)  # never started: no penalty
                else:
                    hung.append(state)
            if not hung:
                return
            # A running future cannot be cancelled: reclaim the workers
            # by terminating the pool, then re-dispatch the innocent
            # local jobs without penalty.
            with self._lock:
                self.stats.timeouts += len(hung)
            ready.extendleft(reversed(drop_local()))
            discard_pool(terminate=True)
            for state in hung:
                exc = JobTimeout(
                    f"{state.job.describe()} exceeded "
                    f"{self.job_timeout_s:g}s wall clock "
                    f"(attempt {state.attempts + 1})"
                )
                handle_error(
                    state, exc, reason="timeout", trace=f"JobTimeout: {exc}"
                )

        def requeue(url: str, states: list[_JobState], reason: str) -> None:
            # Penalty-free, like a crashed worker's cohort: the share
            # counts one peer failure, not one retry per job — the jobs
            # did nothing wrong.
            with self._lock:
                self.stats.peer_failures += 1
            for state in states:
                retrying(state, 0.0, reason, peer=url)
            ready.extend(states)

        def collect_share(future: Future) -> None:
            url, states = shares.pop(future)
            try:
                entries = future.result()
            except PeerUnreachable as exc:
                requeue(url, states, f"peer-unreachable: {exc}")
                return
            leftovers = []
            for state in states:
                payload = _peer_payload(entries.get(state.job.job_id))
                if payload is MISS:
                    leftovers.append(state)
                    continue
                with self._lock:
                    self.stats.remote_jobs += 1
                land(state.job, payload, url)
            if leftovers:
                requeue(url, leftovers, "peer-incomplete")

        local = pending
        if self.fleet is not None and self.fleet.peers:
            from repro.remote.dispatch import LOCAL_NODE

            by_job = {state.job: state for state in pending}
            placed = self.fleet.partition(by_job)
            local = [by_job[job] for job in placed.pop(LOCAL_NODE, [])]
            for url, jobs in placed.items():
                states = [by_job[job] for job in jobs]
                for state in states:
                    start_job(state, {"peer": url})
                shares[self._ship(url, jobs)] = (url, states)
        ready.extend(local)

        try:
            while ready or isolation or inflight or shares:
                if executor is None and (ready or isolation):
                    executor = (
                        self._respawn_pool() if self.workers > 1 else None
                    ) or _INLINE

                # -- dispatch -------------------------------------------
                now = time.monotonic()
                gate: float | None = None  # earliest backoff release
                try:
                    if isolation:
                        # Crash-cohort attribution: one suspect at a
                        # time, alone in the pool.
                        if not inflight:
                            state = isolation[0]
                            if state.not_before <= now:
                                dispatch(state)
                                isolation.popleft()
                            else:
                                gate = state.not_before
                    else:
                        window = 1 if executor is _INLINE else self.workers
                        due = [s for s in ready if s.not_before <= now]
                        for state in due:
                            if len(inflight) >= window:
                                break
                            dispatch(state)
                            ready.remove(state)
                        gate = min(
                            (s.not_before for s in ready
                             if s.not_before > now),
                            default=None,
                        )
                except BrokenProcessPool:
                    # The pool broke while idle (a worker died between
                    # batches): recycle it and re-dispatch the local
                    # jobs in flight without penalty.
                    self._note_pool_crash()
                    ready.extendleft(reversed(drop_local()))
                    discard_pool()
                    continue

                # -- wait -----------------------------------------------
                wakes = [
                    s.deadline for s in inflight.values()
                    if s.deadline is not None
                ]
                if gate is not None:
                    wakes.append(gate)
                timeout = (
                    max(0.0, min(wakes) - time.monotonic()) if wakes
                    else None
                )
                if not inflight and not shares:
                    time.sleep(timeout or 0.0)  # a backoff to wait out
                    continue
                done, _ = wait(
                    [*inflight, *shares], timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )

                # -- collect, in dispatch order -------------------------
                crashed: list[_JobState] = []
                for future in [f for f in inflight if f in done]:
                    state = inflight.pop(future)
                    state.deadline = None
                    if collect(future, state):
                        crashed.append(state)
                for future in [f for f in shares if f in done]:
                    collect_share(future)
                if crashed:
                    crash(crashed)
                else:
                    reclaim_hung()
        except BaseException:
            # Quiesce the local executor before propagating: no orphan
            # attempt keeps the persistent pool busy behind the
            # caller's back.
            for future in inflight:
                future.cancel()
            wait(list(inflight))
            raise

    # -- public API --------------------------------------------------

    def run(
        self,
        jobs: Iterable[EvalJob],
        progress: ProgressCallback | None = None,
        *,
        on_error: str = "raise",
    ) -> Mapping[EvalJob, Any]:
        """Execute a job batch; return payloads keyed by job.

        Duplicate jobs (equal keys) are computed once; the returned
        mapping resolves *any* submitted job, duplicate or not, since
        jobs hash by key.

        ``progress`` is a batch-local callback that sees only *this*
        call's events (the constructor's engine-wide callback and any
        :meth:`subscribe` observers still see them too).  Concurrent
        ``run`` calls from different threads are safe and share the
        worker pool and cache; a batch-local callback that raises
        aborts its own batch — pending pool futures are cancelled and
        awaited — without touching the others, which is how the async
        serving layer implements cancellation.

        Concurrent calls that share a cache unit (a job, or a sample
        of a split cell) execute it once.  A batch first *claims*, in
        one step, an entry in the engine-wide in-flight table for
        every unit it may execute, or *joins* the entry of the live
        batch that already holds it; it looks up and executes only
        what it claimed.  A batch executes
        everything it claimed before it waits on what it joined, so
        two batches that share units in any order cannot deadlock.  A
        joined unit lands with a ``cache-hit`` event of tier
        ``inflight`` (counted in ``stats.joined``), never with
        ``completed``.  The owner publishes each unit it executed —
        cache put, then release to its waiters — the moment it lands;
        if it ends without a result (a permanent failure, a raise-mode
        abort, a cancellation), it releases the unit empty, and a
        waiter looks it up again and, if it must, executes it itself
        under its own retry budget: one batch's failure is never
        passed on to another.  The table is per engine: two processes
        sharing a disk cache still both execute a unit they need at
        the same time.

        ``on_error`` selects the failure mode once a job's retry
        budget (see ``retry_policy``) is exhausted: ``"raise"``
        (default) propagates the final exception — or
        :class:`~repro.engine.faults.PoisonedJob` for a quarantined
        job — after quiescing the batch, exactly like the pre-retry
        engine; ``"collect"`` records a structured
        :class:`~repro.engine.faults.JobFailure` *as the job's value
        in the returned mapping* and keeps going, so one bad job
        costs one result, not the batch.  Worker-crash recovery and
        timeouts apply in both modes.

        An ``eval`` cell of several samples that misses the cache is
        a fold of per-sample jobs
        (:class:`repro.eval.eval_shards.CellFolds`): only its missing
        samples execute, every sample is cached on its own, each
        landed sample streams an ``eval-shard-done`` event, and the
        folded cell is cached under its own key.  In collect mode a
        cell with failed samples maps to a ``shards-failed``
        :class:`JobFailure`.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f'on_error must be "raise" or "collect", '
                f"got {on_error!r}"
            )
        # Lazy: the eval layer imports the engine layer.
        from repro.eval.eval_shards import CellFolds, cell_samples

        start = time.perf_counter()
        submitted = list(jobs)
        unique: dict[EvalJob, None] = {}
        for job in submitted:
            unique.setdefault(job, None)
        ordered = list(unique)

        with self._lock:
            self.stats.jobs_submitted += len(submitted)
            self.stats.jobs_unique += len(ordered)
            self.stats.jobs_deduped += len(submitted) - len(ordered)

        if getattr(self.cache, "remote", None) is not None:
            # One batched manifest round-trip resolves the remote
            # existence of every cell and sample up front, so per-job
            # lookups either fetch or skip the network.
            self.cache.prefetch(
                unit for job in ordered
                for unit in (job, *cell_samples(job))
            )

        results: dict[EvalJob, Any] = {}
        failures: dict[EvalJob, JobFailure] = {}
        hits: list[tuple[EvalJob, str | None]] = []
        pending: list[EvalJob] = []
        folds = CellFolds(self.forward_batch)
        classified: set[EvalJob] = set()
        owned: dict[EvalJob, _Flight] = {}
        joined: dict[EvalJob, _Flight] = {}

        def hit(job: EvalJob) -> bool:
            classified.add(job)
            payload, tier = self.cache.lookup(job)
            if payload is MISS:
                return False
            with self._lock:
                self.stats.cache_hits += 1
            results[job] = payload
            hits.append((job, tier))
            return True

        def release(unit: EvalJob, payload: Any = MISS) -> None:
            flight = owned.pop(unit, None)
            if flight is None:
                return  # not this batch's to release
            flight.payload = payload
            with self._lock:
                del self._inflight[unit]
            flight.done.set()

        def release_all() -> None:
            for unit in list(owned):
                release(unit)

        def claim(units: Iterable[EvalJob]) -> None:
            # One step under the lock, so that of two batches needing
            # the same units the first to get here owns them all and
            # the other only waits: ownership is not split between
            # them unless their units differ.
            with self._lock:
                for unit in units:
                    flight = self._inflight.get(unit)
                    if flight is None:
                        self._inflight[unit] = owned[unit] = _Flight()
                    else:
                        joined[unit] = flight

        def take(unit: EvalJob) -> bool:
            """True if this batch must execute ``unit``: it claimed it
            and the unit missed the cache."""
            classified.add(unit)
            if unit not in owned:
                return False  # joined
            # The lookup follows the claim: an owner puts a unit before
            # it releases it, so a unit released before the claim is
            # found here.
            if hit(unit):
                release(unit, results[unit])
                return False
            return True

        def classify(job: EvalJob) -> None:
            if not cell_samples(job):  # runs whole: a unit itself
                if take(job):
                    pending.append(job)
                return
            if hit(job):
                return
            samples = folds.split(job)
            mine = [s for s in samples if s not in classified and take(s)]
            for unit in folds.chunks(job, mine):
                # A chunk equal to an earlier submitted job that was
                # cached lands with the hits instead.
                if unit not in results:
                    classified.add(unit)
                    pending.append(unit)

        def publish(
            job: EvalJob, payload: Any, action: str, completed: int,
            detail: Any = None,
        ) -> None:
            # Every landed unit (executed, cached or joined): cache the
            # samples a chunk carries, hand the unit to the batches
            # that joined it, then stream it.
            records = folds.records(job, payload)
            for sample, record in records:
                if sample != job:  # split out of a chunk
                    self.cache.put(sample, record)
            release(job, payload)
            for sample, record in records:
                release(sample, record)
            self._emit(
                action, job, completed, total, start, detail=detail,
                progress=progress,
            )
            for sample, details in folds.land(records):
                for shard in details:
                    self._emit(
                        "eval-shard-done", sample, completed, total,
                        start, detail=shard, progress=progress,
                    )

        def land(job: EvalJob, payload: Any, peer: str | None) -> None:
            # The one publish point of an executed unit (the dispatch
            # loop calls it for every executor); a peer already
            # published its result remotely.
            results[job] = payload
            if folds.cacheable(job):
                self.cache.put(job, payload, publish=peer is None)
            publish(
                job, payload, "completed", len(results) + len(failures),
                detail=None if peer is None else {"peer": peer},
            )

        def execute(units: list[EvalJob]) -> None:
            if units:
                self._execute(
                    [_JobState(job=unit) for unit in units], results,
                    failures, total, start, land, progress, on_error,
                )

        try:
            claim(dict.fromkeys(
                unit for job in ordered
                for unit in cell_samples(job) or (job,)
            ))
            for job in ordered:
                if job not in classified:  # else an earlier cell's unit
                    classify(job)
            # The samples of cells served whole by the cache are not
            # needed after all.
            for unit in [u for u in owned if u not in classified]:
                release(unit)
            for unit in [u for u in joined if u not in classified]:
                del joined[unit]
            # Splitting changes the batch's unit count, so the total is
            # only known now; cache-hit events follow classification.
            total = len(hits) + len(pending) + len(joined)
            for done, (job, tier) in enumerate(hits, start=1):
                publish(
                    job, results[job], "cache-hit", done,
                    detail={"tier": tier},
                )
            execute(pending)
        finally:
            release_all()  # whatever did not land: failed or aborted

        # Only now, holding nothing, wait on the units other batches
        # are executing.  One released empty is claimed again (or
        # joined again, or found in the cache) and executed here.
        while joined:
            waits = list(joined.items())
            joined.clear()
            hits.clear()
            again = []
            for unit, flight in waits:
                flight.done.wait()
                if flight.payload is MISS:
                    again.append(unit)
                    continue
                with self._lock:
                    self.stats.joined += 1
                results[unit] = flight.payload
                publish(
                    unit, flight.payload, "cache-hit",
                    len(results) + len(failures),
                    detail={"tier": "inflight"},
                )
            try:
                claim(again)
                mine = [unit for unit in again if take(unit)]
                for job, tier in hits:
                    publish(
                        job, results[job], "cache-hit",
                        len(results) + len(failures),
                        detail={"tier": tier},
                    )
                execute(mine)
            finally:
                release_all()

        for cell, outcome in folds.fold(results, failures):
            if isinstance(outcome, JobFailure):
                # Collect mode only: raise mode never reaches the fold.
                failures[cell] = outcome
                self._emit(
                    "gave-up", cell,
                    min(len(results) + len(failures), total), total,
                    start, detail=outcome.as_detail(),
                    progress=progress,
                )
                continue
            self.cache.put(cell, outcome)
            results[cell] = outcome

        if failures:
            results.update(failures)

        with self._lock:
            self.stats.wall_s += time.perf_counter() - start
        return results
