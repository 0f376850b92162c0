"""Async streaming layer over :class:`~repro.engine.scheduler.ExperimentEngine`.

The engine's progress callbacks are synchronous and fire on the thread
driving :meth:`ExperimentEngine.run`.  :class:`AsyncExperimentEngine`
bridges them onto an :mod:`asyncio` event loop: each launched run
executes the blocking schedule on a worker thread, and its events flow
through an :class:`asyncio.Queue` fed with
``loop.call_soon_threadsafe`` — with *real* backpressure, because the
producer side blocks on a bounded semaphore whose slots the async
consumer releases as it drains.  A slow consumer therefore throttles
the engine thread instead of buffering unboundedly.

Cancellation is clean: :meth:`AsyncRun.cancel` (or abandoning the
event stream) makes the next engine callback raise
:class:`RunCancelled` inside the engine thread, which the scheduler
turns into "cancel all pending pool futures, wait for them, re-raise"
— the worker processes are released, the shared engine stays usable
for other concurrent runs.

Many runs can share one engine (and its :class:`~repro.engine.cache.
ResultCache`): each run's events are scoped by the engine's
batch-local ``progress`` callback, so streams never cross.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, AsyncIterator

from repro.engine import registry
from repro.engine.faults import ExperimentFailure
from repro.engine.scheduler import ExperimentEngine, ProgressEvent

DEFAULT_QUEUE_SIZE = 256
"""Events buffered per run before backpressure throttles the engine."""


class RunCancelled(RuntimeError):
    """Raised inside a cancelled run's engine thread, and by
    :meth:`AsyncRun.result` when awaiting a cancelled run."""


class _Done:
    """Queue sentinel: the engine thread finished (result or error)."""


_DONE = _Done()


class AsyncRun:
    """One launched experiment schedule and its live event stream.

    Create through :meth:`AsyncExperimentEngine.launch`.  The run is
    already executing when the constructor returns; consume
    :meth:`events` to stream it and :meth:`result` to collect the
    assembled artifacts.

    The event stream has exactly one consumer — this handle.  Fanning
    one run out to many clients is the serving layer's job
    (:mod:`repro.serve.server` appends events to a per-run ring buffer
    that any number of subscribers replay).  Abandoning :meth:`events`
    before the terminal sentinel cancels the run so a blocked producer
    can never leak.
    """

    def __init__(
        self,
        engine: ExperimentEngine,
        names: list[str],
        params: dict[str, Any],
        queue_size: int = DEFAULT_QUEUE_SIZE,
        on_error: str = "raise",
    ) -> None:
        self.names = list(names)
        self.params = dict(params)
        self.on_error = on_error
        self._engine = engine
        self._loop = asyncio.get_running_loop()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._slots = threading.BoundedSemaphore(max(1, queue_size))
        self._cancel = threading.Event()
        self._consumed = False
        self._future = self._loop.run_in_executor(None, self._execute)
        # Runs on the loop once the engine thread finishes, so the
        # consumer wakes even when the run dies before emitting.
        self._future.add_done_callback(
            lambda _f: self._queue.put_nowait(_DONE)
        )

    # -- engine-thread side ------------------------------------------

    def _on_event(self, event: ProgressEvent) -> None:
        """Engine progress callback (runs on the engine thread)."""
        while not self._slots.acquire(timeout=0.1):
            if self._cancel.is_set():
                raise RunCancelled(f"run of {self.names} cancelled")
        if self._cancel.is_set():
            self._slots.release()
            raise RunCancelled(f"run of {self.names} cancelled")
        try:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, event)
        except RuntimeError:
            # The loop is gone (event-loop shutdown raced a live run,
            # e.g. a serve restart): abort the schedule like a
            # cancellation instead of leaking an unhandled exception
            # on the engine thread.
            self._slots.release()
            raise RunCancelled(
                f"run of {self.names} cancelled (event loop closed)"
            ) from None

    def _execute(self) -> registry.ExperimentResults:
        """Blocking body: one deduplicated schedule over all names."""
        if self._cancel.is_set():
            raise RunCancelled(f"run of {self.names} cancelled")
        return registry.run_experiments(
            self.names, self._engine, progress=self._on_event,
            on_error=self.on_error, **self.params,
        )

    # -- loop side ----------------------------------------------------

    def cancel(self) -> None:
        """Request cancellation (idempotent, takes effect at the next
        event): pending pool futures are cancelled and awaited, worker
        processes return to the shared pool."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    def done(self) -> bool:
        """Whether the engine thread has finished (any outcome)."""
        return self._future.done()

    @property
    def state(self) -> str:
        """The run's lifecycle state: ``"running"`` while the engine
        thread works, then a terminal one of ``"cancelled"``,
        ``"failed"``, ``"partial"`` (an ``on_error="collect"`` run
        finished but some experiments carry
        :class:`~repro.engine.faults.ExperimentFailure`), or
        ``"done"``."""
        if not self._future.done():
            return "running"
        if self._future.cancelled():
            return "cancelled"
        exc = self._future.exception()
        if exc is not None:
            return "cancelled" if isinstance(exc, RunCancelled) else "failed"
        results = self._future.result()
        if any(
            isinstance(value, ExperimentFailure)
            for value in results.values()
        ):
            return "partial"
        return "done"

    async def events(self) -> AsyncIterator[ProgressEvent]:
        """Stream this run's :class:`ProgressEvent`s in engine order.

        Ends when the run finishes (then await :meth:`result` for the
        outcome).  Closing the iterator early cancels the run.
        """
        if self._consumed:
            raise RuntimeError(
                "AsyncRun.events() is single-consumer; fan out through "
                "the serving layer's ring buffer instead"
            )
        self._consumed = True
        try:
            while True:
                item = await self._queue.get()
                if item is _DONE:
                    break
                self._slots.release()
                yield item
        finally:
            if not self.done():
                self.cancel()
                # Unblock a producer waiting on a full queue.
                while True:
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is not _DONE:
                        self._slots.release()

    async def result(self) -> registry.ExperimentResults:
        """Await the run; return assembled results keyed by name, with
        their report texts in ``reports``.

        Raises :class:`RunCancelled` for cancelled runs and re-raises
        whatever the schedule raised for failed ones.
        """
        return await asyncio.shield(self._future)


class AsyncExperimentEngine:
    """Async facade running registry specs on a shared blocking engine.

    Args:
        engine: The underlying engine; a fresh serial one by default.
            Concurrent runs share its worker pool and result cache.
        queue_size: Per-run event buffer; a consumer further than this
            many events behind blocks the run's engine thread
            (backpressure) rather than growing the queue.
    """

    def __init__(
        self,
        engine: ExperimentEngine | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
    ) -> None:
        self.engine = engine if engine is not None else ExperimentEngine()
        self.queue_size = queue_size

    def launch(
        self, names: list[str], on_error: str = "raise", **params: Any
    ) -> AsyncRun:
        """Start one run (requires a running event loop).

        ``params`` go to every plan factory (``num_samples``, ``seed``,
        ``scenario``, ...).  Unknown experiment names raise ``KeyError``
        here, before anything is scheduled.  ``on_error="collect"``
        selects partial-results mode (see
        :meth:`ExperimentEngine.run`); the run then terminates in
        state ``"partial"`` instead of ``"failed"`` when jobs were
        permanently lost.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f'on_error must be "raise" or "collect", got {on_error!r}'
            )
        for name in names:
            registry.get_spec(name)  # validate eagerly
        return AsyncRun(
            self.engine, names, params, queue_size=self.queue_size,
            on_error=on_error,
        )

    async def run(
        self, names: list[str], **params: Any
    ) -> AsyncIterator[ProgressEvent]:
        """Launch and stream one run's events; raise if the run failed.

        The one-liner entry point the examples use::

            async for event in async_engine.run(["fig11"], num_samples=2):
                ...

        For the assembled results, use :meth:`launch` and the
        :class:`AsyncRun` handle instead.
        """
        run = self.launch(names, **params)
        async for event in run.events():
            yield event
        await run.result()  # surface failures to the caller

    async def warm_up(self) -> None:
        """Fork the engine's worker processes now (see
        :meth:`ExperimentEngine.warm_up`).  A serving frontend calls
        this before binding its listening socket, so forked workers
        can never inherit client connection descriptors."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.engine.warm_up
        )

    async def close(self) -> None:
        """Release the underlying engine's worker pool."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.engine.close
        )
