"""Single-flight LRU memo of assembled experiment reports.

An experiment's report is a pure function of its plan (the experiment
name and its parameters) and of the results of the plan's jobs, and
every job result is a pure function of its content-addressed
``job_id``.  So ``(name, canonical params, job ids)`` identifies the
assembled result *and* its rendered text: a repeat run whose jobs all
hit the cache can skip ``assemble`` (trace simulation included) and
the formatter.  :func:`repro.engine.registry.run_experiments` keys
each experiment of a run into the :class:`ReportMemo` its
:class:`~repro.engine.scheduler.ExperimentEngine` owns.

Memoized results are shared between runs, so they are read-only:
nothing downstream of ``run_experiments`` may mutate one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

REPORT_MEMO_MAX_ENTRIES = 32
"""LRU bound on memoized reports (per engine).  ``all`` declares 15
experiments, so 32 holds two full ``all`` runs, or a serving
process's warmed specs plus its most recent cold ones.  An entry holds
one assembled result and its text: the 15 of ``all --samples 1``
pickle to 29 KB in all.  A report assembled again after eviction is
bit-identical — eviction only costs time."""


@dataclass(frozen=True)
class Report:
    """One assembled experiment: its result object and its report text."""

    result: Any
    text: str


class _Flight:
    """One report a thread is assembling; others wait on ``done``.

    ``report`` stays ``None`` when the build raised, and a waiter then
    tries to build the report itself.
    """

    __slots__ = ("done", "report")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.report: Report | None = None


class ReportMemo:
    """Thread-safe LRU of :class:`Report` values with single-flight builds.

    :meth:`get` returns the memoized report of a key, or builds it.
    Concurrent callers of one missing key build it once: the first
    becomes the owner, the rest wait for its report.
    """

    def __init__(self, max_entries: int = REPORT_MEMO_MAX_ENTRIES) -> None:
        self.max_entries = max(1, max_entries)
        self._entries: OrderedDict[Hashable, Report] = OrderedDict()
        self._flights: dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], Report]) -> Report:
        """The report memoized under ``key``, built by ``build`` on a miss.

        ``build`` runs outside the memo's lock; an exception it raises
        propagates to its caller and memoizes nothing.
        """
        while True:
            with self._lock:
                report = self._entries.get(key)
                if report is not None:
                    self._entries.move_to_end(key)
                    return report
                flight = self._flights.get(key)
                owner = flight is None
                if owner:
                    flight = self._flights[key] = _Flight()
            if owner:
                break
            flight.done.wait()
            if flight.report is not None:
                return flight.report
        try:
            flight.report = build()
        finally:
            with self._lock:
                del self._flights[key]
                if flight.report is not None:
                    self._entries[key] = flight.report
                    while len(self._entries) > self.max_entries:
                        self._entries.popitem(last=False)
            flight.done.set()
        return flight.report
