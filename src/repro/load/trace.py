"""Traffic traces: recorded or generated request arrival schedules.

A trace is an ordered list of :class:`LoadRequest` records — what to
POST to a ``repro serve`` endpoint and when (``at_s``, seconds from
the start of the replay, used by the open-loop driver).  Traces
round-trip through JSON-lines files, so a recorded production
schedule and a generated Poisson/burst schedule replay through the
same harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.engine.registry import RunSpec
from repro.utils.rng import rng_for


class TraceError(ValueError):
    """A trace file or record is malformed."""


@dataclass(frozen=True)
class LoadRequest:
    """One request of a traffic trace: a run spec plus its arrival
    time and event-stream fan-out."""

    at_s: float = 0.0
    experiments: tuple[str, ...] = ("fig13",)
    samples: int | None = 1
    seed: int = 0
    scenario: str | None = None
    subscribers: int = 1
    on_error: str = "raise"

    def spec(self) -> dict:
        """The ``POST /runs`` body this request submits."""
        spec: dict = {"experiments": list(self.experiments),
                      "seed": self.seed}
        if self.samples is not None:
            spec["samples"] = self.samples
        if self.scenario is not None:
            spec["scenario"] = self.scenario
        if self.on_error != "raise":
            spec["on_error"] = self.on_error
        return spec

    def as_record(self) -> dict:
        return {"at_s": self.at_s, "subscribers": self.subscribers,
                **self.spec()}

    @classmethod
    def from_record(cls, record: object, where: str = "trace")\
            -> "LoadRequest":
        """Parse a trace record: ``at_s`` and ``subscribers``, with
        everything else validated as a run spec
        (:meth:`~repro.engine.registry.RunSpec.from_record`)."""
        if not isinstance(record, dict):
            raise TraceError(f"{where}: record must be a JSON object, "
                             f"got {type(record).__name__}")
        spec = dict(record)
        at_s = spec.pop("at_s", 0.0)
        if not isinstance(at_s, (int, float)) or isinstance(at_s, bool) \
                or at_s < 0:
            raise TraceError(f"{where}: at_s must be a number >= 0, "
                             f"got {at_s!r}")
        subscribers = spec.pop("subscribers", 1)
        if not isinstance(subscribers, int) or isinstance(subscribers, bool) \
                or subscribers < 1:
            raise TraceError(f"{where}: subscribers must be a positive "
                             f"integer, got {subscribers!r}")
        spec.setdefault("experiments", ["fig13"])
        spec.setdefault("samples", 1)
        try:
            run = RunSpec.from_record(spec)
        except ValueError as exc:
            raise TraceError(f"{where}: {exc}") from None
        return cls(
            at_s=float(at_s),
            experiments=run.experiments,
            samples=run.samples,
            seed=run.seed,
            scenario=run.scenario,
            subscribers=subscribers,
            on_error=run.on_error,
        )


def read_trace(path: str | Path) -> list[LoadRequest]:
    """Load a JSON-lines trace file, sorted by arrival time.

    Raises :class:`TraceError` on unreadable files, malformed JSON,
    bad records, and empty traces.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from None
    requests = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}:{lineno}: invalid JSON: {exc}") \
                from None
        requests.append(
            LoadRequest.from_record(record, where=f"{path}:{lineno}")
        )
    if not requests:
        raise TraceError(f"{path}: empty trace")
    return sorted(requests, key=lambda request: request.at_s)


def write_trace(path: str | Path, requests: list[LoadRequest]) -> None:
    """Write a trace as JSON lines (the format :func:`read_trace` reads)."""
    body = "".join(
        json.dumps(request.as_record(), sort_keys=True) + "\n"
        for request in requests
    )
    Path(path).write_text(body, encoding="utf-8")


def poisson_trace(
    rate: float,
    duration_s: float,
    seed: int = 0,
    template: LoadRequest = LoadRequest(),
    burst_size: int = 1,
) -> list[LoadRequest]:
    """Generate open-loop arrivals: Poisson bursts of ``burst_size``.

    Burst epochs arrive as a Poisson process of ``rate / burst_size``
    epochs per second (so the *request* rate averages ``rate``); each
    epoch fires ``burst_size`` back-to-back copies of ``template``.
    ``burst_size=1`` is plain Poisson traffic.  Deterministic in
    ``(rate, duration_s, seed, burst_size)``.
    """
    if rate <= 0 or duration_s <= 0 or burst_size < 1:
        raise ValueError("poisson_trace: need rate > 0, duration_s > 0, "
                         "burst_size >= 1")
    rng = rng_for(seed, "load", "arrivals")
    epoch_rate = rate / burst_size
    out: list[LoadRequest] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / epoch_rate))
        if t >= duration_s:
            break
        out.extend(replace(template, at_s=t) for _ in range(burst_size))
    return out
