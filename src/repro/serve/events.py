"""Canonical JSON codec for streamed experiment events.

Every frontend — the SSE/JSON-lines HTTP server in
:mod:`repro.serve.server`, the CLI's ``--progress-jsonl`` emitter, CI
smoke clients — speaks this one schema, so an offline run and a served
run of the same spec produce byte-comparable event streams.

Wire format
-----------

Each event is one JSON object with at least:

``schema``
    Integer schema version (:data:`EVENT_SCHEMA_VERSION`).  Consumers
    must reject events from a *newer* schema than they understand
    (:func:`parse_event` does).
``event``
    ``"progress"`` for engine :class:`~repro.engine.scheduler.
    ProgressEvent` wrappers, one of the run-lifecycle names
    (``run-started`` and the :data:`TERMINAL_EVENTS`:
    ``run-done`` / ``run-partial`` / ``run-failed`` /
    ``run-cancelled``), or ``"gap"`` (:func:`encode_gap`) when a
    replay hole could not be bridged.
``seq``
    The engine's monotonic sequence number for progress events; ``0``
    for lifecycle events (their ordering comes from the per-run log
    ``id`` the server assigns at append time).

Progress events add ``action`` (``cache-hit`` / ``started`` /
``completed`` / ``eval-shard-done`` plus the fault-tolerance
lifecycle ``retrying`` / ``gave-up`` / ``quarantined``), the encoded
``job`` (kind, model, dataset, method, sample count, seed, config
digest, quantized flag, extras, content address, human label), the
batch counters ``completed`` / ``total``, ``elapsed_s``, and the
action-specific ``detail`` payload (for ``cache-hit``, the serving
``tier``: ``memory`` / ``disk`` / ``remote``, or ``inflight`` when
the unit was taken from another live run that executed it — such a
unit never gets a ``completed`` event in this run; for
``eval-shard-done``, a landed sample's cell's running
accuracy/sparsity; for the fault actions, the retry counters or the
structured :class:`~repro.engine.faults.JobFailure` record).  All
payloads are pre-flattened to JSON-native types (tuples to lists,
NumPy scalars to Python numbers) so ``json.dumps`` round-trips them
losslessly.

Schema history: v1 had neither the fault-action progress events nor
``run-partial``; v2 added both.  Later, still within v2, ``run-done``
and ``run-partial`` gained the *optional* ``cache`` field (the run's
cache activity split by serving tier: ``memory`` / ``disk`` /
``remote`` hits plus totals, and ``joined``, the run's ``inflight``
hits, when non-zero); the ``inflight`` tier is likewise a new value of
an existing field.  Purely additive fields and values never bump the
schema, and consumers must tolerate their absence.  :func:`parse_event`
accepts any schema up to its own version, so v1 streams stored by
older builds still replay.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

from repro.engine.jobs import EvalJob
from repro.engine.scheduler import ProgressEvent

EVENT_SCHEMA_VERSION = 2
"""Bumped whenever the event wire format changes incompatibly."""

PROGRESS_ACTIONS = (
    "cache-hit", "started", "completed", "eval-shard-done",
    "retrying", "gave-up", "quarantined",
)
"""Every ``action`` the engine scheduler emits."""

TERMINAL_EVENTS = ("run-done", "run-partial", "run-failed", "run-cancelled")
"""Event names that end a run's stream; nothing follows them."""


def jsonify(value: Any) -> Any:
    """Flatten a payload to JSON-native types, losslessly round-trippable.

    Tuples become lists, NumPy scalars become Python numbers, mappings
    recurse; anything else unsupported falls back to ``repr`` so an
    exotic detail payload degrades to a string instead of killing the
    stream.
    """
    if isinstance(value, Mapping):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def encode_job(job: EvalJob) -> dict[str, Any]:
    """Encode a job's full identity (never its opaque payload).

    The config digest is read from the job's cached key, so a stream
    of events for one job hashes its config once, not once per event.
    """
    return {
        "kind": job.kind,
        "model": job.model,
        "dataset": job.dataset,
        "method": job.method,
        "num_samples": job.num_samples,
        "seed": job.seed,
        "quantized": job.quantized,
        "config_digest": job.key[6],
        "extra": jsonify(job.extra),
        "job_id": job.job_id,
        "label": job.describe(),
    }


def encode_progress(event: ProgressEvent) -> dict[str, Any]:
    """Encode one engine :class:`ProgressEvent` as a wire event."""
    return {
        "schema": EVENT_SCHEMA_VERSION,
        "event": "progress",
        "action": event.action,
        "seq": event.seq,
        "completed": event.completed,
        "total": event.total,
        "elapsed_s": float(event.elapsed_s),
        "job": encode_job(event.job),
        "detail": jsonify(event.detail),
    }


def _lifecycle(name: str, run_id: str, **fields: Any) -> dict[str, Any]:
    payload = {
        "schema": EVENT_SCHEMA_VERSION,
        "event": name,
        "seq": 0,
        "run_id": run_id,
    }
    payload.update(fields)
    return payload


def encode_run_started(
    run_id: str, experiments: list[str], params: Mapping[str, Any]
) -> dict[str, Any]:
    """First event of every run: what was launched, with which params."""
    return _lifecycle(
        "run-started", run_id,
        experiments=list(experiments), params=jsonify(dict(params)),
    )


def report_digest(text: str) -> str:
    """Content digest of a formatted report, carried by ``run-done``.

    Lets a streaming client verify — without fetching the artifact —
    that the served result is byte-identical to an offline run's.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_run_done(
    run_id: str, reports: Mapping[str, str], elapsed_s: float,
    cache_tiers: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Terminal success event; carries per-report content digests.

    ``cache_tiers`` (optional, additive) is the run's cache activity
    split by serving tier — the server passes the per-run delta of
    :meth:`repro.engine.cache.CacheStats.tiers` plus hit/miss totals.
    """
    event = _lifecycle(
        "run-done", run_id,
        elapsed_s=float(elapsed_s),
        reports={
            name: {"sha256": report_digest(text), "chars": len(text)}
            for name, text in reports.items()
        },
    )
    if cache_tiers is not None:
        event["cache"] = jsonify(dict(cache_tiers))
    return event


def encode_run_partial(
    run_id: str,
    reports: Mapping[str, str],
    failures: Mapping[str, Any],
    elapsed_s: float,
    cache_tiers: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Terminal partial-success event (``on_error="collect"`` runs).

    Carries the same per-report content digests as ``run-done`` —
    failed experiments' reports are their deterministic failure
    summaries — plus ``failures``: per failed experiment, the list of
    structured :meth:`~repro.engine.faults.JobFailure.as_detail`
    records (job key, kind, attempts, tracebacks).  ``cache_tiers``
    is the same optional additive field as on ``run-done``.
    """
    event = _lifecycle(
        "run-partial", run_id,
        elapsed_s=float(elapsed_s),
        reports={
            name: {"sha256": report_digest(text), "chars": len(text)}
            for name, text in reports.items()
        },
        failures=jsonify(dict(failures)),
    )
    if cache_tiers is not None:
        event["cache"] = jsonify(dict(cache_tiers))
    return event


def encode_run_failed(
    run_id: str, error: str, elapsed_s: float
) -> dict[str, Any]:
    """Terminal failure event."""
    return _lifecycle(
        "run-failed", run_id, error=error, elapsed_s=float(elapsed_s)
    )


def encode_run_cancelled(run_id: str, elapsed_s: float) -> dict[str, Any]:
    """Terminal cancellation event."""
    return _lifecycle("run-cancelled", run_id, elapsed_s=float(elapsed_s))


def is_terminal(event: Mapping[str, Any]) -> bool:
    """Whether an encoded event ends its run's stream."""
    return event.get("event") in TERMINAL_EVENTS


def to_json(event: Mapping[str, Any]) -> str:
    """Canonical single-line JSON: sorted keys, no whitespace."""
    return json.dumps(
        event, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def parse_event(line: str | bytes) -> dict[str, Any]:
    """Decode one wire event, enforcing the schema version.

    Raises:
        ValueError: If the payload is not an object, lacks a schema
            tag, or comes from a newer schema than this codec.
    """
    event = json.loads(line)
    if not isinstance(event, dict):
        raise ValueError(f"event must be a JSON object, got {type(event)}")
    schema = event.get("schema")
    if not isinstance(schema, int):
        raise ValueError("event missing integer 'schema' field")
    if schema > EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"event schema {schema} is newer than supported "
            f"{EVENT_SCHEMA_VERSION}"
        )
    return event


def encode_gap(dropped: int, next_id: int, first_seq: int) -> dict[str, Any]:
    """Marker for an unbridgeable hole in a replayed stream.

    Emitted only when the ring evicted events *and* no run store can
    supply them.  ``id`` is the id of the last dropped event (so a
    client resuming from the gap's id continues exactly at the first
    retained event) and ``seq`` is the engine sequence number of the
    first *retained* event — a client tracking its cursor by ``seq``
    moves forward past the hole instead of regressing to 0.
    """
    return {
        "schema": EVENT_SCHEMA_VERSION,
        "event": "gap",
        "seq": first_seq,
        "dropped": dropped,
        "id": next_id,
    }


# -- SSE framing ------------------------------------------------------

SSE_RETRY_PREAMBLE = "retry: 2000\n\n"
"""First bytes of every SSE stream (live or replayed): the standard
reconnect-delay hint, written before any frame."""


def frame(event: Mapping[str, Any], jsonl: bool) -> bytes:
    """Frame one encoded event exactly as the live server streams it.

    Shared by the HTTP frontend and ``repro replay`` so a replayed
    stream is byte-identical to the recorded live one by construction.
    """
    if jsonl:
        return (to_json(event) + "\n").encode("utf-8")
    return format_sse(event).encode("utf-8")


def format_sse(event: Mapping[str, Any]) -> str:
    """Frame one encoded event as a Server-Sent-Events message.

    The SSE ``id`` is the per-run log id (``event["id"]``) when the
    server has assigned one, so browsers reconnect with a correct
    ``Last-Event-ID`` automatically; the ``event`` field is the
    codec's event name, and ``data`` is the canonical JSON line.
    """
    lines = []
    if "id" in event:
        lines.append(f"id: {event['id']}")
    lines.append(f"event: {event['event']}")
    lines.append(f"data: {to_json(event)}")
    return "\n".join(lines) + "\n\n"


def parse_sse(text: str) -> list[dict[str, Any]]:
    """Parse an SSE stream back into its decoded ``data`` events.

    Comment lines (``:``) and bare ``retry:`` hints are skipped; each
    blank-line-terminated message must carry a ``data:`` line holding
    one codec event.  Used by tests and the CI smoke client — a real
    browser's ``EventSource`` does the equivalent.
    """
    events = []
    for block in text.split("\n\n"):
        data_lines = [
            line[5:].lstrip() if line.startswith("data:") else None
            for line in block.split("\n")
        ]
        payload = [line for line in data_lines if line is not None]
        if payload:
            events.append(parse_event("\n".join(payload)))
    return events
