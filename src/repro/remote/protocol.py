"""Wire format shared by the remote cache tier and fleet dispatch.

Bit-identity across the fleet holds *by construction*: a cached object
is exactly ``pickle.dumps(payload, HIGHEST_PROTOCOL)`` — the same
canonical bytes the disk cache tier writes — stored under the job's
content address and carried with its sha256 digest.  Every fetch
recomputes the digest over the received bytes and rejects a mismatch
before unpickling, so a corrupted or tampered entry degrades to a
cache miss instead of poisoning a result.

Job batches for the ``POST /jobs`` execute endpoint are pickled too
(:func:`encode_jobs` / :func:`decode_jobs`): a job's key holds
dataclasses (its :class:`~repro.config.FocusConfig`, kind-specific
``extra`` values) that have no JSON form, and the trust model matches
the process pool's — peers are our own processes on a trusted
network.  Per-job results come back as ``("ok", digest,
payload_bytes)`` or ``("failed", detail)`` entries keyed by job id
(:func:`encode_job_results`), digests verified by the coordinator
before a payload is accepted.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Iterable, Mapping

from repro.engine.jobs import EvalJob

PROTOCOL_VERSION = 5
"""Bumped whenever the pickled wire envelopes change shape, or a job
kind's meaning does (5: an ``eval`` job evaluates the span from its
``start`` extra, which a version-4 peer would ignore)."""

DIGEST_HEADER = "x-repro-sha256"
"""HTTP header carrying an object's payload digest on GET/PUT."""

JOB_ID_HEX_LENGTH = 32
"""Length of a job's content address (hex chars); the cache server
rejects other ids before touching storage."""


def encode_payload(payload: Any) -> bytes:
    """A payload's canonical bytes — identical to the disk tier's."""
    return pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload` (callers verify digests first)."""
    return pickle.loads(data)


def payload_digest(data: bytes) -> str:
    """The sha256 hex digest carried alongside every stored object."""
    return hashlib.sha256(data).hexdigest()


def valid_job_id(job_id: str) -> bool:
    """Whether a string is a well-formed cache object id."""
    return (
        len(job_id) == JOB_ID_HEX_LENGTH
        and all(c in "0123456789abcdef" for c in job_id)
    )


# -- job-batch envelopes (the /jobs execute endpoint) -----------------


def encode_jobs(jobs: Iterable[EvalJob]) -> bytes:
    """Envelope a job batch for ``POST /jobs``."""
    return pickle.dumps(
        (PROTOCOL_VERSION, list(jobs)), pickle.HIGHEST_PROTOCOL
    )


def decode_jobs(body: bytes) -> list[EvalJob]:
    """Decode a ``POST /jobs`` body; raises ``ValueError`` on junk."""
    try:
        version, jobs = pickle.loads(body)
    except Exception as exc:
        raise ValueError(f"undecodable job batch: {exc}") from exc
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"job batch speaks protocol {version}, "
            f"this peer speaks {PROTOCOL_VERSION}"
        )
    if not isinstance(jobs, list) or not all(
        isinstance(job, EvalJob) for job in jobs
    ):
        raise ValueError("job batch must be a list of EvalJob")
    return jobs


def encode_job_results(entries: Mapping[str, tuple]) -> bytes:
    """Envelope per-job outcomes, keyed by job id.

    Each entry is ``("ok", digest, payload_bytes)`` for an executed
    (or cache-served) job, or ``("failed", detail)`` carrying the
    structured :meth:`~repro.engine.faults.JobFailure.as_detail`
    record for a permanently failed one.
    """
    return pickle.dumps(
        (PROTOCOL_VERSION, dict(entries)), pickle.HIGHEST_PROTOCOL
    )


def decode_job_results(body: bytes) -> dict[str, tuple]:
    """Inverse of :func:`encode_job_results`."""
    try:
        version, entries = pickle.loads(body)
    except Exception as exc:
        raise ValueError(f"undecodable job results: {exc}") from exc
    if version != PROTOCOL_VERSION:
        raise ValueError(
            f"job results speak protocol {version}, "
            f"this client speaks {PROTOCOL_VERSION}"
        )
    if not isinstance(entries, dict):
        raise ValueError("job results must map job_id -> entry")
    return entries
