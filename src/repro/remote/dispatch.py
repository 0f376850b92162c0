"""Fleet job dispatch: rendezvous placement and the peer wire client.

A fleet is N ``repro serve`` processes plus the coordinating engine.
Placement is rendezvous (highest-random-weight) hashing on the job's
content address over the node set — every coordinator with the same
``--peers`` list computes the same owner for the same job, so repeat
sweeps land each job on the host whose disk cache already holds it,
without any shared placement state.  The local engine is itself a node
(:data:`LOCAL_NODE`), so the coordinator always takes a share instead
of idling while its peers work.

:class:`PeerClient` ships a batch to a peer's ``POST /jobs`` endpoint
(pickled :func:`~repro.remote.protocol.encode_jobs` envelope in,
per-job ``("ok", digest, payload_bytes)`` / ``("failed", detail)``
entries out) and raises :class:`~repro.engine.faults.PeerUnreachable`
on any transport-, status-, or decode-level trouble — the scheduler
then requeues the batch for local execution without penalty, exactly
like a crashed worker's cohort.  A peer that keeps failing is marked
*down* and sits out a cooldown (the :class:`~repro.remote.client.
Endpoint` core) so one dead host costs one timeout per batch, not per
job.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.engine.faults import PeerUnreachable
from repro.engine.jobs import EvalJob
from repro.remote import protocol
from repro.remote.client import Endpoint

LOCAL_NODE = "local"
"""The coordinator's own name in the rendezvous node set."""

EXECUTE_TIMEOUT = 600.0
"""Seconds for a shipped batch to come back (jobs do real work)."""


def rendezvous_owner(job_id: str, nodes: Sequence[str]) -> str:
    """The node owning ``job_id`` under rendezvous hashing.

    Deterministic in the *set* of nodes (order-insensitive, ties
    broken by node name), and minimally disruptive: removing a node
    reassigns only the jobs it owned.
    """
    if not nodes:
        raise ValueError("rendezvous over an empty node set")
    return max(
        sorted(nodes),
        key=lambda node: hashlib.sha256(
            f"{node}\x00{job_id}".encode("utf-8")
        ).digest(),
    )


class PeerClient(Endpoint):
    """Blocking client for one ``repro serve`` peer's job endpoint."""

    unreachable = PeerUnreachable
    DOWN_AFTER_FAILURES = 2

    def __init__(
        self, base_url: str, execute_timeout: float = EXECUTE_TIMEOUT,
    ) -> None:
        super().__init__(base_url)
        self.execute_timeout = execute_timeout

    def __repr__(self) -> str:
        return f"PeerClient({self.base_url!r})"

    def execute(self, jobs: Sequence[EvalJob]) -> dict[str, tuple]:
        """Ship a batch; return per-job result entries by job id.

        Raises :class:`PeerUnreachable` on transport failure, non-200
        status, or an undecodable envelope (and notes the failure for
        the down heuristic).  Entries are
        ``("ok", digest, payload_bytes)`` or ``("failed", detail)`` —
        payload digests are *not* verified here; the scheduler checks
        them before accepting a payload.
        """
        status, _, data = self.request(
            "POST", "/jobs", protocol.encode_jobs(jobs),
            {"Content-Type": "application/octet-stream"},
            self.execute_timeout,
        )
        if status != 200:
            self.note_failure()
            raise PeerUnreachable(
                f"POST {self.base_url}/jobs answered {status}: "
                f"{data[:200]!r}"
            )
        try:
            entries = protocol.decode_job_results(data)
        except ValueError as exc:
            self.note_failure()
            raise PeerUnreachable(
                f"POST {self.base_url}/jobs returned junk: {exc}"
            ) from exc
        self.note_success()
        return entries


class FleetDispatcher:
    """Rendezvous placement over a peer set (plus the local engine)."""

    def __init__(self, peer_urls: Sequence[str]) -> None:
        seen: dict[str, None] = {}
        for url in peer_urls:
            seen.setdefault(url.rstrip("/"), None)
        self.peers = [PeerClient(url) for url in seen]
        self._by_url = {peer.base_url: peer for peer in self.peers}

    @property
    def peer_urls(self) -> list[str]:
        return [peer.base_url for peer in self.peers]

    def peer(self, url: str) -> PeerClient:
        return self._by_url[url]

    def partition(
        self, jobs: Iterable[EvalJob]
    ) -> dict[str, list[EvalJob]]:
        """Split a batch by owning node.

        Keys are peer base URLs plus :data:`LOCAL_NODE`; a peer
        currently marked down is excluded from the node set for this
        batch, so its share degrades to local execution up front
        instead of timing out first.
        """
        nodes = [LOCAL_NODE] + [
            peer.base_url for peer in self.peers if peer.available()
        ]
        shares: dict[str, list[EvalJob]] = {}
        for job in jobs:
            owner = (
                rendezvous_owner(job.job_id, nodes)
                if len(nodes) > 1 else LOCAL_NODE
            )
            shares.setdefault(owner, []).append(job)
        return shares
