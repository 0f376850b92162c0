"""Blocking HTTP clients of the fleet: the endpoint core and the cache
tier's client.

:class:`Endpoint` is what both fleet clients share: a checked base
URL, one-shot ``http.client`` requests (the servers close after every
response anyway), and a cooldown that marks a flaky server *down* so
a dead server costs one timeout — not one timeout per request.
:class:`~repro.remote.dispatch.PeerClient` ships job batches on it.

:class:`RemoteCacheClient` is what a :class:`~repro.engine.cache.
ResultCache` mounts as its third tier.  Every ``get`` verifies the
body's sha256 against the ``X-Repro-Sha256`` header before returning
it; a mismatch counts as a verification failure and reads as a miss.
Every ``put`` sends the digest so the server can refuse a corrupted
upload.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Iterable
from urllib.parse import urlsplit

from repro.remote import protocol

DEFAULT_TIMEOUT = 5.0
"""Per-request socket timeout of the cache client (seconds)."""


class RemoteCacheError(Exception):
    """Transport-level failure talking to the cache server."""


class RemoteCacheVerificationError(RemoteCacheError):
    """A fetched object failed sha256 verification — never unpickled."""


class Endpoint:
    """One ``http://host:port`` server and its failure bookkeeping.

    ``DOWN_AFTER_FAILURES`` consecutive failures mark the server down
    for ``DOWN_COOLDOWN`` seconds.  :meth:`request` notes transport
    failures itself; callers note what else counts as a failure or a
    success for them.  Subclasses set the constants and the
    ``unreachable`` exception :meth:`request` raises.  Only a
    malformed ``base_url`` raises at construction, where argparse
    validation wants it.
    """

    unreachable: type[Exception]
    DOWN_AFTER_FAILURES: int
    DOWN_COOLDOWN = 30.0

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"{type(self).__name__} URL must look like http://host:port, "
                f"got {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.host = parts.hostname
        self.port = parts.port or 80
        self._lock = threading.Lock()
        self._failures = 0
        self._down_until = 0.0

    def available(self) -> bool:
        """False while the server is sitting out a cooldown."""
        with self._lock:
            return time.monotonic() >= self._down_until

    def note_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._down_until = 0.0

    def note_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._failures >= self.DOWN_AFTER_FAILURES:
                self._down_until = time.monotonic() + self.DOWN_COOLDOWN
                self._failures = 0

    def request(
        self, method: str, path: str, body: bytes | None,
        headers: dict[str, str] | None, timeout: float,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request: ``(status, lower-cased headers, body)``.

        Raises ``unreachable`` on transport trouble, noted for the
        down heuristic.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = response.read()
            out_headers = {
                name.lower(): value
                for name, value in response.getheaders()
            }
            return response.status, out_headers, data
        except (OSError, http.client.HTTPException) as exc:
            self.note_failure()
            raise self.unreachable(
                f"{method} {self.base_url}{path}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()


class RemoteCacheClient(Endpoint):
    """Thread-safe client for one cache server.

    All methods are non-raising in the hot path: transport failures
    surface as ``None``/``False`` results and feed the down-marking
    heuristic, and any answer counts as a success.
    """

    unreachable = RemoteCacheError
    DOWN_AFTER_FAILURES = 3

    def __init__(
        self, base_url: str, timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        super().__init__(base_url)
        self.timeout = timeout

    def _call(
        self, method: str, path: str, body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes] | None:
        """One request, or ``None`` while down or on transport failure."""
        if not self.available():
            return None
        try:
            answer = self.request(method, path, body, headers, self.timeout)
        except RemoteCacheError:
            return None
        self.note_success()
        return answer

    def get(self, job_id: str) -> bytes | None:
        """Fetch and digest-verify an object.

        ``None`` on a miss or transport failure; raises
        :class:`RemoteCacheVerificationError` when the body's sha256
        does not match the server's claim — the bytes never reach a
        ``pickle.loads``.
        """
        answer = self._call("GET", f"/cache/{job_id}")
        if answer is None or answer[0] != 200:
            return None
        _, headers, data = answer
        claimed = headers.get(protocol.DIGEST_HEADER)
        actual = protocol.payload_digest(data)
        if claimed is not None and claimed != actual:
            raise RemoteCacheVerificationError(
                f"digest mismatch fetching {job_id}: body hashes to "
                f"{actual}, server claims {claimed}"
            )
        return data

    def put(self, job_id: str, data: bytes) -> bool:
        """Publish an object (digest attached); False on any failure."""
        answer = self._call(
            "PUT", f"/cache/{job_id}", body=data,
            headers={
                protocol.DIGEST_HEADER: protocol.payload_digest(data),
                "Content-Type": "application/octet-stream",
            },
        )
        return answer is not None and answer[0] == 200

    def manifest(self, job_ids: Iterable[str]) -> set[str] | None:
        """Batched existence check; ``None`` when the server can't
        answer (callers fall back to per-job GET attempts)."""
        ids = list(job_ids)
        if not ids:
            return set()
        answer = self._call(
            "POST", "/cache/manifest",
            body=json.dumps({"job_ids": ids}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        if answer is None or answer[0] != 200:
            return None
        try:
            present = json.loads(answer[2])["present"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return None
        return set(present)
