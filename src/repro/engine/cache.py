"""Content-addressed result cache: memory, disk, and remote tiers.

Every payload is stored under its job's content address
(:attr:`repro.engine.jobs.EvalJob.job_id`), which hashes the full job
key plus a cache-format version.  A hit therefore *is* the result —
there is no invalidation logic, only keys that were never written.

The memory tier makes any evaluation compute at most once per process;
the disk tier (``cache_dir``) extends that across CLI invocations.

Bytes at rest live in a :class:`ByteStore`: one ``{job_id}.pkl`` file
per entry, written atomically (temp file + rename) so a crashed run
can never leave a truncated entry that poisons a later one, and
optionally LRU size-capped.  It is the namespace's one storage path:
the disk tier is a store, and ``repro cache-server``
(:mod:`repro.remote.cache_server`) serves one over HTTP, so a
``--cache-dir`` *is* a cache-server directory and vice versa.

The optional **remote tier** (``remote``, a :class:`repro.remote.
client.RemoteCacheClient` or anything duck-typing its
``get``/``put``/``manifest``) extends the namespace across *machines*:
a lookup that misses memory and disk fetches the job's canonical
pickle bytes from a ``repro cache-server``, verifies their sha256, and
back-fills both local tiers; stores publish the same bytes
*write-behind* on a daemon thread, so ``put`` latency never waits on
the network (:meth:`ResultCache.flush_remote` drains the queue).  A
failed verification degrades to a miss — corrupt remote bytes are
never unpickled.  Disk and remote bytes are unpickled at one point,
where an unloadable entry is a miss too.  :meth:`ResultCache.prefetch`
batches one ``POST /cache/manifest`` existence check for a whole
schedule so known-absent jobs skip the per-job round-trip entirely.

The disk tier can be LRU size-capped (``max_disk_bytes``, the CLI's
``--cache-max-mb``); the policy is :class:`ByteStore`'s.  The memory
tier is never pruned.

:class:`CacheStats` counts every lookup per job *kind* as well as in
total (``hits_by_kind`` / ``misses_by_kind``), so traffic of one kind
is separable — e.g. a grown ``--samples`` re-run reports its
prefix-reuse hits as ``eval`` hits, apart from other kinds such as
``fig2b``.

All public operations take an internal lock, so one cache may back
several engine threads at once (the async serving layer runs
concurrent batches against a single :class:`ResultCache`).
"""

from __future__ import annotations

import os
import pickle
import queue
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.engine.counters import Counters
from repro.engine.jobs import EvalJob

MISS = object()
"""Sentinel returned by :meth:`ResultCache.get` on a miss (payloads may
legitimately be falsy)."""


@dataclass
class CacheStats(Counters):
    """Hit/miss counters, cumulative over the cache's lifetime.

    Besides the totals, lookups are counted per job *kind*
    (``hits_by_kind`` / ``misses_by_kind``): a re-run with a larger
    ``--samples`` reports its prefix-reuse hits as ``eval`` hits,
    apart from other kinds such as ``fig2b``.
    """

    hits: int = 0
    misses: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    remote_hits: int = 0
    stores: int = 0
    remote_stores: int = 0
    remote_errors: int = 0
    remote_verify_failures: int = 0
    disk_evictions: int = 0
    hits_by_kind: dict[str, int] = field(default_factory=dict)
    misses_by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when idle)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def _note(self, kind: str, hit: bool) -> None:
        by_kind = self.hits_by_kind if hit else self.misses_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def tiers(self) -> dict[str, int]:
        """Hits by serving tier, in lookup order."""
        return {
            "memory": self.memory_hits,
            "disk": self.disk_hits,
            "remote": self.remote_hits,
        }

    def as_dict(self) -> dict[str, Any]:
        return {**self._values(), "hit_rate": self.hit_rate}


class ByteStore:
    """A directory of byte entries keyed by job id, LRU size-capped.

    Each entry is one ``{job_id}.pkl`` file, written atomically (temp
    file + rename).  A read refreshes the entry's mtime as its
    ``last_used`` stamp.  A write that pushes the store over
    ``max_bytes`` evicts least-recently-used entries down to
    :attr:`PRUNE_HEADROOM` of the cap.  The under-cap check rides on
    a running byte total (computed lazily, then kept current under the
    store's own lock), so writes never scan the directory until the
    cap is hit.

    A concurrent pruner (another process, or a sibling store on the
    same directory) may delete an entry between the read and the
    ``last_used`` touch.  That read is a miss — the eviction stands,
    instead of the entry being resurrected — and the byte total, which
    no longer matches the directory, is rescanned on next use.

    Args:
        root: The directory; created on first write.
        max_bytes: Size cap; ``None`` leaves the store unbounded.
    """

    PRUNE_HEADROOM = 0.9
    """Prune down to this fraction of the cap, so a saturated store
    absorbs a batch of writes before the next directory scan."""

    def __init__(
        self, root: str | os.PathLike, max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.evictions = 0
        self._usage: int | None = None  # running total; lazy init
        self._lock = threading.Lock()

    def path(self, job_id: str) -> Path:
        return self.root / f"{job_id}.pkl"

    def get(self, job_id: str) -> bytes | None:
        """The entry's bytes, or ``None`` when absent or just evicted."""
        path = self.path(job_id)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            os.utime(path)  # refresh the last_used stamp
        except FileNotFoundError:
            with self._lock:
                self._usage = None
            return None
        except OSError:
            pass
        return data

    def head(self, job_id: str) -> int | None:
        """The entry's size, or ``None`` when absent."""
        try:
            return self.path(job_id).stat().st_size
        except OSError:
            return None

    def put(self, job_id: str, data: bytes) -> int:
        """Atomically store ``data``; returns the entries evicted."""
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            with self._lock:
                counted = self._usage is not None
                old_size = (self.head(job_id) or 0) if counted else 0
                os.replace(tmp, self.path(job_id))
                if counted:
                    self._usage += len(data) - old_size
        except BaseException:
            os.unlink(tmp)
            raise
        return self.prune()

    def discard(self, job_id: str) -> None:
        """Remove an entry, if present."""
        with self._lock:
            size = self.head(job_id)
            self.path(job_id).unlink(missing_ok=True)
            if self._usage is not None and size is not None:
                self._usage = max(0, self._usage - size)

    def _entries(self) -> list[tuple[Path, float, int]]:
        """Entries as ``(path, last_used_mtime, size)`` tuples."""
        if not self.root.is_dir():
            return []
        entries = []
        for path in self.root.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    def count(self) -> int:
        """Number of entries (scans the directory)."""
        return len(self._entries())

    def usage(self) -> int:
        """Total size of the entries (running total)."""
        with self._lock:
            if self._usage is None:
                self._usage = sum(size for _, _, size in self._entries())
            return self._usage

    def prune(self) -> int:
        """Evict LRU entries until the store fits ``max_bytes``.

        Entries are ranked by mtime, the ``last_used`` stamp.  Returns
        the number of entries evicted.
        """
        if self.max_bytes is None or self.usage() <= self.max_bytes:
            return 0
        with self._lock:
            entries = self._entries()
            total = sum(size for _, _, size in entries)
            target = int(self.max_bytes * self.PRUNE_HEADROOM)
            evicted = 0
            for path, _, size in sorted(entries, key=lambda e: e[1]):
                if total <= target:
                    break
                path.unlink(missing_ok=True)
                total -= size
                evicted += 1
            self._usage = total
            self.evictions += evicted
            return evicted


class ResultCache:
    """Tiered (memory → disk → remote) content-addressed result cache.

    Args:
        cache_dir: Directory for the disk tier (a :class:`ByteStore`,
            kept as :attr:`disk`); ``None`` keeps the cache
            memory-only.  Created on first write.
        enabled: When ``False`` every lookup misses and nothing is
            stored (the CLI's ``--no-cache``).
        max_disk_bytes: Size cap for the disk tier (the store's
            ``max_bytes``: LRU eviction, disk hits refresh an entry's
            ``last_used``); ``None`` leaves the tier unbounded.
        remote: Optional remote tier client (a :class:`repro.remote.
            client.RemoteCacheClient`, or anything with its
            ``get``/``put``/``manifest`` surface).  Lookups that miss
            both local tiers fetch from it (sha256-verified, then
            back-filled locally); stores publish to it asynchronously
            (write-behind) unless ``put(..., publish=False)``.
    """

    def __init__(
        self, cache_dir: str | os.PathLike | None = None,
        enabled: bool = True,
        max_disk_bytes: int | None = None,
        remote: Any | None = None,
    ) -> None:
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        self.disk = (
            ByteStore(cache_dir, max_disk_bytes)
            if cache_dir is not None else None
        )
        self.enabled = enabled
        self.remote = remote
        self.stats = CacheStats()
        self._memory: dict[str, Any] = {}
        self._lock = threading.RLock()
        # Remote-tier state: manifest knowledge (True = present, False
        # = known absent → skip the GET) and the write-behind queue of
        # (job_id, canonical_bytes) publishes, drained by a lazily
        # started daemon thread.
        self._remote_known: dict[str, bool] = {}
        self._publish_queue: queue.Queue | None = None
        self._publish_thread: threading.Thread | None = None

    def get(self, job: EvalJob) -> Any:
        """Return the cached payload for ``job`` or :data:`MISS`."""
        return self.lookup(job)[0]

    def lookup(self, job: EvalJob) -> tuple[Any, str | None]:
        """Like :meth:`get`, plus the serving tier.

        Returns ``(payload, tier)`` with ``tier`` one of ``"memory"``,
        ``"disk"``, ``"remote"``, or ``None`` on a miss.
        """
        with self._lock:
            return self._lookup(job)

    def _lookup(self, job: EvalJob) -> tuple[Any, str | None]:
        if not self.enabled:
            self.stats._note(job.kind, hit=False)
            return MISS, None
        payload = self._memory.get(job.job_id, MISS)
        if payload is not MISS:
            self.stats._note(job.kind, hit=True)
            self.stats.memory_hits += 1
            return payload, "memory"
        if self.disk is not None:
            data = self.disk.get(job.job_id)
            payload = MISS if data is None else self._loads(data)
            if payload is not MISS:
                self._memory[job.job_id] = payload
                self.stats._note(job.kind, hit=True)
                self.stats.disk_hits += 1
                return payload, "disk"
            if data is not None:
                # Unloadable entry: drop it and recompute.
                self.disk.discard(job.job_id)
        data = self._remote_get(job.job_id)
        payload = MISS if data is None else self._loads(data)
        if payload is not MISS:
            self._memory[job.job_id] = payload
            self.stats._note(job.kind, hit=True)
            self.stats.remote_hits += 1
            self._remote_known.pop(job.job_id, None)
            if self.disk is not None:
                # Back-fill the disk tier with the exact received bytes
                # so all three tiers hold identical canonical entries.
                self.stats.disk_evictions += self.disk.put(
                    job.job_id, data
                )
            return payload, "remote"
        if data is not None:
            # Unloadable remote bytes: remember the id absent.
            self.stats.remote_errors += 1
            self._remote_known[job.job_id] = False
        self.stats._note(job.kind, hit=False)
        return MISS, None

    @staticmethod
    def _loads(data: bytes) -> Any:
        """Unpickle one tier's bytes; unloadable bytes are a miss."""
        try:
            return pickle.loads(data)
        except Exception:
            return MISS

    def _remote_get(self, job_id: str) -> bytes | None:
        """Fetch verified bytes from the remote tier, or ``None``.

        A failed sha256 verification is a miss; a miss or transport
        failure marks the id known-absent so repeat lookups skip the
        round-trip (:meth:`prefetch` pre-marks whole schedules in one
        request).
        """
        if self.remote is None or self._remote_known.get(job_id) is False:
            return None
        try:
            data = self.remote.get(job_id)
        except Exception as exc:
            from repro.remote.client import RemoteCacheVerificationError

            if isinstance(exc, RemoteCacheVerificationError):
                self.stats.remote_verify_failures += 1
            else:
                self.stats.remote_errors += 1
            data = None
        if data is None:
            self._remote_known[job_id] = False
        return data

    def put(
        self, job: EvalJob, payload: Any, publish: bool = True
    ) -> None:
        """Store a payload in every tier.

        The remote publish is *write-behind*: the canonical bytes are
        queued and shipped by a daemon thread, so the caller never
        waits on the network (:meth:`flush_remote` drains the queue).
        ``publish=False`` keeps a store local — used for payloads that
        already live remotely (remote-tier hits, fleet-executed jobs
        whose owner published them).
        """
        with self._lock:
            self._put(job, payload, publish)

    def _put(self, job: EvalJob, payload: Any, publish: bool) -> None:
        if not self.enabled:
            return
        self._memory[job.job_id] = payload
        self.stats.stores += 1
        data: bytes | None = None
        if self.disk is not None or (
            publish and self.remote is not None
        ):
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        if self.disk is not None:
            self.stats.disk_evictions += self.disk.put(job.job_id, data)
        if publish and self.remote is not None:
            self._remote_known.pop(job.job_id, None)
            self._enqueue_publish(job.job_id, data)

    # -- remote tier --------------------------------------------------

    def _enqueue_publish(self, job_id: str, data: bytes) -> None:
        if self._publish_queue is None:
            self._publish_queue = queue.Queue()
            self._publish_thread = threading.Thread(
                target=self._publish_worker,
                name="repro-cache-publish", daemon=True,
            )
            self._publish_thread.start()
        self._publish_queue.put((job_id, data))

    def _publish_worker(self) -> None:
        assert self._publish_queue is not None
        while True:
            job_id, data = self._publish_queue.get()
            try:
                try:
                    ok = bool(self.remote.put(job_id, data))
                except Exception:
                    ok = False
                with self._lock:
                    if ok:
                        self.stats.remote_stores += 1
                    else:
                        self.stats.remote_errors += 1
            finally:
                self._publish_queue.task_done()

    def flush_remote(self) -> None:
        """Block until every queued write-behind publish has been
        attempted (idempotent; a no-op without a remote tier)."""
        if self._publish_queue is not None:
            self._publish_queue.join()

    def prefetch(self, jobs: Iterable[EvalJob]) -> int:
        """Resolve remote existence for a schedule in one round-trip.

        Jobs already in a local tier are skipped; the rest go into one
        batched ``POST /cache/manifest`` whose answer pre-marks each id
        present or absent, so the per-job lookups either fetch or skip
        the network entirely.  Returns the number of ids marked
        present.  Quietly a no-op when the remote tier is absent,
        disabled, or unreachable (per-job lookups then probe as
        usual).
        """
        if self.remote is None or not self.enabled:
            return 0
        wanted: dict[str, None] = {}
        with self._lock:
            for job in jobs:
                if job.job_id in self._memory:
                    continue
                if job.job_id in self._remote_known:
                    continue
                if (
                    self.disk is not None
                    and self.disk.head(job.job_id) is not None
                ):
                    continue
                wanted.setdefault(job.job_id, None)
        if not wanted:
            return 0
        try:
            present = self.remote.manifest(list(wanted))
        except Exception:
            present = None
        if present is None:
            return 0
        with self._lock:
            for job_id in wanted:
                self._remote_known[job_id] = job_id in present
        return len(present & set(wanted))

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)
