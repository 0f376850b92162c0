"""Content-addressed result cache: memory, disk, and remote tiers.

Every payload is stored under its job's content address
(:attr:`repro.engine.jobs.EvalJob.job_id`), which hashes the full job
key plus a cache-format version.  A hit therefore *is* the result —
there is no invalidation logic, only keys that were never written.

The memory tier makes any evaluation compute at most once per process;
the disk tier (``cache_dir``) extends that across CLI invocations.
Disk writes are atomic (temp file + rename) so a crashed run can never
leave a truncated entry that poisons a later one.

The optional **remote tier** (``remote``, a :class:`repro.remote.
client.RemoteCacheClient` or anything duck-typing its
``get``/``put``/``manifest``) extends the namespace across *machines*:
a lookup that misses memory and disk fetches the job's canonical
pickle bytes from a ``repro cache-server``, verifies their sha256, and
back-fills both local tiers; stores publish the same bytes
*write-behind* on a daemon thread, so ``put`` latency never waits on
the network (:meth:`ResultCache.flush_remote` drains the queue).  A
failed verification degrades to a miss — corrupt remote bytes are
never unpickled.  :meth:`ResultCache.prefetch` batches one
``POST /cache/manifest`` existence check for a whole schedule so
known-absent jobs skip the per-job round-trip entirely.

The disk tier can be LRU size-capped (``max_disk_bytes``, the CLI's
``--cache-max-mb``): every disk hit refreshes the entry's mtime as a
``last_used`` stamp, and writes that push the tier over the cap prune
least-recently-used entries until it fits again (down to
:attr:`ResultCache.PRUNE_HEADROOM` of the cap, riding on an O(1)
running byte total).  The memory tier is never pruned.  A concurrent
pruner (another process sharing the directory) may delete an entry
mid-hit — between the read and the ``last_used`` touch; the lookup
then counts as a miss rather than resurrecting an evicted entry.

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


class ResultCache:
    """Tiered (memory → disk → remote) content-addressed result cache.

    Args:
        cache_dir: Directory for the disk tier; ``None`` keeps the
            cache memory-only.  Created on first write.
        enabled: When ``False`` every lookup misses and nothing is
            stored (the CLI's ``--no-cache``).
        max_disk_bytes: Size cap for the disk tier.  Writes that push
            the tier over the cap evict least-recently-*used* entries
            (disk hits refresh an entry's mtime) until it fits again;
            ``None`` leaves the tier unbounded.
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
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.enabled = enabled
        if max_disk_bytes is not None and max_disk_bytes < 0:
            raise ValueError("max_disk_bytes must be >= 0")
        self.max_disk_bytes = max_disk_bytes
        self.remote = remote
        self.stats = CacheStats()
        self._memory: dict[str, Any] = {}
        self._disk_usage: int | None = None  # running total; lazy init
        self._lock = threading.RLock()
        # Remote-tier state: manifest knowledge (True = present, False
        # = known absent → skip the GET) and the write-behind queue of
        # (job_id, canonical_bytes) publishes, drained by a lazily
        # started daemon thread.
        self._remote_known: dict[str, bool] = {}
        self._publish_queue: queue.Queue | None = None
        self._publish_thread: threading.Thread | None = None

    def _path(self, job: EvalJob) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{job.job_id}.pkl"

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
        if self.cache_dir is not None:
            path = self._path(job)
            if path.exists():
                try:
                    with path.open("rb") as fh:
                        payload = pickle.load(fh)
                except (OSError, pickle.UnpicklingError, EOFError,
                        AttributeError, ImportError):
                    # Unreadable entry: drop it and recompute.
                    self._note_removed(path)
                    path.unlink(missing_ok=True)
                else:
                    try:
                        os.utime(path)  # refresh the last_used stamp
                    except FileNotFoundError:
                        # A concurrent pruner (another process, or the
                        # LRU eviction of a sibling cache on the same
                        # directory) deleted the entry between the
                        # read and the touch.  Honor the eviction:
                        # treat the lookup as a miss instead of
                        # resurrecting a deliberately dropped entry,
                        # and rescan the tier lazily — the running
                        # byte total no longer matches the directory.
                        self._disk_usage = None
                        self.stats._note(job.kind, hit=False)
                        return MISS, None
                    except OSError:
                        pass
                    self._memory[job.job_id] = payload
                    self.stats._note(job.kind, hit=True)
                    self.stats.disk_hits += 1
                    return payload, "disk"
        payload = self._remote_lookup(job)
        if payload is not MISS:
            self.stats._note(job.kind, hit=True)
            self.stats.remote_hits += 1
            return payload, "remote"
        self.stats._note(job.kind, hit=False)
        return MISS, None

    def _remote_lookup(self, job: EvalJob) -> Any:
        """Fetch from the remote tier and back-fill the local ones.

        Corrupt bytes (failed sha256 verification or an unloadable
        pickle) degrade to a miss; a miss or transport failure marks
        the id known-absent so repeat lookups skip the round-trip
        (:meth:`prefetch` pre-marks whole schedules in one request).
        """
        if self.remote is None:
            return MISS
        if self._remote_known.get(job.job_id) is False:
            return MISS
        try:
            data = self.remote.get(job.job_id)
        except Exception as exc:
            from repro.remote.client import RemoteCacheVerificationError

            if isinstance(exc, RemoteCacheVerificationError):
                self.stats.remote_verify_failures += 1
            else:
                self.stats.remote_errors += 1
            data = None
        if data is None:
            self._remote_known[job.job_id] = False
            return MISS
        try:
            payload = pickle.loads(data)
        except Exception:
            self.stats.remote_errors += 1
            self._remote_known[job.job_id] = False
            return MISS
        self._remote_known.pop(job.job_id, None)
        self._memory[job.job_id] = payload
        if self.cache_dir is not None:
            # Back-fill the disk tier with the exact received bytes so
            # all three tiers hold identical canonical entries.
            self._write_disk(job, data)
        return payload

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
        if self.cache_dir is not None or (
            publish and self.remote is not None
        ):
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        if self.cache_dir is not None:
            self._write_disk(job, data)
        if publish and self.remote is not None:
            self._remote_known.pop(job.job_id, None)
            self._enqueue_publish(job.job_id, data)

    def _write_disk(self, job: EvalJob, data: bytes) -> None:
        """Atomically write one entry's canonical bytes to disk."""
        assert self.cache_dir is not None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, suffix=".tmp"
        )
        path = self._path(job)
        old_size = self._entry_size(path)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        if self._disk_usage is not None:
            self._disk_usage += self._entry_size(path) - old_size
        self.prune_disk()

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
                    self.cache_dir is not None
                    and self._path(job).exists()
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

    @staticmethod
    def _entry_size(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _note_removed(self, path: Path) -> None:
        """Keep the running total current when an entry is dropped."""
        if self._disk_usage is not None:
            self._disk_usage = max(
                0, self._disk_usage - self._entry_size(path)
            )

    def disk_usage_bytes(self) -> int:
        """Total size of the disk tier's entries (running total)."""
        if self.cache_dir is None:
            return 0
        if self._disk_usage is None:
            if not self.cache_dir.is_dir():
                return 0
            self._disk_usage = sum(
                size for _, _, size in self._disk_entries()
            )
        return self._disk_usage

    def _disk_entries(self) -> list[tuple[Path, float, int]]:
        """Disk entries as ``(path, last_used_mtime, size)`` tuples."""
        assert self.cache_dir is not None
        entries = []
        for path in self.cache_dir.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((path, stat.st_mtime, stat.st_size))
        return entries

    PRUNE_HEADROOM = 0.9
    """Prune down to this fraction of the cap, so a saturated cache
    absorbs a batch of writes before the next directory scan."""

    def prune_disk(self) -> int:
        """Evict LRU disk entries until the tier fits ``max_disk_bytes``.

        Entries are ranked by mtime, which doubles as the ``last_used``
        stamp (refreshed on every disk hit).  The memory tier is
        untouched — an evicted entry already loaded this session stays
        hot.  Returns the number of entries evicted.

        The under-cap check rides on a running byte total, so puts are
        O(1) until the cap is hit; only an actual prune scans the
        directory (and evicts down to :attr:`PRUNE_HEADROOM` of the
        cap, not just below it, to keep scans rare at saturation).
        """
        if (
            self.max_disk_bytes is None
            or self.cache_dir is None
            or not self.cache_dir.is_dir()
        ):
            return 0
        with self._lock:
            return self._prune_disk_locked()

    def _prune_disk_locked(self) -> int:
        if self.disk_usage_bytes() <= self.max_disk_bytes:
            return 0
        entries = self._disk_entries()
        total = sum(size for _, _, size in entries)
        target = int(self.max_disk_bytes * self.PRUNE_HEADROOM)
        evicted = 0
        for path, _, size in sorted(entries, key=lambda e: e[1]):
            if total <= target:
                break
            path.unlink(missing_ok=True)
            total -= size
            evicted += 1
        self._disk_usage = total
        self.stats.disk_evictions += evicted
        return evicted

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._memory)
