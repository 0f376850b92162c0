"""SQLite-backed durable run store: runs, events, reports.

The serving layer's per-run ring buffer (:class:`repro.serve.server.
RunLog`) dies with the process; :class:`RunStore` is the durable tier
underneath it.  The server *writes through* on every emitted event, so
the store always holds the complete, id-dense event log of every run
it ever saw — the backbone for ``repro replay``, ``repro runs``,
post-restart ``Last-Event-ID`` resume, dashboards, and regression
bisection over large run populations.

Schema (one row per codec concept — see :mod:`repro.serve.events`):

``runs``
    One row per launched run: id, wall-clock ``created_at``, the
    launched ``experiments``/``params`` (JSON), terminal ``status``
    (``running`` / ``done`` / ``partial`` / ``failed`` /
    ``cancelled``), ``error``, ``elapsed_s``, structured ``failures``
    (JSON: per failed experiment, the :meth:`repro.engine.faults.
    JobFailure.as_detail` records of its lost jobs; NULL unless the
    run ended ``partial``), and the event-codec ``event_schema`` the
    run was recorded under.
``events``
    The run's stamped wire events, keyed ``(run_id, id)`` with the
    per-run dense id the server assigned at append time.  The
    ``payload`` column holds the *canonical JSON line* —
    :func:`repro.serve.events.to_json` output, ``id`` included — so a
    replayed stream is byte-identical to the recorded live one by
    construction.  ``event`` (name) and ``seq`` are denormalized for
    indexed filtering without JSON parsing.
``reports``
    One row per formatted report of a finished run, carrying the
    report text plus its sha256 digest and length — the same digests
    the terminal ``run-done`` event streams.

Durability/concurrency: WAL journal with ``synchronous=NORMAL`` (no
per-commit fsync stall on the serving hot path; a power cut can lose
the tail milliseconds, never corrupt), autocommit writes, and
``check_same_thread=False`` behind an internal lock so the asyncio
serving thread and CLI readers share one connection safely.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.serve import events as codec

STORE_SCHEMA_VERSION = 2
"""Bumped when the *store* layout changes incompatibly (independent of
the event codec's :data:`repro.serve.events.EVENT_SCHEMA_VERSION`).
v1 → v2 added the ``runs.failures`` column (partial-results runs);
v1 databases are migrated in place on open."""

DEFAULT_STORE_PATH = "repro-runs.sqlite"
"""Default database file, shared by ``serve``/``replay``/``runs``."""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    created_at   REAL NOT NULL,
    experiments  TEXT NOT NULL,
    params       TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'running',
    error        TEXT,
    elapsed_s    REAL,
    failures     TEXT,
    event_schema INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    run_id  TEXT    NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    id      INTEGER NOT NULL,
    seq     INTEGER NOT NULL,
    event   TEXT    NOT NULL,
    payload TEXT    NOT NULL,
    PRIMARY KEY (run_id, id)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS reports (
    run_id TEXT    NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    name   TEXT    NOT NULL,
    sha256 TEXT    NOT NULL,
    chars  INTEGER NOT NULL,
    text   TEXT    NOT NULL,
    PRIMARY KEY (run_id, name)
);
CREATE INDEX IF NOT EXISTS runs_created_at ON runs (created_at);
"""


class StoreError(RuntimeError):
    """Raised for store-level misuse (unknown run, schema mismatch)."""


class RunStore:
    """Durable run/event/report store over one SQLite database.

    Safe for concurrent use from multiple threads of one process (an
    internal lock serializes the shared connection) and for concurrent
    *readers* in other processes (WAL mode); the serving frontend is
    the single writer.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False, isolation_level=None
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM store_meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES "
                    "('schema_version', ?)", (str(STORE_SCHEMA_VERSION),),
                )
            elif int(row["value"]) > STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"store {self.path} has schema "
                    f"{row['value']}, newer than supported "
                    f"{STORE_SCHEMA_VERSION}"
                )
            elif int(row["value"]) < STORE_SCHEMA_VERSION:
                self._migrate(int(row["value"]))

    def _migrate(self, from_version: int) -> None:
        """In-place, lock-held upgrade of an older store layout.

        v1 → v2: the ``runs`` table (created before ``CREATE TABLE IF
        NOT EXISTS`` knew the column) gains ``failures``.
        """
        if from_version < 2:
            columns = {
                row["name"]
                for row in self._conn.execute("PRAGMA table_info(runs)")
            }
            if "failures" not in columns:
                self._conn.execute(
                    "ALTER TABLE runs ADD COLUMN failures TEXT"
                )
        self._conn.execute(
            "UPDATE store_meta SET value=? WHERE key='schema_version'",
            (str(STORE_SCHEMA_VERSION),),
        )

    # -- write path (the serving frontend) ----------------------------

    def create_run(
        self,
        run_id: str,
        experiments: list[str],
        params: Mapping[str, Any],
        created_at: float | None = None,
    ) -> None:
        """Register a freshly launched run (status ``running``)."""
        with self._lock:
            self._conn.execute(
                "INSERT INTO runs (run_id, created_at, experiments, "
                "params, status, event_schema) VALUES (?, ?, ?, ?, "
                "'running', ?)",
                (
                    run_id,
                    time.time() if created_at is None else created_at,
                    json.dumps(list(experiments)),
                    codec.to_json(codec.jsonify(dict(params))),
                    codec.EVENT_SCHEMA_VERSION,
                ),
            )

    def append_event(
        self, run_id: str, stamped: Mapping[str, Any],
        line: str | None = None,
    ) -> None:
        """Persist one server-stamped wire event (``id`` assigned).

        The canonical JSON line is stored verbatim, so replay emits
        the recorded bytes exactly.  ``line`` is that line when the
        caller has already encoded ``stamped`` (``codec.to_json``).
        """
        event_id = stamped.get("id")
        if not isinstance(event_id, int):
            raise StoreError(
                f"event for run {run_id!r} has no integer 'id' "
                "(append through the serving log, which stamps ids)"
            )
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO events "
                "(run_id, id, seq, event, payload) VALUES (?, ?, ?, ?, ?)",
                (
                    run_id,
                    event_id,
                    int(stamped.get("seq", 0)),
                    str(stamped.get("event", "")),
                    line if line is not None else codec.to_json(stamped),
                ),
            )

    def finish_run(
        self,
        run_id: str,
        status: str,
        elapsed_s: float,
        error: str | None = None,
        reports: Mapping[str, str] | None = None,
        failures: Mapping[str, Any] | None = None,
    ) -> None:
        """Record a run's terminal status, reports, and — for
        ``partial`` runs — its structured per-experiment failures."""
        if status not in ("done", "partial", "failed", "cancelled"):
            raise StoreError(f"not a terminal status: {status!r}")
        with self._lock:
            cur = self._conn.execute(
                "UPDATE runs SET status=?, error=?, elapsed_s=?, "
                "failures=? WHERE run_id=?",
                (
                    status, error, float(elapsed_s),
                    (
                        codec.to_json(codec.jsonify(dict(failures)))
                        if failures else None
                    ),
                    run_id,
                ),
            )
            if cur.rowcount == 0:
                raise StoreError(f"no such run {run_id!r}")
            for name, text in (reports or {}).items():
                self._conn.execute(
                    "INSERT OR REPLACE INTO reports "
                    "(run_id, name, sha256, chars, text) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (run_id, name, codec.report_digest(text),
                     len(text), text),
                )

    def recover_interrupted(self) -> list[str]:
        """Mark runs still ``running`` as failed (server restarted).

        Called once at server startup: any run that was live when the
        previous process died can never finish, but its recorded
        event prefix stays replayable.  Returns the affected run ids.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT run_id FROM runs WHERE status='running'"
            ).fetchall()
            ids = [row["run_id"] for row in rows]
            if ids:
                self._conn.execute(
                    "UPDATE runs SET status='failed', "
                    "error='interrupted: server restarted' "
                    "WHERE status='running'"
                )
        return ids

    # -- read path (resume, replay, inspection) -----------------------

    def get_run(self, run_id: str) -> dict[str, Any] | None:
        """One run's row as a dict (with ``last_event_id``), or None."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE run_id=?", (run_id,)
            ).fetchone()
            if row is None:
                return None
            return self._describe(row)

    def list_runs(self, limit: int = 50) -> list[dict[str, Any]]:
        """Most recent runs, newest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM runs ORDER BY created_at DESC, run_id "
                "LIMIT ?", (max(0, limit),),
            ).fetchall()
            return [self._describe(row) for row in rows]

    def _describe(self, row: sqlite3.Row) -> dict[str, Any]:
        return {
            "run_id": row["run_id"],
            "created_at": row["created_at"],
            "experiments": json.loads(row["experiments"]),
            "params": json.loads(row["params"]),
            "status": row["status"],
            "error": row["error"],
            "elapsed_s": row["elapsed_s"],
            "failures": (
                json.loads(row["failures"]) if row["failures"] else None
            ),
            "event_schema": row["event_schema"],
            "last_event_id": self._last_id_locked(row["run_id"]),
        }

    def last_event_id(self, run_id: str) -> int:
        """Highest stored event id for a run (0 when none)."""
        with self._lock:
            return self._last_id_locked(run_id)

    def _last_id_locked(self, run_id: str) -> int:
        row = self._conn.execute(
            "SELECT MAX(id) AS last FROM events WHERE run_id=?",
            (run_id,),
        ).fetchone()
        return int(row["last"] or 0)

    def events_since(
        self, run_id: str, last_id: int = 0, limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """Stored events with id > ``last_id``, ascending, decoded."""
        return [
            codec.parse_event(payload)
            for _id, _name, payload in self.raw_events_since(
                run_id, last_id, limit
            )
        ]

    def raw_events_since(
        self, run_id: str, last_id: int = 0, limit: int | None = None,
    ) -> list[tuple[int, str, str]]:
        """Like :meth:`events_since` but as ``(id, event, payload)``
        rows with the payload still canonical JSON text — the
        zero-copy path replay frames from."""
        sql = (
            "SELECT id, event, payload FROM events "
            "WHERE run_id=? AND id>? ORDER BY id"
        )
        args: tuple[Any, ...] = (run_id, last_id)
        if limit is not None:
            sql += " LIMIT ?"
            args += (max(0, limit),)
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        return [(row["id"], row["event"], row["payload"]) for row in rows]

    def iter_raw_events(
        self, run_id: str, last_id: int = 0, chunk: int = 1024,
    ) -> Iterator[tuple[int, str, str]]:
        """Stream ``(id, event, payload)`` rows in bounded chunks."""
        while True:
            rows = self.raw_events_since(run_id, last_id, limit=chunk)
            if not rows:
                return
            yield from rows
            last_id = rows[-1][0]

    def reports(self, run_id: str) -> dict[str, str]:
        """A finished run's formatted reports keyed by experiment."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, text FROM reports WHERE run_id=? "
                "ORDER BY name", (run_id,),
            ).fetchall()
        return {row["name"]: row["text"] for row in rows}

    def report_digests(self, run_id: str) -> dict[str, dict[str, Any]]:
        """``{name: {sha256, chars}}`` — as carried by ``run-done``."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT name, sha256, chars FROM reports WHERE run_id=? "
                "ORDER BY name", (run_id,),
            ).fetchall()
        return {
            row["name"]: {"sha256": row["sha256"], "chars": row["chars"]}
            for row in rows
        }

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunStore({str(self.path)!r})"
