"""``repro cache-server``: a content-addressed HTTP object store.

The fleet's shared result namespace.  Objects are the canonical
payload bytes of :mod:`repro.remote.protocol`, keyed by job id and
kept in a :class:`~repro.engine.cache.ByteStore`, the same store as a
:class:`~repro.engine.cache.ResultCache` disk tier — pointing a cache
server at an existing ``--cache-dir`` publishes it to the fleet as-is.

Routes:

``GET /cache/{job_id}``
    The object's bytes, with its sha256 in ``X-Repro-Sha256``; 404
    when absent.
``HEAD /cache/{job_id}``
    Existence check: 200 with the digest/size headers, 404 otherwise.
``PUT /cache/{job_id}``
    Store an object.  The body's sha256 must match the
    ``X-Repro-Sha256`` header when one is sent — a mismatch is a 400
    and nothing is stored, so a corrupted upload can never enter the
    namespace.  Idempotent: re-putting an object is a no-op rewrite.
``POST /cache/manifest``
    Batched existence check: JSON ``{"job_ids": [...]}`` in,
    ``{"present": [...]}`` out — one round-trip amortizes a whole
    schedule's worth of per-job HEADs.
``GET /healthz``
    Liveness plus object count and byte total.

``--max-mb`` caps the store's size; the eviction policy is the
store's (least recently used first, a GET counts as a use).  The
server is single-process asyncio over the shared plumbing in
:mod:`repro.serve.http`; storage calls are cheap local file I/O
performed inline.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from urllib.parse import urlsplit

from repro.engine.cache import ByteStore
from repro.remote import protocol
from repro.serve.http import (
    HttpError,
    read_request,
    respond_bytes,
    respond_json,
)

DEFAULT_PORT = 8378
MAX_OBJECT_BYTES = 1 << 30
"""Upload ceiling (1 GiB): rejects runaway bodies before buffering."""


class CacheServerApp:
    """Routing over one :class:`~repro.engine.cache.ByteStore`."""

    def __init__(self, store: ByteStore) -> None:
        self.store = store

    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(
                    reader, max_body=MAX_OBJECT_BYTES
                )
            except HttpError as exc:
                await respond_json(
                    writer, exc.status, {"error": exc.message}
                )
                return
            if request is None:
                return
            method, target, headers, body = request
            try:
                await self._route(method, target, headers, body, writer)
            except HttpError as exc:
                await respond_json(
                    writer, exc.status, {"error": exc.message}
                )
            except (ConnectionResetError, BrokenPipeError):
                pass
            except Exception as exc:
                await respond_json(
                    writer, 500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(
        self, method: str, target: str, headers: dict[str, str],
        body: bytes, writer: asyncio.StreamWriter,
    ) -> None:
        parts = [p for p in urlsplit(target).path.split("/") if p]

        if parts == ["healthz"] and method == "GET":
            await respond_json(writer, 200, {
                "ok": True,
                "objects": self.store.count(),
                "bytes": self.store.usage(),
                "evictions": self.store.evictions,
            })
        elif len(parts) == 2 and parts[0] == "cache" \
                and parts[1] == "manifest" and method == "POST":
            await self._manifest(writer, body)
        elif len(parts) == 2 and parts[0] == "cache":
            job_id = parts[1]
            if not protocol.valid_job_id(job_id):
                raise HttpError(400, f"malformed object id {job_id!r}")
            if method == "GET":
                await self._get(writer, job_id)
            elif method == "HEAD":
                await self._head(writer, job_id)
            elif method == "PUT":
                await self._put(writer, job_id, headers, body)
            else:
                raise HttpError(405, f"no {method} on /cache/{{id}}")
        else:
            path = urlsplit(target).path
            raise HttpError(404, f"no route for {method} {path}")

    async def _get(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        data = self.store.get(job_id)
        if data is None:
            raise HttpError(404, f"no object {job_id}")
        await respond_bytes(
            writer, 200, data,
            extra_headers={
                "X-Repro-Sha256": protocol.payload_digest(data),
            },
        )

    async def _head(
        self, writer: asyncio.StreamWriter, job_id: str
    ) -> None:
        size = self.store.head(job_id)
        if size is None:
            raise HttpError(404, f"no object {job_id}")
        # A HEAD body must be empty; the size travels in its own
        # header so Content-Length can honestly frame the (absent)
        # body.
        await respond_bytes(
            writer, 200, b"",
            extra_headers={"X-Repro-Size": str(size)},
        )

    async def _put(
        self, writer: asyncio.StreamWriter, job_id: str,
        headers: dict[str, str], body: bytes,
    ) -> None:
        digest = protocol.payload_digest(body)
        claimed = headers.get(protocol.DIGEST_HEADER)
        if claimed is not None and claimed != digest:
            raise HttpError(
                400,
                f"digest mismatch for {job_id}: body hashes to "
                f"{digest}, header claims {claimed}",
            )
        self.store.put(job_id, body)
        await respond_json(
            writer, 200,
            {"stored": job_id, "bytes": len(body), "sha256": digest},
        )

    async def _manifest(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            spec = json.loads(body or b"{}")
            job_ids = spec["job_ids"]
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise HttpError(
                400, f'manifest body must be {{"job_ids": [...]}}: {exc}'
            ) from None
        if not isinstance(job_ids, list) or not all(
            isinstance(job_id, str) for job_id in job_ids
        ):
            raise HttpError(400, "'job_ids' must be a list of strings")
        bad = [job_id for job_id in job_ids
               if not protocol.valid_job_id(job_id)]
        if bad:
            raise HttpError(400, f"malformed object ids: {bad[:5]}")
        present = [job_id for job_id in job_ids
                   if self.store.head(job_id) is not None]
        await respond_json(writer, 200, {"present": present})


async def serve(
    app: CacheServerApp, host: str, port: int,
    ready: asyncio.Event | None = None,
) -> None:
    """Accept connections until cancelled; announce readiness."""
    server = await asyncio.start_server(app.handle_client, host, port)
    addr = server.sockets[0].getsockname()
    print(
        f"repro-cache-server listening on http://{addr[0]}:{addr[1]} "
        f"({app.store.count()} objects)",
        file=sys.stderr, flush=True,
    )
    if ready is not None:
        ready.set()
    async with server:
        await server.serve_forever()


class BackgroundCacheServer:
    """A cache server on a daemon thread, for tests and benchmarks.

    Runs its own event loop; :meth:`stop` cancels the accept loop and
    joins the thread.  Use as a context manager::

        with BackgroundCacheServer(tmp_path) as server:
            client = RemoteCacheClient(server.url)
    """

    def __init__(
        self, root: str | os.PathLike, max_bytes: int | None = None,
    ) -> None:
        self.store = ByteStore(root, max_bytes)
        self.url: str = ""
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._task: asyncio.Task | None = None

    def __enter__(self) -> "BackgroundCacheServer":
        started = threading.Event()

        def run() -> None:
            async def body() -> None:
                app = CacheServerApp(self.store)
                server = await asyncio.start_server(
                    app.handle_client, "127.0.0.1", 0
                )
                port = server.sockets[0].getsockname()[1]
                self.url = f"http://127.0.0.1:{port}"
                self._loop = asyncio.get_running_loop()
                self._task = asyncio.current_task()
                started.set()
                try:
                    async with server:
                        await server.serve_forever()
                except asyncio.CancelledError:
                    pass

            asyncio.run(body())

        self._thread = threading.Thread(
            target=run, name="repro-cache-server", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10):
            raise RuntimeError("cache server failed to start")
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._task is not None:
            self._loop.call_soon_threadsafe(self._task.cancel)
        if self._thread is not None:
            self._thread.join(timeout=10)
        self._loop = self._task = self._thread = None


def build_parser() -> argparse.ArgumentParser:
    from repro.cli import nonnegative_float

    parser = argparse.ArgumentParser(
        prog="repro.cli cache-server",
        description="Serve a content-addressed result-cache object "
                    "store over HTTP for a fleet of repro engines.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default: {DEFAULT_PORT})")
    parser.add_argument("--dir", default="repro-remote-cache",
                        metavar="DIR",
                        help="object storage directory (default: "
                             "repro-remote-cache; a ResultCache "
                             "--cache-dir works as-is)")
    parser.add_argument("--max-mb", type=nonnegative_float, default=None,
                        help="LRU size cap for the store, in megabytes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    max_bytes = (
        int(args.max_mb * 1e6) if args.max_mb is not None else None
    )
    app = CacheServerApp(ByteStore(args.dir, max_bytes))
    try:
        asyncio.run(serve(app, args.host, args.port))
    except KeyboardInterrupt:
        print("repro-cache-server: interrupted, shutting down",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
