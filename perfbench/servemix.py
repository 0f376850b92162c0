"""``serve-mix``: ``repro serve --workers 2`` under a closed loop of two
clients, each streaming every run it starts through one subscriber.

About 90% of requests are *hits* — specs warmed during set-up (fig13,
table3 and one ``mtconv`` scenario) that serve, store, event fan-out and
the memory cache answer.  The rest are *cold pairs*: a fresh ``mtconv``
seed POSTed twice back to back, so two concurrent runs share its jobs
on the worker pool.  The schedule is drawn from the workload seed in
blocks of 18 hits and one pair.  A request's latency runs from its
POST to the arrival of its terminal event.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from common import (
    ROOT,
    BenchError,
    HostSpeed,
    Scratch,
    child_env,
    cli_argv,
    dup_executed,
    log,
    median,
    percentile,
    stop,
    supported,
    traced_argv,
    tree_cpu_s,
    tree_peak_rss_mb,
)
from layers import layer_metrics

CLIENTS = 2
WORKERS = 2
BLOCK_HITS = 18
"""Hit requests per block; each block also holds one cold pair."""
SETUP_REPEATS = 5
TRACED_BLOCKS = 10
WINDOW_S = 1.0
MAX_WINDOW_S = 90.0
TIMEOUT_S = 60.0
TERMINAL = {"run-done", "run-partial", "run-failed", "run-cancelled"}
LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


def hit_specs(seed: int) -> list[dict]:
    return [
        {"experiments": ["fig13"], "samples": 1, "seed": seed},
        {"experiments": ["table3"], "samples": 1, "seed": seed},
        {"experiments": ["scenario"], "samples": 1, "seed": seed,
         "scenario": f"mtconv:seed={seed}"},
    ]


def cold_spec(seed: int, index: int) -> dict:
    # Distinct from the warmed mtconv seed, and from every other pair.
    return {"experiments": ["scenario"], "samples": 1, "seed": seed,
            "scenario": f"mtconv:seed={seed * 1_000_000 + 1 + index}"}


def schedule(seed: int, blocks: int | None = None):
    """Yield ``("hit"|"cold", spec)`` items, block by shuffled block."""
    rng = random.Random(seed)
    hits = hit_specs(seed)
    block = 0
    while blocks is None or block < blocks:
        items = [("hit", hits[i % len(hits)]) for i in range(BLOCK_HITS)]
        items.append(("cold", cold_spec(seed, block)))
        rng.shuffle(items)
        yield from items
        block += 1


@dataclass
class Request:
    kind: str
    key: str
    start: float
    post_s: float = 0.0
    ttfe_s: float | None = None
    end: float = 0.0
    events: int = 0
    terminal: str | None = None
    digests: dict[str, str] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.end - self.start

    @property
    def stream_s(self) -> float:
        return self.end - self.start - self.post_s


class Server:
    """One ``repro serve`` child with its own cache and run store."""

    def __init__(self, directory: Path, spans: Path | None = None) -> None:
        args = ("serve", "--port", "0", "--workers", str(WORKERS),
                "--cache-dir", str(directory / "cache"),
                "--store-path", str(directory / "runs.sqlite"))
        argv = traced_argv(spans, *args) if spans else cli_argv(*args)
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=child_env(), cwd=ROOT, text=True,
        )
        self.noise: list[str] = []
        self._drain = threading.Thread(target=self._read_stderr,
                                       daemon=True)
        try:
            self.host, self.port = self._await_listening()
            self._drain.start()
            status = self._get("/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
        except BaseException:
            stop(self.proc)
            raise

    def _await_listening(self) -> tuple[str, int]:
        for line in self.proc.stderr:
            self.noise.append(line)
            match = LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise BenchError(f"server exited early: {''.join(self.noise)[-500:]}")

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.noise.append(line)

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=TIMEOUT_S)

    def _get(self, path: str) -> int:
        conn = self._connect()
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            return response.status
        finally:
            conn.close()

    def post(self, kind: str, spec: dict) -> tuple[Request, str]:
        request = Request(kind=kind, key=json.dumps(spec, sort_keys=True),
                          start=perf_counter())
        conn = self._connect()
        try:
            conn.request("POST", "/runs", body=json.dumps(spec),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        request.post_s = perf_counter() - request.start
        if response.status != 201:
            raise BenchError(f"POST /runs -> {response.status}: {body}")
        return request, body["run_id"]

    def stream(self, request: Request, run_id: str) -> Request:
        """Read the run's JSON-lines stream to its terminal event."""
        conn = self._connect()
        try:
            conn.request("GET", f"/runs/{run_id}/events?format=jsonl")
            response = conn.getresponse()
            for line in response:
                if not line.strip():
                    continue
                if request.ttfe_s is None:
                    request.ttfe_s = perf_counter() - request.start
                event = json.loads(line)
                request.events += 1
                if event.get("action") == "completed":
                    request.executed.append(event["job"]["job_id"])
                if event.get("event") in TERMINAL:
                    request.terminal = event["event"]
                    request.digests = {
                        name: report["sha256"] for name, report
                        in (event.get("reports") or {}).items()
                    }
                    break
        except (OSError, http.client.HTTPException, ValueError) as exc:
            request.error = f"{type(exc).__name__}: {exc}"
        finally:
            conn.close()
        request.end = perf_counter()
        if request.terminal != "run-done" and not request.error:
            request.error = f"terminal event {request.terminal!r}"
        return request

    def perform(self, kind: str, spec: dict) -> list[Request]:
        """One schedule item: a hit, or both halves of a cold pair."""
        if kind == "hit":
            return [self.stream(*self.post(kind, spec))]
        first, second = self.post(kind, spec), self.post(kind, spec)
        helper = threading.Thread(target=self.stream, args=first)
        helper.start()
        try:
            self.stream(*second)
        finally:
            helper.join()
        return [first[0], second[0]]

    def close(self) -> None:
        stop(self.proc)
        if self._drain.is_alive():
            self._drain.join(timeout=10)


def warm(server: Server, seed: int) -> list[Request]:
    return [r for spec in hit_specs(seed)
            for r in server.perform("hit", spec)]


def drive(server: Server, items, more, done: list[Request]) -> None:
    """Closed loop: ``CLIENTS`` threads take items while ``more()``
    holds, appending finished requests to ``done`` as they complete."""
    lock = threading.Lock()

    def client() -> None:
        while more():
            with lock:
                item = next(items, None)
            if item is None:
                return
            try:
                finished = server.perform(*item)
            except (OSError, http.client.HTTPException, BenchError) as exc:
                failed = Request(kind=item[0], key="", start=perf_counter())
                failed.error = f"{type(exc).__name__}: {exc}"
                finished = [failed]
            with lock:
                done.extend(finished)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class WindowSampler(threading.Thread):
    """Samples time, the server tree's CPU and the completed-request
    count once per window, so rates can be taken as window medians."""

    def __init__(self, pid: int, done: list) -> None:
        super().__init__(daemon=True)
        self.pid, self.done = pid, done
        self.samples: list[tuple[float, float, int]] = []
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.is_set():
            self.samples.append(
                (perf_counter(), tree_cpu_s(self.pid), len(self.done))
            )
            self.halt.wait(WINDOW_S)

    def windows(self) -> list[tuple[float, float, int]]:
        """(seconds, CPU seconds, completed requests) per window."""
        return [(t1 - t0, c1 - c0, n1 - n0) for (t0, c0, n0), (t1, c1, n1)
                in zip(self.samples, self.samples[1:]) if n1 > n0]


def _supported(requests: list[Request]) -> bool:
    hits = sum(1 for r in requests if r.kind == "hit" and not r.error)
    colds = sum(1 for r in requests if r.kind == "cold" and not r.error)
    return supported(hits, 99) and supported(colds, 90)


def check(requests: list[Request], digests: dict[str, dict]) -> int:
    """Every response to one spec must carry identical digests."""
    failed = 0
    for request in requests:
        if not request.error:
            expected = digests.setdefault(request.key, request.digests)
            if request.digests != expected:
                request.error = "report digests differ for one spec"
        if request.error:
            failed += 1
            log(f"FAILED {request.kind} request: {request.error}")
    return failed


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Measure serve-mix; return its metrics and checked outputs."""
    digests: dict[str, dict] = {}
    with Scratch("serve-mix") as scratch, HostSpeed() as host:
        setups, warmups = [], []
        server = None
        setup_started = perf_counter()
        try:
            for index in range(SETUP_REPEATS):
                if server is not None:
                    server.close()
                start = perf_counter()
                server = Server(scratch.fresh(f"server-{index}"))
                warmups += warm(server, seed)
                setups.append(perf_counter() - start)
            setup_slow = host.slowdown(setup_started, perf_counter())
            log(f"serve-mix set-up: {', '.join(f'{s:.2f}' for s in setups)} s")
            done: list[Request] = []
            sampler = WindowSampler(server.proc.pid, done)
            sampler.start()
            started = perf_counter()

            def more() -> bool:
                # A traced run reports the hit p99 and cold p90, so it
                # measures until both have ten samples beyond them.
                now = perf_counter() - started
                return now < seconds or (
                    trace and now < MAX_WINDOW_S and not _supported(done)
                )

            drive(server, schedule(seed), more, done)
            sampler.halt.set()
            sampler.join()
            slow = host.slowdown(started, perf_counter())
            rss_mb = tree_peak_rss_mb(server.proc.pid)
        finally:
            if server is not None:
                server.close()
        checked = warmups + done
        traced: list[Request] = []
        if trace:
            spans = scratch.path / "spans.json"
            server = Server(scratch.fresh("traced"), spans)
            try:
                traced_warmups = warm(server, seed)
                traced_started = perf_counter()
                drive(server, schedule(seed, TRACED_BLOCKS), lambda: True,
                      traced)
                traced_slow = host.slowdown(traced_started, perf_counter())
            finally:
                server.close()
            checked += traced_warmups + traced
            layers = layer_metrics(spans)
    failed = check(checked, digests)

    ok = [r for r in done if not r.error]
    windows = sampler.windows()
    hits = [r.latency_s * 1000 for r in ok if r.kind == "hit"]
    colds = [r.latency_s * 1000 for r in ok if r.kind == "cold"]
    if not hits or not colds:
        raise BenchError("serve-mix completed no hit or no cold request")
    if trace and not _supported(ok):
        log(f"warning: {len(hits)} hits and {len(colds)} colds leave "
            "fewer than ten samples beyond p99 and p90")
    result = {
        "attempted": len(checked),
        "failed": failed,
        "samples": {"requests": len(ok), "hits": len(hits),
                    "colds": len(colds), "setups": len(setups),
                    "windows": len(windows)},
        # Medians over the phase, divided by the host's slowdown during it.
        "end_to_end": {
            "setup_s": median(setups) / setup_slow,
            "pass_s": median([r.latency_s for r in ok]) / slow,
            "pass_cpu_s": median([cpu / n for _, cpu, n in windows]) / slow,
            "peak_rss_mb": rss_mb,
            "req_per_s": median([n / t for t, _, n in windows]) * slow,
        },
        "raw": {
            "setup_s": median(setups),
            "pass_s": median([r.latency_s for r in ok]),
            "pass_cpu_s": median([cpu / n for _, cpu, n in windows]),
            "req_per_s": median([n / t for t, _, n in windows]),
        },
        "slowdown": slow,
        "serve": {
            "serve.hit_p50_ms": median(hits),
            "serve.hit_p99_ms": percentile(hits, 99),
            "serve.cold_p50_ms": median(colds),
            "serve.cold_p90_ms": percentile(colds, 90),
            "serve.ttfe_p50_ms": 1000 * median([r.ttfe_s for r in ok]),
        },
    }
    if trace:
        good = [r for r in traced if not r.error]
        traced_hits = [r.latency_s * 1000 for r in good if r.kind == "hit"]
        layers.update(result["serve"])
        layers.update({
            "serve.post_ms": 1000 * median([r.post_s for r in good]),
            "serve.stream_ms": 1000 * median([r.stream_s for r in good]),
            "serve.events": sum(r.events for r in good),
            "engine.dup_executed": dup_executed(
                [job for r in good for job in r.executed]
            ),
            # Traced over untraced hit p50, each at the reference speed.
            "trace.overhead": (median(traced_hits) / traced_slow)
                              / (median(hits) / slow),
        })
        result["per_layer"] = layers
    return result
