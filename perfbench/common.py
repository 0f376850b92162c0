"""Shared plumbing for the benchmark: paths, the pinned child
environment, the host block, order statistics, process accounting and
the host-speed probe.

Everything here is stdlib-only and runs in the benchmark's own
process; the program under test only ever runs in child processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
"""Root of the checkout: the benchmark's directory sits directly in it."""
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
"""The benchmark's own directory."""
WORK = ROOT / ".perfbench"
"""Scratch (per-run temp dirs) and cross-run state (counts, digests)."""

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
"""BLAS/OpenMP thread pin every child gets: on a two-core host, default
BLAS threading oversubscribes the cores and worker pools run several
times slower."""


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def require_program() -> None:
    """Fail fast outside a full checkout (no program to measure)."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'repro'}; run from a "
                         "checkout of the repository")


def child_env() -> dict[str, str]:
    """Environment of every program process: the user's, plus
    ``PYTHONPATH=src`` and the pinned thread counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(PINNED_THREADS)
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def cli_argv(*args: str) -> list[str]:
    """``python -m repro.cli ARGS`` — exactly how users start it."""
    return [sys.executable, "-m", "repro.cli", *args]


def traced_argv(spans_path: Path, *args: str) -> list[str]:
    """The same command under the benchmark's span recorder."""
    tracer = BENCH / "tracer.py"
    return [sys.executable, str(tracer), str(spans_path), "--", *args]


class Scratch:
    """A per-run temp directory inside the checkout, removed on exit."""

    def __init__(self, label: str) -> None:
        self.path = WORK / f"tmp-{label}-{os.getpid()}"

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh(self, name: str) -> Path:
        """An empty subdirectory (emptied if it exists)."""
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# -- statistics -------------------------------------------------------

def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if not values:
        raise BenchError(f"p{pct} of no samples")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def dup_executed(job_ids: list[str]) -> int:
    """Job ids that appear more than once among executed jobs."""
    return sum(1 for n in Counter(job_ids).values() if n > 1)


def supported(count: int, pct: int) -> bool:
    """Whether ``count`` samples leave at least ten beyond ``pct``."""
    return count * (100 - pct) / 100 >= 10


# -- host block -------------------------------------------------------

_BLAS_PROBE = (
    "import json, numpy\n"
    "deps = numpy.show_config(mode='dicts').get('Build Dependencies', {})\n"
    "blas = deps.get('blas', {})\n"
    "print(json.dumps({'numpy': numpy.__version__,\n"
    "                  'blas': blas.get('name'),\n"
    "                  'blas_version': blas.get('version')}))\n"
)


def source_digest(*roots: Path) -> str:
    """sha256 over the Python sources under ``roots`` (default: the
    program's), which identifies a revision when there is no .git."""
    digest = hashlib.sha256()
    for root in roots or (SRC,):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def host_block() -> dict:
    """Host class of a result: cores, affinity, BLAS and its thread pin,
    Python, and the program revision."""
    probe = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE], env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    blas = json.loads(probe.stdout) if probe.returncode == 0 else {}
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": blas.get("numpy"),
        "blas": blas.get("blas"),
        "blas_version": blas.get("blas_version"),
        "threads": dict(PINNED_THREADS),
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


# -- process accounting -----------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Fields after the parenthesised command name, which may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    parents: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, frontier = [pid], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        tree.extend(children)
        frontier.extend(children)
    return tree


def tree_cpu_s(pid: int) -> float:
    """User+system seconds of ``pid``'s tree, reaped children included."""
    total = 0
    for index, member in enumerate(process_tree(pid)):
        fields = _stat_fields(member)
        if fields is None:
            continue
        # utime, stime (and for the root: cutime, cstime).
        total += int(fields[11]) + int(fields[12])
        if index == 0:
            total += int(fields[13]) + int(fields[14])
    return total / _TICK


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets (VmHWM) over ``pid``'s tree."""
    total_kb = 0
    for member in process_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Interrupt a child like Ctrl-C, escalating to kill; always reap.

    Descendants the child failed to shut down (a killed server's pool
    workers) are killed too, so no process outlives the benchmark.
    """
    if proc.poll() is None:
        descendants = {
            pid: _started(pid) for pid in process_tree(proc.pid)[1:]
        }
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for pid, started in descendants.items():
            # The start time guards against a recycled pid.
            if started is not None and _started(pid) == started:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def _started(pid: int) -> str | None:
    fields = _stat_fields(pid)
    return fields[19] if fields else None


# -- host speed -------------------------------------------------------

REFERENCE_UNIT_S = 0.003
"""CPU seconds one probe unit takes on the reference host (2-vCPU
Xeon, see README): the host speed at which normalised times read as
measured."""
MIN_UNITS = 8
"""Probe units a slowdown is taken over, at least: an interval shorter
than that many probe periods widens to the nearest units."""


class HostSpeed:
    """How fast the shared host runs at each moment of a run.

    A ``probe.py`` child times a fixed unit of CPU work four times a
    second for the whole run.  The host's other tenants make the same
    program run 20-40% slower or faster for seconds to minutes at a
    time.  Dividing the median timing of a phase of the run (set-up,
    measurement) by the probe's slowdown over that phase takes most of
    that out, so runs made in different phases of the host compare.
    The probe costs about 1% of one core.
    """

    def __init__(self) -> None:
        self.units: list[tuple[float, float]] = []
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            env=child_env(), cwd=ROOT, text=True,
        )
        first = self.proc.stdout.readline()
        if not first:
            stop(self.proc)
            raise BenchError("the host-speed probe exited before its "
                             "first unit")
        self._add(first)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _add(self, line: str) -> None:
        mid, cpu = line.split()
        self.units.append((float(mid), float(cpu)))

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._add(line)

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        stop(self.proc)
        self.reader.join(timeout=10)
        self.proc.stdout.close()

    def slowdown(self, start: float, end: float) -> float:
        """The probe's median unit time over ``[start, end]`` (widened
        to the ``MIN_UNITS`` nearest units), relative to the reference
        host: above 1 while the host runs slow."""
        units = list(self.units)
        inside = [cpu for mid, cpu in units if start <= mid <= end]
        if len(inside) < MIN_UNITS:
            centre = (start + end) / 2
            units.sort(key=lambda unit: abs(unit[0] - centre))
            inside = [cpu for _, cpu in units[:MIN_UNITS]]
        return median(inside) / REFERENCE_UNIT_S


def log(message: str) -> None:
    """Progress notes go to stderr; stdout carries the report."""
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {message}",
          file=sys.stderr, flush=True)
