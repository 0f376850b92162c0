"""The golden digest ledger: one end-to-end lock on every report's bits.

``tests/golden/report_digests.json`` holds, per ledger command, the
``run-done`` report digests of its default run: ``all --samples 1
--seed 0``, and ``table2 table4 --samples 2 --seed 0``, whose cells
have two samples each, so a stacked run puts two lanes in one pass.
The default run also pins its schedule: 103 executed jobs, no split
cells at one sample per cell, and 103 disk-cache entries.  The second
entry is also checked under execution knobs: ``--forward-batch 2``
(two-lane stacks), ``--workers 1`` (the inline executor instead of
the default pool), a fault plan that makes the pool retry failed
attempts and recover from worker crashes, ``--peers`` with one live
``repro serve`` peer, and ``--remote-cache`` to a live cache server,
cold and then warm on a fresh ``--cache-dir``.
A refactor that changes any report's bytes fails here; refresh the
ledger only for an intended change, with
``scripts/refresh_golden.py --reason TEXT``.
"""

import json
import os
from collections import Counter
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.engine.faults import FAULT_PLAN_ENV
from repro.remote.cache_server import BackgroundCacheServer

LEDGER = pathlib.Path(__file__).parent / "golden" / "report_digests.json"


def _ledger_entry(argv):
    for entry in json.loads(LEDGER.read_text()):
        if entry["argv"] == argv:
            return entry
    raise LookupError(f"no ledger entry for {argv}")


TWO_SAMPLE = ["table2", "table4", "--samples", "2", "--seed", "0"]


def _run_events(argv, tmp_path, **env_overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    env.update(env_overrides)
    jsonl = tmp_path / "progress.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv,
         "--progress-jsonl", str(jsonl)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    events = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert events[-1]["event"] == "run-done"
    return events


def _run_reports(argv, tmp_path):
    return _run_events(argv, tmp_path)[-1]["reports"]


@pytest.mark.slow
def test_default_run_matches_golden_digests(tmp_path):
    # The default command: a worker pool sized to the usable CPUs.
    golden = _ledger_entry(["all", "--samples", "1", "--seed", "0"])
    cache = tmp_path / "cache"
    events = _run_events(
        [*golden["argv"], "--cache-dir", str(cache)], tmp_path
    )
    assert events[-1]["reports"] == golden["reports"]
    # One-sample cells are their own sample jobs: nothing splits.
    assert len(events) == 208
    actions = Counter(event.get("action") for event in events)
    assert actions["completed"] == 103
    assert actions["eval-shard-done"] == 0
    assert len(list(cache.iterdir())) == 103


@pytest.mark.slow
def test_two_lane_stacks_match_golden_digests(tmp_path):
    # The ledger holds the default (one-lane) run; two-lane stacks
    # must reproduce it bit for bit.
    golden = _ledger_entry(TWO_SAMPLE)
    reports = _run_reports(
        [*golden["argv"], "--forward-batch", "2"], tmp_path
    )
    assert reports == golden["reports"]


@pytest.mark.slow
def test_in_process_run_matches_golden_digests(tmp_path):
    # The ledger holds the default pool run; the in-process executor
    # must reproduce it bit for bit.
    golden = _ledger_entry(TWO_SAMPLE)
    reports = _run_reports([*golden["argv"], "--workers", "1"], tmp_path)
    assert reports == golden["reports"]


@pytest.mark.slow
def test_fault_plan_run_matches_golden_digests(tmp_path):
    # Every focus job fails its first attempt and every cmc job kills
    # its pool worker; retries and crash recovery must not change a bit.
    golden = _ledger_entry(TWO_SAMPLE)
    events = _run_events(
        [*golden["argv"], "--retries", "2"], tmp_path,
        **{FAULT_PLAN_ENV: "eval:focus:*@1:raise; eval:cmc:*@1:kill"},
    )
    assert events[-1]["reports"] == golden["reports"]
    reasons = [
        event["detail"]["reason"] for event in events
        if event.get("action") == "retrying"
    ]
    assert any("InjectedFault" in reason for reason in reasons)
    assert {"worker-crash", "worker-lost"} & set(reasons)


@pytest.mark.slow
def test_fleet_peer_run_matches_golden_digests(tmp_path, serve_peers):
    # One live peer executes its rendezvous share of the batch.
    golden = _ledger_entry(TWO_SAMPLE)
    _, url = serve_peers.start()
    events = _run_events([*golden["argv"], "--peers", url], tmp_path)
    assert events[-1]["reports"] == golden["reports"]
    assert any(
        event.get("action") == "completed"
        and (event["detail"] or {}).get("peer") == url
        for event in events
    )


@pytest.mark.slow
def test_remote_tier_run_matches_golden_digests(tmp_path):
    # The cold run publishes every entry to a live cache server; the
    # warm run, on another fresh --cache-dir, is served from it alone.
    golden = _ledger_entry(TWO_SAMPLE)
    store = tmp_path / "server"
    with BackgroundCacheServer(store) as server:
        for name in ("cold", "warm"):
            cache = tmp_path / f"{name}-cache"
            events = _run_events(
                [*golden["argv"], "--remote-cache", server.url,
                 "--cache-dir", str(cache)], tmp_path,
            )
            assert events[-1]["reports"] == golden["reports"]
    actions = [event.get("action") for event in events]
    assert "started" not in actions
    hits = [event for event in events if event.get("action") == "cache-hit"]
    assert hits
    assert {event["detail"]["tier"] for event in hits} == {"remote"}
    # The back-filled disk tier holds the server's bytes, file for file.
    backfilled = sorted(cache.iterdir())
    assert backfilled
    for path in backfilled:
        assert path.read_bytes() == (store / path.name).read_bytes()
