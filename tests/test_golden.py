"""The golden digest ledger: one end-to-end lock on every report's bits.

``tests/golden/report_digests.json`` holds the ``run-done`` report
digests of ``all --samples 1 --seed 0``.  A refactor that changes any
report's bytes fails here; refresh the ledger only for an intended
change, with ``scripts/refresh_golden.py --reason TEXT``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

LEDGER = pathlib.Path(__file__).parent / "golden" / "report_digests.json"


@pytest.mark.slow
def test_default_run_matches_golden_digests(tmp_path):
    # The default command: a worker pool sized to the usable CPUs.
    golden = json.loads(LEDGER.read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    jsonl = tmp_path / "progress.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *golden["argv"],
         "--progress-jsonl", str(jsonl)],
        env=env, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    done = json.loads(jsonl.read_text().splitlines()[-1])
    assert done["event"] == "run-done"
    assert done["reports"] == golden["reports"]
