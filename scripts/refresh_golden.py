"""Regenerate the golden report digests in tests/golden/report_digests.json.

Usage::

    python scripts/refresh_golden.py --reason "TEXT"

The ledger locks the report bits of ``all --samples 1 --seed 0``: every
refactor must reproduce it unchanged.  Refresh it only when a change is
*meant* to alter a report.  ``--reason`` is required; it is appended to
CHANGES.md so every refresh is on record.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "golden" / "report_digests.json"
CHANGES = ROOT / "CHANGES.md"
ARGV = ["all", "--samples", "1", "--seed", "0"]


def run_digests(argv: list[str]) -> dict:
    """The ``run-done`` report digests of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        jsonl = Path(tmp) / "progress.jsonl"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv,
             "--progress-jsonl", str(jsonl)],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            check=True, stdout=subprocess.DEVNULL,
        )
        done = json.loads(jsonl.read_text().splitlines()[-1])
    if done["event"] != "run-done":
        raise SystemExit(f"run did not finish cleanly: {done['event']}")
    return done["reports"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True,
                        help="why the reports are meant to change "
                             "(appended to CHANGES.md)")
    args = parser.parse_args(argv)
    reason = args.reason.strip()
    if not reason:
        parser.error("--reason must not be empty")

    reports = run_digests(ARGV)
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(
        json.dumps({"argv": ARGV, "reports": reports},
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    with CHANGES.open("a", encoding="utf-8") as changes:
        changes.write(
            f"Golden digests refreshed ({' '.join(ARGV)}): {reason}\n"
        )
    print(f"wrote {len(reports)} digests to {LEDGER.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
