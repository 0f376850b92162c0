"""Regenerate the golden report digests in tests/golden/report_digests.json.

Usage::

    python scripts/refresh_golden.py --reason "TEXT"

The ledger locks the report bits of each command in :data:`ARGVS` (the
default run of each): every refactor must reproduce them unchanged.
Refresh it only when a change is *meant* to alter a report.
``--reason`` is required; it is appended to CHANGES.md so every
refresh is on record.
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
ARGVS = [
    ["all", "--samples", "1", "--seed", "0"],
    # Two samples per cell, so stacked runs get more than one lane.
    ["table2", "table4", "--samples", "2", "--seed", "0"],
]


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

    entries = [
        {"argv": argv, "reports": run_digests(argv)} for argv in ARGVS
    ]
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    # A JSON list with each entry laid out on its own, unindented, so
    # adding an entry leaves the lines of the others untouched.
    LEDGER.write_text(
        "[\n" + ",\n".join(
            json.dumps(entry, indent=2, sort_keys=True) for entry in entries
        ) + "\n]\n",
        encoding="utf-8",
    )
    commands = "; ".join(" ".join(argv) for argv in ARGVS)
    with CHANGES.open("a", encoding="utf-8") as changes:
        changes.write(f"Golden digests refreshed ({commands}): {reason}\n")
    digests = sum(len(entry["reports"]) for entry in entries)
    print(f"wrote {digests} digests to {LEDGER.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
