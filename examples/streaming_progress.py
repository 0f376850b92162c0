"""Streaming progress: consume a live experiment event stream.

Launches Fig. 11 (accuracy/sparsity across similarity thresholds)
through :class:`repro.serve.AsyncExperimentEngine`, consumes the async
event stream, and renders a live per-cell ticker of running accuracy
and sparsity as samples land —
exactly the events the ``repro serve`` HTTP frontend fans out to SSE
clients, here consumed in-process.

Run:  python examples/streaming_progress.py

Companion to ``examples/quickstart.py`` (one dense-vs-Focus forward)
— this one shows the serving-side view of the same machinery.  For
the HTTP version of this stream, start ``python -m repro.cli serve``
and follow the curl walkthrough in
``src/repro/engine/ARCHITECTURE.md`` ("Streaming & serving").
"""

import asyncio

from repro.engine import ExperimentEngine
from repro.serve import AsyncExperimentEngine


async def main() -> None:
    # Every cell of more than one sample runs as per-sample jobs, so
    # each landed sample streams an `eval-shard-done` partial result.
    engine = AsyncExperimentEngine(ExperimentEngine())
    run = engine.launch(["fig11"], num_samples=2)

    ticker: dict[str, str] = {}
    done = total = 0
    async for event in run.events():
        done, total = event.completed, event.total
        if event.action != "eval-shard-done":
            continue
        d = event.detail
        ticker[d["parent"]] = (
            f"acc {d['accuracy']:5.1f}%  sparsity {d['sparsity']:5.1f}%"
            f"  ({d['shards_done']}/{d['shards_total']} samples)"
        )
        print(f"\x1b[2J\x1b[H[{done}/{total} jobs]  live cell ticker")
        for cell, line in sorted(ticker.items()):
            print(f"  {cell:<48s} {line}")

    results = await run.result()
    await engine.close()
    print(f"\nrun complete ({done}/{total} jobs); assembled result:")
    from repro.engine import format_result
    print(format_result("fig11", results["fig11"]))


if __name__ == "__main__":
    asyncio.run(main())
