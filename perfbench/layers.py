"""Per-layer metrics from one span dump written by ``tracer.py``.

A layer's time is the *self* time of its spans: span duration minus
the time of its direct child spans, so the layer times of one process
never count the same interval twice.  Counts come from the work
counts the recorder attached to the outermost span of each name, and
from the engine's own counters.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

DETERMINISTIC = (
    "engine.jobs_submitted", "engine.jobs_deduped", "engine.jobs_cached",
    "engine.jobs_executed", "model.forwards", "core.vectors_in",
    "core.vectors_kept", "accel.sim_cycles", "workloads.samples",
)
"""Counts that must repeat exactly across traced runs of one seed."""

SELF_TIMES = {
    "proc.import_s": "proc.import",
    "workloads.render_s": "workloads.render",
    "model.forward_s": "model.forward",
    "model.softmax_s": "model.softmax",
    "model.attention_s": "model.attention",
    "model.build_s": "model.build",
    "core.gather_s": "core.gather",
    "core.matcher_s": "core.matcher",
    "core.prune_s": "core.prune",
    "quant.int8_s": "quant.int8",
    "accel.sim_s": "accel.sim",
    "eval.span_s": "eval.span",
    "eval.format_s": "eval.format",
    "engine.registry_s": "engine.registry",
    "engine.plan_s": "engine.plan",
    "engine.sched_s": "engine.sched",
    "engine.exec_s": "engine.exec",
    "engine.cache.lookup_s": "engine.cache.lookup",
    "engine.cache.put_s": "engine.cache.put",
    "store.append_s": "store.append",
    "store.finish_s": "store.finish",
}


def _union_s(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(path: Path) -> dict[str, float]:
    """Aggregate one dump into per-layer metrics."""
    dump = json.loads(Path(path).read_text())
    names, rows = dump["names"], dump["spans"]
    child_s = [0.0] * len(rows)
    for _, start, end, parent, _, _ in rows:
        if parent >= 0:
            child_s[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    extras: dict[str, list] = defaultdict(list)
    top: list[tuple[float, float]] = []
    for index, (nid, start, end, parent, _, extra) in enumerate(rows):
        name = names[nid]
        self_s[name] += end - start - child_s[index]
        calls[name] += 1
        if extra is not None:
            extras[name].append(extra)
        if parent < 0:
            top.append((start, end))
    root_start, root_end = dump["root"]
    tiers = extras["engine.cache.lookup"]
    lookups = calls["engine.cache.lookup"]
    engine = dump["engine"]
    metrics = {key: self_s[name] for key, name in SELF_TIMES.items()}
    metrics.update({
        "workloads.samples": sum(extras["workloads.render"]),
        "model.forwards": sum(extras["model.forward"]),
        "core.vectors_in": sum(v[0] for v in extras["core.gather"]),
        "core.vectors_kept": sum(v[1] for v in extras["core.gather"]),
        "accel.sim_calls": calls["accel.sim"],
        "accel.sim_cycles": sum(extras["accel.sim"]),
        "engine.cache.lookups": lookups,
        "engine.cache.disk_hits": sum(1 for t in tiers if t == 2),
        "engine.cache.hit_ratio": (
            sum(1 for t in tiers if t) / lookups if lookups else 0.0
        ),
        "engine.cache.puts": calls["engine.cache.put"],
        "engine.jobs_submitted": engine.get("jobs_submitted", 0),
        "engine.jobs_deduped": engine.get("jobs_deduped", 0),
        "engine.jobs_cached": engine.get("cache_hits", 0),
        "engine.jobs_executed": engine.get("executed", 0),
        "store.appends": calls["store.append"],
        "trace.coverage": _union_s(top) / (root_end - root_start),
    })
    return metrics
