"""Run ``repro.cli`` with layer spans recorded from outside the program.

Usage::

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- <repro.cli args>

The recorder imports :mod:`repro.cli` (timed as ``proc.import``),
wraps the public entry points of each layer module at runtime — the
program's source is untouched — then calls ``repro.cli.main`` with the
given arguments.  Each wrapped call becomes a span ``[name, start,
end, parent, request, extra]``: ``parent`` is the enclosing span on
the same thread, ``request`` is shared by every span under one
outermost span, and ``extra`` carries a work count read from the
call's arguments or result (samples rendered, vectors gathered,
simulated cycles, cache tier).  Spans stay in memory and are written
to ``SPANS.json`` once ``main`` returns, together with the counters of
every :class:`~repro.engine.scheduler.ExperimentEngine` created.
A target the program no longer has stops the recorder with exit code
2 before the command runs, so a renamed layer never reads as idle.

Pool workers forked by a traced process inherit the wrappers, but
their spans are never written: only in-process layers are traced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

_T0 = perf_counter()

TIERS = {None: 0, "memory": 1, "disk": 2, "remote": 3}


def _lanes(args, kwargs, result):
    return len(args[1]) if len(args) > 1 else len(kwargs["samples"])


def _gathered(args, kwargs, result):
    per_sample = getattr(result, "per_sample", None)
    parts = per_sample if per_sample is not None else [result]
    return [sum(p.total_vectors for p in parts),
            sum(p.unique_total for p in parts)]


# (module, qualified name, span name, extra-count extractor)
TARGETS = [
    ("repro.workloads.datasets", "make_dataset_span", "workloads.render",
     lambda a, k, r: len(r)),
    ("repro.model.vlm", "SyntheticVLM.forward", "model.forward",
     lambda a, k, r: 1),
    ("repro.model.vlm", "SyntheticVLM.forward_batch", "model.forward",
     _lanes),
    ("repro.model.vlm", "SyntheticVLM.__init__", "model.build", None),
    ("repro.quant.int8", "quantize_model", "model.build", None),
    ("repro.model.functional", "softmax", "model.softmax", None),
    ("repro.model.functional", "attention_scores", "model.attention", None),
    ("repro.core.gather", "SimilarityGather.gather", "core.gather",
     _gathered),
    ("repro.core.gather", "SimilarityGather.gather_batch", "core.gather",
     _gathered),
    ("repro.core.matching", "SimilarityMatcher.match_tile", "core.matcher",
     None),
    ("repro.core.matching", "SimilarityMatcher.match_tile_reference",
     "core.matcher", None),
    ("repro.core.matching", "SimilarityMatcher.match_tile_wavefront",
     "core.matcher", None),
    ("repro.core.matching", "SimilarityMatcher.match_tile_batch",
     "core.matcher", None),
    ("repro.core.semantic", "SemanticConcentrator.prune", "core.prune",
     None),
    ("repro.quant.int8", "fake_quant_int8", "quant.int8", None),
    ("repro.accel.simulator", "simulate", "accel.sim",
     lambda a, k, r: r.cycles),
    ("repro.eval.runner", "evaluate_span", "eval.span", None),
    ("repro.engine.registry", "format_result", "eval.format", None),
    ("repro.engine.registry", "run_experiments", "engine.registry", None),
    ("repro.engine.registry", "assemble_plan", "engine.plan", None),
    ("repro.engine.scheduler", "ExperimentEngine.run", "engine.sched",
     None),
    ("repro.engine.jobs", "execute_job", "engine.exec", None),
    ("repro.engine.cache", "ResultCache.lookup", "engine.cache.lookup",
     lambda a, k, r: TIERS.get(r[1], 0)),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put", None),
    ("repro.store.runstore", "RunStore.append_event", "store.append", None),
    ("repro.store.runstore", "RunStore.finish_run", "store.finish", None),
]
SERVE_ONLY = {"repro.store.runstore"}
"""Modules the offline CLI never loads; imported only for ``serve``."""


class MissingTargets(LookupError):
    """Trace targets absent from the program."""


class Recorder:
    """In-memory span log shared by every wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.engines: list = []
        self.local = threading.local()
        self.requests = itertools.count(1)

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str, extra=None):
        nid = self.name_id(name)
        spans, local, requests = self.spans, self.local, self.requests

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            request = parent[4] if parent is not None else next(requests)
            # Only the outermost span of a name counts work, so a
            # dispatcher calling its own variant is not counted twice.
            counting = extra is not None and not any(
                s[0] == nid for s in stack
            )
            span = [nid, perf_counter(), 0.0, parent, request, None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counting:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, serve: bool) -> None:
        """Wrap every target.

        A target the program lacks (a module, function or method that
        was renamed or moved) is an error: its layer would read 0 as if
        it did no work.
        """
        missing = []
        for module_name, qualname, name, extra in TARGETS:
            if module_name in SERVE_ONLY and not serve:
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}:{qualname}")
                continue
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original) or isinstance(
                original, (staticmethod, classmethod)
            ):
                missing.append(f"{module_name}:{qualname}")
                continue
            traced = self.wrap(original, name, extra)
            if owner_name:
                setattr(owner, attr, traced)
                continue
            # A function imported by name elsewhere is bound in those
            # modules too: rebind every reference.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and \
                        vars(other).get(attr) is original:
                    setattr(other, attr, traced)
        if missing:
            raise MissingTargets(", ".join(missing))
        self._track_engines()

    def _track_engines(self) -> None:
        from repro.engine.scheduler import ExperimentEngine

        init = ExperimentEngine.__init__
        engines = self.engines

        @functools.wraps(init)
        def tracked(engine, *args, **kwargs):
            init(engine, *args, **kwargs)
            engines.append(engine)

        ExperimentEngine.__init__ = tracked

    def dump(self, path: str, root: tuple[float, float]) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        now = perf_counter()
        rows = [
            [nid, start, end or now,
             index[id(parent)] if parent is not None else -1,
             request, extra]
            for nid, start, end, parent, request, extra in self.spans
        ]
        stats: dict[str, int] = {}
        for engine in self.engines:
            for field in ("jobs_submitted", "jobs_deduped", "cache_hits",
                          "executed"):
                stats[field] = stats.get(field, 0) + getattr(
                    engine.stats, field
                )
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names, "root": list(root),
                       "engine": stats, "spans": rows}, out)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    import_span = [recorder.name_id("proc.import"), perf_counter(), 0.0,
                   None, 0, None]
    import repro.cli

    import_span[2] = perf_counter()
    recorder.spans.append(import_span)
    try:
        recorder.install(serve=cli_args[:1] == ["serve"])
    except MissingTargets as exc:
        print(f"tracer: error: targets absent from the program: {exc}; "
              "update TARGETS in tracer.py", file=sys.stderr)
        return 2
    try:
        status = repro.cli.main(cli_args)
    finally:
        recorder.dump(spans_path, (_T0, perf_counter()))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
