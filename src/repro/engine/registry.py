"""Declarative experiment registry.

Every table/figure driver declares an :class:`ExperimentPlan` — the
jobs it needs plus a pure ``assemble(results)`` step — through the
:func:`register` decorator.  The engine can then collect jobs from
*several* experiments, dedupe across them, execute one schedule, and
hand each experiment its slice of the results.

Plans always declare *whole-cell* ``eval`` jobs; per-sample execution
is an engine concern.  The engine folds each declared cell that misses
the cache from per-sample jobs (:mod:`repro.eval.eval_shards`) and
hands ``assemble`` the merged, bit-identical cell — every registered
driver reuses cached samples without knowing it.

Formatters (paper-style text renderers) are attached separately by
:mod:`repro.eval.reporting` via :func:`set_formatter`, keeping the
registry import-light.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Mapping

from repro.engine.cache import ResultCache
from repro.engine.faults import ExperimentFailure, JobFailure
from repro.engine.jobs import EvalJob
from repro.engine.memo import Report
from repro.engine.scheduler import ExperimentEngine

PlanFactory = Callable[..., "ExperimentPlan"]
Assembler = Callable[[Mapping[EvalJob, Any]], Any]


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment's declared work.

    Attributes:
        jobs: Evaluations the experiment needs (duplicates allowed;
            the engine collapses them).
        assemble: Pure function from the engine's results mapping to
            the experiment's result object.  It must not evaluate
            anything itself — only simulate, aggregate, and format —
            so caching and parallelism stay complete.
    """

    jobs: tuple[EvalJob, ...]
    assemble: Assembler


@dataclass
class ExperimentSpec:
    """Registry entry: how to plan, assemble, and render an experiment."""

    name: str
    description: str
    plan: PlanFactory
    formatter: Callable[[Any], str] | None = None


EXPERIMENT_REGISTRY: dict[str, ExperimentSpec] = {}


def register(
    name: str, description: str
) -> Callable[[PlanFactory], PlanFactory]:
    """Decorator registering a plan factory as a named experiment."""

    def deco(plan: PlanFactory) -> PlanFactory:
        EXPERIMENT_REGISTRY[name] = ExperimentSpec(
            name=name, description=description, plan=plan
        )
        return plan

    return deco


def set_formatter(name: str, formatter: Callable[[Any], str]) -> None:
    """Attach a paper-style text renderer to a registered experiment."""
    get_spec(name).formatter = formatter


def _ensure_loaded() -> None:
    """Import the modules that register experiments (idempotent)."""
    importlib.import_module("repro.eval.experiments")


def get_spec(name: str) -> ExperimentSpec:
    """Look up an experiment by name."""
    _ensure_loaded()
    try:
        return EXPERIMENT_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; "
            f"available: {sorted(EXPERIMENT_REGISTRY)}"
        ) from None


def experiment_names() -> tuple[str, ...]:
    """All registered experiment names, in registration order."""
    _ensure_loaded()
    return tuple(EXPERIMENT_REGISTRY)


def experiment_catalog() -> tuple[dict[str, str], ...]:
    """``(name, description)`` records for every registered experiment.

    The serving frontend's ``GET /experiments`` and the CLI's ``list``
    subcommand both render from this.
    """
    _ensure_loaded()
    return tuple(
        {"name": spec.name, "description": spec.description}
        for spec in EXPERIMENT_REGISTRY.values()
    )


def format_result(name: str, result: Any) -> str:
    """Render an assembled result with the experiment's formatter.

    Falls back to ``repr`` for experiments without a registered
    formatter — the exact behaviour of the offline CLI, so a serving
    frontend that stores this string returns artifacts bit-identical
    to an offline run.  Importing :mod:`repro.eval.reporting` here
    guarantees the formatters are attached no matter which entry point
    (CLI, server, library) asked first.

    An :class:`~repro.engine.faults.ExperimentFailure` (a partial
    run's failed experiment) renders its failure summary instead —
    deterministic text, no tracebacks or timings.
    """
    if isinstance(result, ExperimentFailure):
        return result.describe()
    importlib.import_module("repro.eval.reporting")
    formatter = get_spec(name).formatter
    return formatter(result) if formatter is not None else repr(result)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunSpec:
    """What one run executes: its experiments and their parameters.

    The CLI, ``POST /runs`` bodies and ``repro load`` trace records are
    all validated by :meth:`from_record`, so every entry point accepts
    exactly the same runs.
    """

    experiments: tuple[str, ...]
    samples: int | None = None
    seed: int = 0
    scenario: str | None = None
    on_error: str = "raise"

    @classmethod
    def from_record(cls, record: object) -> "RunSpec":
        """Validate a JSON-shaped spec; raise ``ValueError`` naming the
        first bad field.  ``scenario`` comes back canonicalized, so
        every spelling of one spec shares one schedule."""
        if not isinstance(record, dict):
            raise ValueError("a run spec must be a JSON object")
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(record) - set(known))
        if unknown:
            # A misspelt or retired key would otherwise run with its
            # default.
            raise ValueError(
                f"unknown fields {unknown}; a run spec takes {known}"
            )
        names = record.get("experiments")
        if (not isinstance(names, list) or not names
                or not all(isinstance(n, str) for n in names)):
            raise ValueError(
                "'experiments' must be a non-empty list of names, "
                f"got {names!r}"
            )
        available = experiment_names()
        missing = [n for n in names if n not in available]
        if missing:
            raise ValueError(
                f"unknown experiments {missing}; "
                f"available: {sorted(available)}"
            )
        samples = record.get("samples")
        if samples is not None and not (_is_int(samples) and samples >= 1):
            raise ValueError(
                f"'samples' must be an integer >= 1, got {samples!r}"
            )
        seed = record.get("seed", 0)
        if not _is_int(seed):
            raise ValueError(f"'seed' must be an integer, got {seed!r}")
        scenario = record.get("scenario")
        if scenario is not None:
            if not isinstance(scenario, str):
                raise ValueError(
                    f"'scenario' must be a string, got {scenario!r}"
                )
            if set(names) != {"scenario"}:
                # Params go to every requested plan factory, and only
                # the scenario factory accepts a spec.
                raise ValueError(
                    "'scenario' only applies to the 'scenario' experiment"
                )
            from repro.workloads.scenarios import parse_scenario

            try:
                scenario = parse_scenario(scenario).name
            except ValueError as exc:
                raise ValueError(f"bad scenario spec: {exc}") from None
        on_error = record.get("on_error", "raise")
        if on_error not in ("raise", "collect"):
            raise ValueError(
                "'on_error' must be \"raise\" or \"collect\", "
                f"got {on_error!r}"
            )
        return cls(tuple(names), samples, seed, scenario, on_error)

    @property
    def params(self) -> dict[str, Any]:
        """The keyword parameters every plan factory of the run gets."""
        params: dict[str, Any] = {"seed": self.seed}
        if self.samples is not None:
            params["num_samples"] = self.samples
        if self.scenario is not None:
            params["scenario"] = self.scenario
        return params


_default_engine: ExperimentEngine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> ExperimentEngine:
    """Process-wide serial engine with a shared in-memory cache.

    Library-level driver wrappers route through this engine, so any
    evaluation is computed at most once per session even when callers
    never touch the engine API.  Construction is guarded by a module
    lock, so concurrent first callers share one engine (and one
    cache) instead of racing to build two.
    """
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = ExperimentEngine(
                workers=1, cache=ResultCache()
            )
        return _default_engine


def reset_default_engine() -> None:
    """Drop the shared engine (tests use this for isolation)."""
    global _default_engine
    with _default_engine_lock:
        _default_engine = None


def assemble_plan(
    plan: ExperimentPlan, results: Mapping[EvalJob, Any]
) -> Any:
    """Run a plan's assemble step (trace simulation runs in here)."""
    return plan.assemble(results)


def _plan_failures(
    plan: ExperimentPlan, results: Mapping[EvalJob, Any]
) -> tuple[JobFailure, ...]:
    """The plan's :class:`JobFailure` values, deduped in job order."""
    failures: dict[EvalJob, JobFailure] = {}
    for job in plan.jobs:
        value = results.get(job)
        if isinstance(value, JobFailure):
            failures.setdefault(job, value)
    return tuple(failures.values())


def run_plan(
    plan: ExperimentPlan,
    engine: ExperimentEngine | None = None,
    progress: Callable[..., None] | None = None,
    on_error: str = "raise",
    name: str = "",
) -> Any:
    """Execute one plan and assemble its result.

    With ``on_error="collect"`` (see :meth:`ExperimentEngine.run`), a
    plan whose jobs permanently failed returns an
    :class:`~repro.engine.faults.ExperimentFailure` instead of calling
    ``assemble`` on an incomplete results mapping.
    """
    engine = engine if engine is not None else default_engine()
    results = engine.run(plan.jobs, progress=progress, on_error=on_error)
    failures = _plan_failures(plan, results)
    if failures:
        return ExperimentFailure(name=name, failures=failures)
    return assemble_plan(plan, results)


class ExperimentResults(dict):
    """Assembled results keyed by experiment name, as
    :func:`run_experiments` returns them.

    ``reports`` maps each name to its report text, exactly what
    :func:`format_result` renders for the result.  A memoized result
    is the same object in every run that reads it: read-only.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reports: dict[str, str] = {}


def _canonical_params(params: Mapping[str, Any]) -> str:
    """One spelling of a run's plan parameters: sorted-key JSON, with
    ``repr`` for any value JSON cannot hold."""
    return json.dumps(
        params, sort_keys=True, separators=(",", ":"), default=repr
    )


def _build_report(
    name: str, plan: ExperimentPlan, results: Mapping[EvalJob, Any]
) -> Report:
    result = assemble_plan(plan, results)
    return Report(result, format_result(name, result))


def run_experiments(
    names: Iterable[str],
    engine: ExperimentEngine | None = None,
    progress: Callable[..., None] | None = None,
    on_error: str = "raise",
    **params: Any,
) -> ExperimentResults:
    """Run several experiments as one deduplicated schedule.

    ``params`` (e.g. ``num_samples``, ``seed``) are forwarded to every
    plan factory.  Jobs shared between experiments — Table II and
    Fig. 9 overlap on every video cell, for example — are evaluated
    once.  ``progress`` is a batch-local streaming callback scoped to
    this schedule only (see :meth:`ExperimentEngine.run`), which is
    how the serving layer keeps concurrent runs' event streams apart.

    Each experiment is assembled and formatted once per engine: its
    :class:`~repro.engine.memo.Report` is memoized in the engine's
    ``report_memo`` under ``(name, canonical params, the plan's job
    ids)``, so a repeat run (a warm ``repro serve`` hit) reads its
    result and text back instead of simulating and rendering again.

    ``on_error="collect"`` switches to partial results: experiments
    untouched by failures assemble normally, while each experiment
    with a permanently failed job maps to an
    :class:`~repro.engine.faults.ExperimentFailure` naming the lost
    jobs (a shared failed job surfaces in every experiment that needed
    it).  Failures are never memoized.  The default ``"raise"``
    propagates the first permanent failure, exactly like the engine.

    Returns:
        Mapping from experiment name to its assembled result (or
        :class:`ExperimentFailure` in collect mode), with every
        report's text in its ``reports`` attribute.
    """
    engine = engine if engine is not None else default_engine()
    plans = {name: get_spec(name).plan(**params) for name in names}
    all_jobs = [job for plan in plans.values() for job in plan.jobs]
    results = engine.run(all_jobs, progress=progress, on_error=on_error)
    canonical = _canonical_params(params)
    out = ExperimentResults()
    for name, plan in plans.items():
        failures = _plan_failures(plan, results)
        if failures:
            failure = ExperimentFailure(name=name, failures=failures)
            report = Report(failure, failure.describe())
        else:
            key = (name, canonical, tuple(job.job_id for job in plan.jobs))
            report = engine.report_memo.get(
                key, functools.partial(_build_report, name, plan, results)
            )
        out[name], out.reports[name] = report.result, report.text
    return out
