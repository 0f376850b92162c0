"""Scenario specs: content-addressed generative workload families.

A *scenario* is a generative workload family (multi-turn
conversation, streaming video with scene churn, bursty multi-tenant
mixes) instantiated with a seed and a parameter map.  Every spec has
one **canonical name** — ``family:seed=S,key=value,...`` with defaults
filled in and keys sorted — and that string is what flows into
:class:`~repro.engine.jobs.EvalJob.dataset`.  Because the engine's
job ids are sha256 hashes over the job key, the canonical name *is*
the scenario's content address: any spelling of the same
``(family, seed, params)`` triple (params reordered, defaults
omitted) produces byte-identical job keys, so caches hit across
spellings and across processes.

Generation is prefix-stable exactly like the base datasets: sample
``i`` of a spec depends only on ``(experiment seed, canonical name,
i)`` — every stream is drawn from :func:`repro.utils.rng.rng_for`
keyed by the sample index — so per-sample eval shards carry over
unchanged and growing ``--samples`` re-executes only the suffix.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.model.embedding import Codebooks
from repro.workloads.datasets import Sample

ParamValue = int | float | str

GenerateFn = Callable[["ScenarioSpec", Codebooks, int, int], Sample]
"""``(spec, codebooks, seed, sample_index) -> Sample``."""


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered generative workload family."""

    name: str
    description: str
    defaults: tuple[tuple[str, ParamValue], ...]
    generate: GenerateFn
    validate: Callable[[Mapping[str, ParamValue]], None] | None = None


SCENARIO_FAMILIES: dict[str, ScenarioFamily] = {}


def register_family(
    name: str,
    description: str,
    defaults: Mapping[str, ParamValue],
    validate: Callable[[Mapping[str, ParamValue]], None] | None = None,
) -> Callable[[GenerateFn], GenerateFn]:
    """Decorator: register a generate function as a scenario family."""

    def wrap(fn: GenerateFn) -> GenerateFn:
        if name in SCENARIO_FAMILIES:
            raise ValueError(f"scenario family {name!r} already registered")
        SCENARIO_FAMILIES[name] = ScenarioFamily(
            name=name,
            description=description,
            defaults=tuple(sorted(defaults.items())),
            generate=fn,
            validate=validate,
        )
        return fn

    return wrap


def scenario_names() -> list[str]:
    """Registered family names, sorted."""
    return sorted(SCENARIO_FAMILIES)


def _format_value(value: ParamValue) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(family: str, key: str, raw: str,
                 default: ParamValue) -> ParamValue:
    """Coerce a textual param value to the default's type."""
    if isinstance(default, bool):  # future-proofing; bool is an int
        raise TypeError(f"{family}.{key}: bool params are unsupported")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ValueError(
                f"scenario param {key}={raw!r} must be an integer"
            ) from None
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"scenario param {key}={raw!r} must be a number"
            ) from None
        if not math.isfinite(value):
            raise ValueError(f"scenario param {key}={raw!r} must be finite")
        return value
    return raw


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully-resolved ``(family, seed, params)`` triple."""

    family: str
    seed: int
    params: tuple[tuple[str, ParamValue], ...]

    @property
    def param_map(self) -> dict[str, ParamValue]:
        return dict(self.params)

    @property
    def name(self) -> str:
        """Canonical name: defaults filled, keys sorted, seed first."""
        bits = [f"seed={self.seed}"]
        bits += [f"{key}={_format_value(value)}" for key, value in self.params]
        return f"{self.family}:{','.join(bits)}"

    @property
    def digest(self) -> str:
        """Content address of the spec (sha256 of the canonical name)."""
        return hashlib.sha256(self.name.encode("utf-8")).hexdigest()[:16]


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse ``family[:key=value,...]`` into a canonical spec.

    Unknown families and params, malformed ``key=value`` chunks, and
    values that don't coerce to the default's type all raise
    :class:`ValueError`.  ``seed`` is accepted as a pseudo-param of
    every family (default 0).
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"empty scenario spec {text!r}")
    head, _, tail = text.strip().partition(":")
    family = head.strip()
    if family not in SCENARIO_FAMILIES:
        raise ValueError(
            f"unknown scenario family {family!r}; "
            f"available: {scenario_names()}"
        )
    registered = SCENARIO_FAMILIES[family]
    defaults = dict(registered.defaults)
    params = dict(defaults)
    seed = 0
    for chunk in tail.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, raw = chunk.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key or not raw:
            raise ValueError(
                f"scenario params must be key=value, got {chunk!r}"
            )
        if key == "seed":
            try:
                seed = int(raw)
            except ValueError:
                raise ValueError(
                    f"scenario seed must be an integer, got {raw!r}"
                ) from None
            continue
        if key not in defaults:
            raise ValueError(
                f"unknown {family!r} param {key!r}; "
                f"available: {sorted(defaults)} (plus 'seed')"
            )
        params[key] = _parse_value(family, key, raw, defaults[key])
    if registered.validate is not None:
        registered.validate(params)
    return ScenarioSpec(
        family=family, seed=seed, params=tuple(sorted(params.items()))
    )


def is_scenario_name(name: object) -> bool:
    """True if ``name`` addresses a registered scenario family."""
    return (
        isinstance(name, str)
        and name.partition(":")[0].strip() in SCENARIO_FAMILIES
    )


def canonical_scenario_name(text: str) -> str:
    """Canonicalize any spelling of a scenario spec."""
    return parse_scenario(text).name


def scenario_digest(text: str) -> str:
    """Content address of any spelling of a scenario spec."""
    return parse_scenario(text).digest
