"""Generative scenario families: prefix-stable dataset plugins.

Importing this package registers the built-in families; their
canonical names (``family:seed=S,key=value,...``) slot directly into
:func:`repro.workloads.datasets.make_dataset_span` — and therefore
into :class:`~repro.engine.jobs.EvalJob` dataset keys — as
content-addressed datasets.  See :mod:`repro.workloads.scenarios.spec`
for the addressing and prefix-stability contract.
"""

from repro.workloads.scenarios.spec import (
    SCENARIO_FAMILIES,
    ScenarioFamily,
    ScenarioSpec,
    canonical_scenario_name,
    is_scenario_name,
    parse_scenario,
    register_family,
    scenario_digest,
    scenario_names,
)

# Importing the family modules registers them.
from repro.workloads.scenarios import conversation  # noqa: F401,E402
from repro.workloads.scenarios import multitenant  # noqa: F401,E402
from repro.workloads.scenarios import streaming  # noqa: F401,E402

__all__ = [
    "SCENARIO_FAMILIES",
    "ScenarioFamily",
    "ScenarioSpec",
    "canonical_scenario_name",
    "is_scenario_name",
    "parse_scenario",
    "register_family",
    "scenario_digest",
    "scenario_names",
]
