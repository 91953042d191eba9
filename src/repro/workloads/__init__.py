"""Workload specifications, generators and the declarative scenario corpus.

Scenarios are *data*: the committed corpus of TOML profiles under
:mod:`repro.workloads.profiles`.  ``list_profiles()`` /
``get_profile(name)`` / ``load_profile(path)`` are the discovery and
loading API, and a profile's ``spec`` is varied through the
``WorkloadSpec.with_*`` copies; see ``docs/workloads.md``.
"""

from repro.core.errors import WorkloadSpecError
from repro.workloads.generators import (
    Workload,
    build_workload,
    generate_events,
    generate_profiles,
)
from repro.workloads.profiles import (
    EngineHints,
    RunShape,
    ScenarioProfile,
    dump_profile,
    get_profile,
    list_profiles,
    load_profile,
)
from repro.workloads.spec import AttributeSpec, MixGroup, WorkloadSpec
from repro.workloads.toy import (
    environmental_profiles,
    environmental_schema,
    example2_temperature_distribution,
    example3_event_distributions,
    example_event,
)

__all__ = [
    "AttributeSpec",
    "EngineHints",
    "MixGroup",
    "RunShape",
    "ScenarioProfile",
    "Workload",
    "WorkloadSpec",
    "WorkloadSpecError",
    "build_workload",
    "dump_profile",
    "environmental_profiles",
    "environmental_schema",
    "example2_temperature_distribution",
    "example3_event_distributions",
    "example_event",
    "generate_events",
    "generate_profiles",
    "get_profile",
    "list_profiles",
    "load_profile",
]
