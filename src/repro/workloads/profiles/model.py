"""Data model of declarative scenario profiles.

A *scenario profile* is everything a corpus runner needs to reproduce one
workload end to end: the :class:`~repro.workloads.spec.WorkloadSpec`
(schema, distributions, profile mix, counts, seed), the *run shape*
(batch size, delivery mode, subscription churn rate) and *engine hints*
(which family to construct by default, which families are applicable at
all, and the adaptation-policy knobs a fair comparison needs pinned).

The model is pure data — it imports nothing from :mod:`repro.service`
or :mod:`repro.api`, so the workloads layer stays below the service
layer.  :meth:`EngineHints.policy_overrides` hands the pinned knobs to
whoever builds the :class:`~repro.service.adaptive.AdaptationPolicy`
(``FilterService.from_profile``, the corpus runner).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import WorkloadSpecError
from repro.workloads.spec import WorkloadSpec

__all__ = ["EngineHints", "RunShape", "ScenarioProfile"]

#: Engine families a corpus profile runs through unless it names its own
#: roster.  The ``naive`` baseline stays out: its op metrics are a
#: documented lower bound, not a comparable production cost.
DEFAULT_FAMILIES = ("tree", "index")

_DELIVERY_MODES = ("inline", "threadpool")


@dataclass(frozen=True)
class RunShape:
    """How the corpus runner drives the workload through a service.

    ``batch_size`` events are published per ``publish_batch`` call
    (1 = per-event publishing); ``churn_rate`` is the number of
    subscription operations (cancel + replacement subscribe counts as
    two) interleaved per published event — 0 freezes the population.
    """

    batch_size: int = 1
    delivery: str = "inline"
    churn_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise WorkloadSpecError("run.batch_size", "must be at least 1")
        if self.delivery not in _DELIVERY_MODES:
            raise WorkloadSpecError(
                "run.delivery", f"must be one of {list(_DELIVERY_MODES)}, got {self.delivery!r}"
            )
        if self.churn_rate < 0.0:
            raise WorkloadSpecError("run.churn_rate", "must be non-negative")


@dataclass(frozen=True)
class EngineHints:
    """Engine selection and pinned adaptation knobs of a profile.

    ``engine`` is the family ``FilterService.from_profile`` constructs by
    default (any registry name or ``"auto"``); ``families`` is the roster
    the corpus runner sweeps — a profile whose structure is pathological
    for a family (e.g. broad ranges exploding the tree's subrange
    decomposition) narrows it and documents why in the file.  The
    remaining knobs pin :class:`~repro.service.adaptive.AdaptationPolicy`
    fields that change deterministic op counts.
    """

    engine: str = "auto"
    families: tuple[str, ...] = DEFAULT_FAMILIES
    reoptimize_interval: int | None = None
    warmup_events: int | None = None
    improvement_threshold: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", tuple(self.families))
        if not self.families:
            raise WorkloadSpecError("engine.families", "must name at least one family")

    def policy_overrides(self) -> dict[str, object]:
        """Return the pinned AdaptationPolicy kwargs (unset knobs omitted)."""
        overrides: dict[str, object] = {}
        for knob in ("reoptimize_interval", "warmup_events", "improvement_threshold"):
            value = getattr(self, knob)
            if value is not None:
                overrides[knob] = value
        return overrides


@dataclass(frozen=True)
class ScenarioProfile:
    """One fully-resolved scenario profile.

    ``extends`` and ``source`` are provenance, not identity: two profiles
    that resolve to the same spec/run/hints compare equal no matter which
    file (or inheritance chain) produced them — the property the
    round-trip tests rely on.
    """

    name: str
    spec: WorkloadSpec
    run: RunShape = field(default_factory=RunShape)
    engine: EngineHints = field(default_factory=EngineHints)
    description: str = ""
    extends: str | None = field(default=None, compare=False)
    source: Path | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.name != self.spec.name:
            raise WorkloadSpecError(
                "name",
                f"profile name {self.name!r} disagrees with its spec name "
                f"{self.spec.name!r}",
            )
