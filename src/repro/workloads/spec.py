"""Workload specifications.

A workload couples a schema with per-attribute event and profile
distributions plus the parameters of profile generation (how many profiles,
how often an attribute is left as don't-care, equality vs range predicates).
The evaluation scenarios of the paper — and our reproduction of its figures
— are all expressed as :class:`WorkloadSpec` instances, so a figure caption
such as "events: defined 39, profiles: gauss" maps one-to-one onto a spec.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.errors import WorkloadError
from repro.core.schema import Attribute, Schema

__all__ = ["AttributeSpec", "MixGroup", "WorkloadSpec"]


@dataclass(frozen=True)
class AttributeSpec:
    """Generation parameters of one attribute.

    Attributes
    ----------
    event_distribution:
        Name of the event value distribution ``P_e`` (see
        :func:`repro.distributions.make_distribution`), e.g. ``"equal"``,
        ``"gauss"``, ``"defined 39"`` or ``"95% high"``.
    profile_distribution:
        Name of the distribution profile values are drawn from (``P_p``).
    dont_care_probability:
        Probability that a generated profile leaves the attribute
        unconstrained (the ``*`` of the paper).
    predicate:
        ``"equality"`` (the paper's prototype), ``"range"`` — range
        predicates cover ``range_width_fraction`` of the domain centred on
        the drawn value — or ``"mixed"``, where each generated predicate
        is independently an equality with probability
        ``mixed_equality_probability`` and a range otherwise.  Mixed
        attributes are the natural habitat of the index planner's
        per-structure verdicts: selective equalities next to broad ranges
        on the same attribute.
    range_width_fraction:
        Width of generated range predicates relative to the domain size.
    mixed_equality_probability:
        Probability that a ``"mixed"`` attribute draws an equality rather
        than a range predicate (ignored for the other predicate kinds).
    """

    event_distribution: str = "equal"
    profile_distribution: str = "equal"
    dont_care_probability: float = 0.0
    predicate: str = "equality"
    range_width_fraction: float = 0.1
    mixed_equality_probability: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.dont_care_probability <= 1.0:
            raise WorkloadError("dont_care_probability must lie in [0, 1]")
        if self.predicate not in {"equality", "range", "mixed"}:
            raise WorkloadError("predicate must be 'equality', 'range' or 'mixed'")
        if not 0.0 < self.range_width_fraction <= 1.0:
            raise WorkloadError("range_width_fraction must lie in (0, 1]")
        if not 0.0 <= self.mixed_equality_probability <= 1.0:
            raise WorkloadError("mixed_equality_probability must lie in [0, 1]")


@dataclass(frozen=True)
class MixGroup:
    """One population segment of a heterogeneous profile mix.

    A workload whose subscribers split into qualitatively different
    populations — e.g. a social feed where most profiles are broad
    follow-everything firehoses while a few are razor-sharp keyword
    alerts — declares one :class:`MixGroup` per population.  Each group
    carries a sampling ``weight`` (relative, need not sum to 1) and
    per-attribute :class:`AttributeSpec` *overrides*; attributes a group
    does not override fall back to the workload's base specs.
    """

    name: str
    weight: float = 1.0
    attributes: Mapping[str, AttributeSpec] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("mix group name must be non-empty")
        if not self.weight > 0.0:
            raise WorkloadError(f"mix group {self.name!r}: weight must be positive")
        object.__setattr__(self, "attributes", dict(self.attributes or {}))


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete, reproducible workload description."""

    name: str
    schema: Schema
    attributes: Mapping[str, AttributeSpec]
    profile_count: int = 100
    event_count: int = 1000
    seed: int = 7
    mix: tuple = ()

    def __post_init__(self) -> None:
        if self.profile_count <= 0:
            raise WorkloadError("profile_count must be positive")
        if self.event_count <= 0:
            raise WorkloadError("event_count must be positive")
        unknown = [name for name in self.attributes if name not in self.schema]
        if unknown:
            raise WorkloadError(f"attribute specs reference unknown attributes {unknown}")
        object.__setattr__(self, "attributes", dict(self.attributes))
        object.__setattr__(self, "mix", tuple(self.mix))
        seen_groups: set[str] = set()
        for group in self.mix:
            if not isinstance(group, MixGroup):
                raise WorkloadError("mix entries must be MixGroup instances")
            if group.name in seen_groups:
                raise WorkloadError(f"duplicate mix group {group.name!r}")
            seen_groups.add(group.name)
            unknown = [name for name in group.attributes if name not in self.schema]
            if unknown:
                raise WorkloadError(
                    f"mix group {group.name!r} references unknown attributes {unknown}"
                )

    def spec_for(self, attribute: str, group: MixGroup | None = None) -> AttributeSpec:
        """Return the spec of one attribute (defaults when unspecified).

        With a ``group``, that mix group's override wins over the base
        attribute spec — the lookup profile generation uses when a
        heterogeneous mix is declared.
        """
        if attribute not in self.schema:
            raise WorkloadError(f"unknown attribute {attribute!r}")
        if group is not None and attribute in group.attributes:
            return group.attributes[attribute]
        return self.attributes.get(attribute, AttributeSpec())

    def with_distributions(
        self,
        *,
        events: str | None = None,
        profiles: str | None = None,
    ) -> "WorkloadSpec":
        """Return a copy with all attributes' distribution names replaced.

        This is how the figure harness sweeps over ``P_e``/``P_p``
        combinations: the schema and generation parameters stay fixed while
        the distribution names vary.
        """
        updated = {}
        for name in self.schema.names:
            spec = self.spec_for(name)
            updated[name] = replace(
                spec,
                event_distribution=events if events is not None else spec.event_distribution,
                profile_distribution=(
                    profiles if profiles is not None else spec.profile_distribution
                ),
            )
        return replace(self, attributes=updated)

    def with_counts(
        self, *, profile_count: int | None = None, event_count: int | None = None
    ) -> "WorkloadSpec":
        """Return a copy with different profile/event counts."""
        return replace(
            self,
            profile_count=profile_count if profile_count is not None else self.profile_count,
            event_count=event_count if event_count is not None else self.event_count,
        )

    def with_seed(self, seed: int) -> "WorkloadSpec":
        """Return a copy using a different random seed."""
        return replace(self, seed=seed)

    def with_name(self, name: str) -> "WorkloadSpec":
        """Return a copy under a different name (derived sweep variants)."""
        return replace(self, name=name)

    def with_domain(self, attribute: str, domain) -> "WorkloadSpec":
        """Return a copy whose schema uses ``domain`` for ``attribute``.

        The figure harness sweeps domain sizes on the single-attribute
        scenario; everything else about the spec (distribution names,
        generation knobs, counts, seed) is preserved.
        """
        if attribute not in self.schema:
            raise WorkloadError(f"unknown attribute {attribute!r}")
        rebuilt = Schema(
            Attribute(item.name, domain) if item.name == attribute else item
            for item in self.schema
        )
        return replace(self, schema=rebuilt)
