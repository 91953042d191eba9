"""Per-attribute sub-range decomposition.

Section 3 of the paper: *"Considering profiles for value or range tests,
each attribute's domain ``D`` is divided in, at the most, ``(2p - 1)``
subsets (referred to in the profiles) and an additional subset ``D_0`` which
is not referred to in any profile."*

This module computes that decomposition for one attribute from the profile
set.  The result is the list of *defined sub-ranges* in natural ascending
order — these become the edges of the profile-tree nodes for the attribute —
plus the zero-subdomain ``D_0`` with its size ``d_0`` (the quantity used by
the attribute-selectivity measures A1 and A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from repro.core.domains import DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import PredicateError, ProfileError
from repro.core.intervals import Interval, sweep_intervals
from repro.core.predicates import Predicate, RangePredicate
from repro.core.profiles import ProfileSet
from repro.core.schema import Attribute

__all__ = [
    "Subrange",
    "AttributePartition",
    "build_partition",
    "build_partitions",
]


@dataclass(frozen=True)
class Subrange:
    """One of the at most ``2p - 1`` defined subsets of an attribute domain.

    For ordered domains the subset is an interval; for unordered discrete
    domains it is a single value.  ``profile_ids`` lists the profiles whose
    predicate on the attribute accepts every value of the subset (profiles
    that don't care about the attribute are *not* listed — the tree builder
    adds them to every edge).
    """

    index: int
    interval: Interval | None
    value: object | None
    profile_ids: frozenset[str]
    measure: float

    def contains(self, event_value: object, domain: Domain) -> bool:
        """Return ``True`` when ``event_value`` falls inside this subset."""
        if self.value is not None or (self.interval is None):
            return event_value == self.value
        if isinstance(domain, DiscreteDomain):
            return self.interval.contains(domain.index_of(event_value))
        if not isinstance(event_value, (int, float)) or isinstance(event_value, bool):
            return False
        # Unconverted: ``Interval.contains`` compares exactly, so an int
        # beyond float range or past 2**53 is neither an error nor rounded.
        return self.interval.contains(event_value)

    def label(self) -> str:
        """Return the display label used when printing trees (Fig. 1 style)."""
        if self.value is not None:
            return repr(self.value)
        if self.interval is not None and self.interval.is_point:
            return repr(self.interval.low)
        return str(self.interval)

    def sort_key(self) -> tuple:
        """Natural ascending order key."""
        if self.interval is not None:
            return self.interval.sort_key()
        return (self.value,)  # type: ignore[return-value]


@dataclass(frozen=True)
class AttributePartition:
    """The full decomposition of one attribute's domain for a profile set."""

    attribute: Attribute
    subranges: tuple[Subrange, ...]
    domain_size: float
    zero_size: float
    #: Profiles that do not constrain the attribute (don't-care).
    dont_care_profile_ids: frozenset[str]

    @property
    def zero_fraction(self) -> float:
        """Return ``d_0 / d`` — the paper's attribute-selectivity Measure A1."""
        if self.domain_size == 0:
            return 0.0
        return self.zero_size / self.domain_size

    def locate(self, event_value: object) -> Subrange | None:
        """Return the sub-range containing ``event_value`` or ``None`` (D_0)."""
        for subrange in self.subranges:
            if subrange.contains(event_value, self.attribute.domain):
                return subrange
        return None

    def natural_rank(self, event_value: object) -> int:
        """Return the value's rank within the natural sub-range order.

        For values inside a defined sub-range this is the sub-range index;
        for values in the zero-subdomain it is the number of defined
        sub-ranges lying entirely below the value.  The rank feeds the
        early-termination rejection cost of linear node search.
        """
        located = self.locate(event_value)
        if located is not None:
            return located.index
        domain = self.attribute.domain
        if isinstance(domain, DiscreteDomain):
            try:
                comparable: float | object = domain.index_of(event_value)
            except Exception:
                return len(self.subranges)
        else:
            comparable = event_value
        rank = 0
        for subrange in self.subranges:
            if subrange.value is not None:
                if isinstance(domain, DiscreteDomain):
                    boundary: object = domain.index_of(subrange.value)
                else:
                    boundary = subrange.value
                try:
                    below = boundary < comparable  # type: ignore[operator]
                except TypeError:
                    below = False
                if below:
                    rank += 1
                else:
                    break
            elif subrange.interval is not None:
                if not isinstance(comparable, (int, float)) or isinstance(comparable, bool):
                    break
                upper = subrange.interval.high
                if upper < comparable or (
                    upper == comparable and not subrange.interval.high_closed
                ):
                    rank += 1
                else:
                    break
            else:  # pragma: no cover - defensive
                break
        return rank

    def subrange_count(self) -> int:
        return len(self.subranges)


#: Distinct constraining predicates mapped to the ids of the profiles
#: carrying each one.
_Owners = Mapping[Predicate, Sequence[str]]


def _discrete_subranges(attribute: Attribute, owners: _Owners) -> list[Subrange]:
    domain = attribute.domain
    value_to_profiles: dict[object, set[str]] = {}
    for predicate, profile_ids in owners.items():
        try:
            accepted = predicate.accepted_values(domain)
        except PredicateError as exc:
            raise ProfileError(
                f"profile {profile_ids[0]!r}: predicate {predicate.describe()} is "
                f"incompatible with discrete attribute {attribute.name!r}"
            ) from exc
        for value in accepted:
            value_to_profiles.setdefault(value, set()).update(profile_ids)

    if isinstance(domain, DiscreteDomain):
        ordered_values = [v for v in domain.values() if v in value_to_profiles]
    else:
        ordered_values = sorted(value_to_profiles)
    return [
        Subrange(
            index=i,
            interval=None,
            value=value,
            profile_ids=frozenset(value_to_profiles[value]),
            measure=1.0,
        )
        for i, value in enumerate(ordered_values)
    ]


def _ordered_subranges(attribute: Attribute, owners: _Owners) -> list[Subrange]:
    domain = attribute.domain
    owner_ids: list[Sequence[str]] = []
    intervals: list[Interval] = []
    for predicate, profile_ids in owners.items():
        for interval in predicate.accepted_intervals(domain):
            clamped = domain.clamp(interval)
            if clamped is not None:
                owner_ids.append(profile_ids)
                intervals.append(clamped)

    # Collecting the owner sets costs O(output), the sweep itself O(p log p).
    return [
        Subrange(
            index=i,
            interval=piece,
            value=None,
            profile_ids=frozenset(chain.from_iterable(map(owner_ids.__getitem__, active))),
            measure=domain.measure(piece),
        )
        for i, (piece, active) in enumerate(sweep_intervals(intervals))
    ]


def build_partition(profiles: ProfileSet, attribute_name: str) -> AttributePartition:
    """Build the sub-range decomposition of one attribute for ``profiles``.

    Each distinct predicate's accepted subset is computed once, and its
    owners are handed on as a group.  Integer domains with only
    equality/one-of constraints partition into discrete values; with any
    range constraint they partition into intervals.  Using intervals
    uniformly keeps the natural order exact, but single-value partitions
    print more readably, so the discrete decomposition is preferred when
    no range predicate is present.
    """
    attribute = profiles.schema.attribute(attribute_name)
    owners: dict[Predicate, list[str]] = {}
    dont_care_ids: list[str] = []
    for prof in profiles:
        if prof.constrains(attribute_name):
            owners.setdefault(prof.predicate(attribute_name), []).append(prof.profile_id)
        else:
            dont_care_ids.append(prof.profile_id)
    domain = attribute.domain
    ranged = any(isinstance(predicate, RangePredicate) for predicate in owners)
    if isinstance(domain, DiscreteDomain) or (isinstance(domain, IntegerDomain) and not ranged):
        subranges = _discrete_subranges(attribute, owners)
    else:
        subranges = _ordered_subranges(attribute, owners)
    covered = sum(s.measure for s in subranges)
    # Values never referenced by a constraining profile form the
    # zero-subdomain D_0 — unless some profile leaves the attribute
    # unconstrained, in which case every value can still contribute to a
    # match and D_0 is empty (the paper's Example 3: d_0 = 0 for radiation).
    zero_size = 0.0 if dont_care_ids else max(0.0, domain.size - covered)
    return AttributePartition(
        attribute=attribute,
        subranges=tuple(subranges),
        domain_size=domain.size,
        zero_size=zero_size,
        dont_care_profile_ids=frozenset(dont_care_ids),
    )


def build_partitions(profiles: ProfileSet) -> dict[str, AttributePartition]:
    """Build partitions for every schema attribute, keyed by attribute name."""
    return {
        attribute.name: build_partition(profiles, attribute.name)
        for attribute in profiles.schema
    }

