"""Brute-force references for the index control plane's primitives.

Each of these was once the implementation under ``src/``, and is kept
here, unoptimised, as the oracle its replacement is compared against:

* ``P_e`` of an interval walked the whole support calling
  ``Interval.contains`` per value (now two bisects and a prefix-sum
  difference);
* the sub-range decomposition probed every piece against every input
  interval (now one endpoint sweep);
* ``E[hits]`` of an interval bucket priced every slab as an ``Interval``
  through ``probability_of_interval`` (now one bisect pair per boundary);
* the rejection scores built every attribute's partition from the whole
  profile set (now from each attribute's distinct predicates).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.core.domains import DiscreteDomain
from repro.core.errors import ReproError
from repro.core.intervals import Interval
from repro.core.predicates import Predicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute
from repro.core.subranges import AttributePartition, Subrange, build_partitions
from repro.distributions.base import project_onto_partition
from repro.distributions.discrete import DiscreteDistribution
from repro.selectivity.attribute_measures import AttributeMeasure, attribute_selectivities

__all__ = [
    "attribute_constraints",
    "partition_probe_order",
    "partition_rejection_scores",
    "quadratic_decompose_intervals",
    "quadratic_ordered_partition",
    "quadratic_ordered_subranges",
    "scan_probability_of_interval",
    "slab_sum_expected_interval_hits",
]


def scan_probability_of_interval(distribution: DiscreteDistribution, interval: Interval) -> float:
    """``P(X in interval)`` by testing every support value for containment."""
    pmf = distribution.pmf()
    total = 0.0
    if isinstance(distribution.domain, DiscreteDomain):
        for index, value in enumerate(distribution.domain.values()):
            if interval.contains(index):
                total += pmf.get(value, 0.0)
        return total
    for value, probability in pmf.items():
        if interval.contains(float(value)):
            total += probability
    return total


def quadratic_decompose_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Disjoint elementary sub-ranges by per-piece containment probing."""
    inputs = list(intervals)
    if not inputs:
        return []
    points: set[tuple[float, int]] = set()
    for iv in inputs:
        points.add((iv.low, 0 if iv.low_closed else 1))
        points.add((iv.high, 1 if iv.high_closed else 0))
    boundaries = sorted(points)

    result: list[Interval] = []
    for (lo_v, lo_off), (hi_v, hi_off) in zip(boundaries, boundaries[1:]):
        low_closed = lo_off == 0
        high_closed = hi_off == 1
        if lo_v == hi_v:
            if low_closed and high_closed:
                candidate = Interval.point(lo_v)
            else:
                continue
        else:
            candidate = Interval(lo_v, hi_v, low_closed, high_closed)
        if any(iv.contains(candidate.midpoint()) for iv in inputs):
            result.append(candidate)
    if not result:
        only = boundaries[0][0]
        if any(iv.contains(only) for iv in inputs):
            result.append(Interval.point(only))

    def cover_signature(iv: Interval) -> tuple[int, ...]:
        probe = iv.midpoint()
        return tuple(i for i, src in enumerate(inputs) if src.contains(probe))

    merged: list[Interval] = []
    for iv in sorted(result, key=Interval.sort_key):
        if merged:
            prev = merged[-1]
            adjacent = prev.high == iv.low and (prev.high_closed != iv.low_closed)
            if adjacent and cover_signature(prev) == cover_signature(iv):
                merged[-1] = Interval(prev.low, iv.high, prev.low_closed, iv.high_closed)
                continue
        merged.append(iv)
    return merged


def _probed_subranges(
    attribute: Attribute, inputs: Iterable[tuple[Predicate, Sequence[str]]]
) -> list[Subrange]:
    """Interval sub-ranges of ``(predicate, owner ids)`` inputs, owners
    found by probing every input interval."""
    domain = attribute.domain
    owned_intervals: list[tuple[Sequence[str], Interval]] = []
    for predicate, profile_ids in inputs:
        for interval in predicate.accepted_intervals(domain):
            clamped = domain.clamp(interval)
            if clamped is not None:
                owned_intervals.append((profile_ids, clamped))

    subranges: list[Subrange] = []
    for i, piece in enumerate(quadratic_decompose_intervals(iv for _, iv in owned_intervals)):
        probe = piece.midpoint()
        owners = frozenset(pid for ids, iv in owned_intervals if iv.contains(probe) for pid in ids)
        subranges.append(
            Subrange(
                index=i,
                interval=piece,
                value=None,
                profile_ids=owners,
                measure=domain.measure(piece),
            )
        )
    return subranges


def quadratic_ordered_subranges(
    attribute: Attribute, owners: Mapping[Predicate, Sequence[str]]
) -> list[Subrange]:
    """Drop-in for ``repro.core.subranges._ordered_subranges``."""
    return _probed_subranges(attribute, owners.items())


def quadratic_ordered_partition(
    attribute: Attribute,
    constraining: Sequence[Profile],
    dont_care_ids: frozenset[str],
) -> AttributePartition:
    """The interval partition with owners found by probing every profile."""
    subranges = _probed_subranges(
        attribute, [(prof.predicate(attribute.name), (prof.profile_id,)) for prof in constraining]
    )
    domain = attribute.domain
    covered = sum(s.measure for s in subranges)
    zero_size = 0.0 if dont_care_ids else max(0.0, domain.size - covered)
    return AttributePartition(
        attribute=attribute,
        subranges=tuple(subranges),
        domain_size=domain.size,
        zero_size=zero_size,
        dont_care_profile_ids=dont_care_ids,
    )


def slab_sum_expected_interval_hits(planner, attribute: str, domain, bucket) -> float:
    """``E[hits]`` of an interval bucket: every covered slab priced as an
    ``Interval`` (clamped to the domain) through ``probability_of_interval``."""
    expected = 0.0
    for slab, entry_ids in bucket.slabs():
        if slab is None or not entry_ids:
            continue
        expected += planner._interval_probability(attribute, domain, slab) * len(entry_ids)
    return expected


def partition_rejection_scores(planner, profiles: ProfileSet) -> dict[str, float]:
    """The planner's rejection scores from ``build_partitions`` over every profile."""
    measure = planner.attribute_measure
    if measure is AttributeMeasure.NATURAL:
        return {}
    try:
        partitions = build_partitions(profiles)
        distributions = planner.event_distributions
        if measure is AttributeMeasure.A2_ZERO_PROBABILITY and distributions:
            projected = {
                name: project_onto_partition(distributions[name], partition)
                for name, partition in partitions.items()
                if name in distributions
            }
            if len(projected) == len(partitions):
                return dict(attribute_selectivities(measure, partitions, projected))
        return dict(attribute_selectivities(AttributeMeasure.A1_ZERO_FRACTION, partitions))
    except ReproError:
        return {}


def partition_probe_order(planner, profiles: ProfileSet) -> tuple[str, ...]:
    """The probe order :func:`partition_rejection_scores` implies."""
    names = list(profiles.schema.names)
    scores = partition_rejection_scores(planner, profiles)
    if not scores:
        return tuple(names)
    return tuple(sorted(names, key=lambda n: (-scores.get(n, 0.0), names.index(n))))


def attribute_constraints(profiles: ProfileSet) -> dict[str, tuple[list[Predicate], bool]]:
    """What the planner's attribute measures read of ``profiles``, as the
    index matcher keeps it: per schema attribute, the distinct constraining
    predicates and whether some profile leaves the attribute unconstrained."""
    constraints: dict[str, tuple[list[Predicate], bool]] = {}
    for name in profiles.schema.names:
        predicates: dict[Predicate, None] = {}
        free = False
        for prof in profiles:
            if prof.constrains(name):
                predicates[prof.predicate(name)] = None
            else:
                free = True
        constraints[name] = (list(predicates), free)
    return constraints
