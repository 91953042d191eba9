"""Brute-force references for the index control plane's two primitives.

Until PR 13 these *were* the implementations under ``src/``: ``P_e`` of an
interval walked the whole support calling ``Interval.contains`` per value,
and the sub-range decomposition probed every piece against every input
interval.  They are kept here, unoptimised, as the oracles the bisect /
endpoint-sweep replacements are compared against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.domains import DiscreteDomain
from repro.core.intervals import Interval
from repro.core.profiles import Profile
from repro.core.schema import Attribute
from repro.core.subranges import AttributePartition, Subrange
from repro.distributions.discrete import DiscreteDistribution

__all__ = [
    "quadratic_decompose_intervals",
    "quadratic_ordered_partition",
    "scan_probability_of_interval",
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


def quadratic_ordered_partition(
    attribute: Attribute,
    constraining: Sequence[Profile],
    dont_care_ids: frozenset[str],
) -> AttributePartition:
    """The interval partition with owners found by probing every profile."""
    domain = attribute.domain
    profile_intervals: list[tuple[str, Interval]] = []
    for prof in constraining:
        predicate = prof.predicate(attribute.name)
        for interval in predicate.accepted_intervals(domain):
            clamped = domain.clamp(interval)
            if clamped is not None:
                profile_intervals.append((prof.profile_id, clamped))

    subranges: list[Subrange] = []
    for i, piece in enumerate(quadratic_decompose_intervals(iv for _, iv in profile_intervals)):
        probe = piece.midpoint()
        owners = frozenset(pid for pid, iv in profile_intervals if iv.contains(probe))
        subranges.append(
            Subrange(
                index=i,
                interval=piece,
                value=None,
                profile_ids=owners,
                measure=domain.measure(piece),
            )
        )
    covered = sum(s.measure for s in subranges)
    zero_size = 0.0 if dont_care_ids else max(0.0, domain.size - covered)
    return AttributePartition(
        attribute=attribute,
        subranges=tuple(subranges),
        domain_size=domain.size,
        zero_size=zero_size,
        dont_care_profile_ids=dont_care_ids,
    )
