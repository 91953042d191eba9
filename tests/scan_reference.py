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
  profile set (now read off the index's buckets);
* a slab of an interval bucket held the sorted tuple of its covering
  entry ids (now its count and the XOR of the entries' masks):
  :class:`TupleIntervalBucket`.
"""

from __future__ import annotations

from bisect import bisect_left
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
from repro.matching.index.buckets import STALE_COMPACTION_FRACTION
from repro.selectivity.attribute_measures import AttributeMeasure, attribute_selectivities

__all__ = [
    "TupleIntervalBucket",
    "attribute_indexes",
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
    for slab, count, _ in bucket.slabs():
        if slab is None or not count:
            continue
        expected += planner._interval_probability(attribute, domain, slab) * count
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


def attribute_indexes(matcher) -> dict[str, tuple]:
    """What the planner's attribute measures read of an index matcher: per
    schema attribute, its hash and interval buckets, its residual
    predicates and whether some live profile leaves it free."""
    indexes: dict[str, tuple] = {}
    for name in matcher.profiles.schema.names:
        state = matcher._states.get(name)
        if state is None:
            indexes[name] = (None, None, (), bool(matcher._live))
        else:
            residual = [entry.predicate for entry in state.residual]
            indexes[name] = (state.hash_bucket, state.interval_bucket, residual, bool(state.free))
    return indexes


class TupleIntervalBucket:
    """The slab bucket as it was when each slab held the sorted tuple of
    its covering entry ids, rebuilt on every edit.

    Same boundaries, stale-boundary bookkeeping and compaction rule as
    :class:`~repro.matching.index.buckets.IntervalBucket`, so the two have
    the same slabs after any edit sequence.

    The constructor decomposes the input intervals into point slabs (one per
    distinct endpoint) and gap slabs (the open interval between consecutive
    endpoints).  Duplicate boundaries collapse into a single point slab, and
    open/closed endpoints are honoured exactly: an entry's interval covers
    its endpoint's point slab only when that side is closed.
    """

    __slots__ = (
        "_boundaries",
        "_point_cover",
        "_gap_cover",
        "_endpoint_refs",
        "_stale_boundaries",
        "probe_cost",
    )

    def __init__(self, items: Sequence[tuple[Interval, int]]) -> None:
        boundaries = sorted({b for interval, _ in items for b in (interval.low, interval.high)})
        self._boundaries = boundaries
        #: Live endpoint reference counts per boundary value; a boundary
        #: whose count drops to zero is *stale* (see ``remove``).
        refs: dict[float, int] = {}
        for interval, _ in items:
            refs[interval.low] = refs.get(interval.low, 0) + 1
            refs[interval.high] = refs.get(interval.high, 0) + 1
        self._endpoint_refs = refs
        self._stale_boundaries = 0
        # One sweep over the slab sequence gap_0, point_0, gap_1, ...,
        # point_{n-1}, gap_n (slab position 2j for gap j, 2i+1 for point i)
        # builds every cover in O(k log k): each interval covers a single
        # contiguous slab range determined by its endpoints' openness, so a
        # start/stop event diff plus an insertion-ordered active set gives
        # the exact cover without any per-slab containment probing.
        boundary_index = {value: index for index, value in enumerate(boundaries)}
        slab_count = 2 * len(boundaries) + 1
        starts: list[list[int]] = [[] for _ in range(slab_count + 1)]
        stops: list[list[int]] = [[] for _ in range(slab_count + 1)]
        for interval, entry_id in items:
            low_index = boundary_index[interval.low]
            high_index = boundary_index[interval.high]
            first = 2 * low_index + 1 if interval.low_closed else 2 * low_index + 2
            last = 2 * high_index + 1 if interval.high_closed else 2 * high_index
            starts[first].append(entry_id)
            stops[last + 1].append(entry_id)
        active: dict[int, None] = {}
        covers: list[tuple[int, ...]] = []
        for position in range(slab_count):
            for entry_id in stops[position]:
                del active[entry_id]
            for entry_id in starts[position]:
                active[entry_id] = None
            covers.append(tuple(sorted(active)))
        self._gap_cover = covers[0::2]
        self._point_cover = covers[1::2]
        #: Comparisons charged per bisect probe: the depth of the binary
        #: search over the boundary list.
        self.probe_cost = max(1, len(boundaries).bit_length())

    def lookup(self, value: object) -> tuple[int, ...]:
        """Return the entry ids whose interval contains ``value``."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return ()
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        if position < len(boundaries) and boundaries[position] == value:
            return self._point_cover[position]
        return self._gap_cover[position]

    # -- incremental maintenance ----------------------------------------------
    def _ensure_boundary(self, value: float) -> bool:
        """Splice ``value`` into the boundary list if it is not one yet.

        Inserting a boundary splits its enclosing gap slab into
        gap/point/gap.  The new point slab and both gap halves inherit the
        old gap's cover: the value was strictly inside the open gap, so
        exactly the intervals covering the gap cover it.  Returns whether
        the boundary was freshly inserted.
        """
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        if position < len(boundaries) and boundaries[position] == value:
            return False
        boundaries.insert(position, value)
        split_cover = self._gap_cover[position]
        self._point_cover.insert(position, split_cover)
        self._gap_cover.insert(position + 1, split_cover)
        self.probe_cost = max(1, len(boundaries).bit_length())
        return True

    def _register_endpoint(self, value: float) -> None:
        """Ensure ``value`` is a boundary and count one live endpoint on it.

        Bumping a pre-existing boundary whose reference count had dropped
        to zero revives a stale boundary.
        """
        inserted = self._ensure_boundary(value)
        refs = self._endpoint_refs
        count = refs.get(value, 0)
        refs[value] = count + 1
        if not inserted and count == 0:
            self._stale_boundaries -= 1

    def _slab_span(self, interval: Interval) -> tuple[int, int]:
        """Return the first/last covered slab positions of ``interval``.

        Positions follow the sweep numbering of the constructor: ``2j`` is
        gap ``j`` and ``2i + 1`` is point ``i``.  Both endpoints must
        already be boundaries.
        """
        boundaries = self._boundaries
        low_index = bisect_left(boundaries, interval.low)
        high_index = bisect_left(boundaries, interval.high)
        first = 2 * low_index + 1 if interval.low_closed else 2 * low_index + 2
        last = 2 * high_index + 1 if interval.high_closed else 2 * high_index
        return first, last

    def add(self, interval: Interval, entry_id: int) -> None:
        """Add one range entry in place (incremental maintenance)."""
        self._register_endpoint(interval.low)
        self._register_endpoint(interval.high)
        first, last = self._slab_span(interval)
        point_cover, gap_cover = self._point_cover, self._gap_cover
        for position in range(first, last + 1):
            index, is_point = divmod(position, 2)
            cover = point_cover[index] if is_point else gap_cover[index]
            updated = tuple(sorted(cover + (entry_id,)))
            if is_point:
                point_cover[index] = updated
            else:
                gap_cover[index] = updated

    def remove(self, interval: Interval, entry_id: int) -> None:
        """Remove one range entry from its covered slabs.

        The entry's endpoints usually stay in the boundary list (a stale
        boundary is semantically invisible); once more than
        :data:`STALE_COMPACTION_FRACTION` of the boundaries are stale the
        slab structure is compacted in place, so heavy churn keeps the
        probe depth and slab count proportional to the *live* entries.
        """
        first, last = self._slab_span(interval)
        point_cover, gap_cover = self._point_cover, self._gap_cover
        for position in range(first, last + 1):
            index, is_point = divmod(position, 2)
            cover = point_cover[index] if is_point else gap_cover[index]
            updated = tuple(e for e in cover if e != entry_id)
            if is_point:
                point_cover[index] = updated
            else:
                gap_cover[index] = updated
        refs = self._endpoint_refs
        for value in (interval.low, interval.high):
            count = refs.get(value, 0) - 1
            if count > 0:
                refs[value] = count
            elif count == 0:
                refs[value] = 0
                self._stale_boundaries += 1
        if self._stale_boundaries > STALE_COMPACTION_FRACTION * len(self._boundaries):
            self._compact()

    def _compact(self) -> None:
        """Drop every stale boundary and merge its slabs in place.

        A stale boundary carries no live endpoint, so every live interval
        covering any of its three adjacent slabs (gap, point, gap) covers
        all of them — the covers are equal and collapse into one gap slab
        without changing any lookup result.
        """
        refs = self._endpoint_refs
        boundaries = self._boundaries
        point_cover, gap_cover = self._point_cover, self._gap_cover
        kept_boundaries: list[float] = []
        kept_points: list[tuple[int, ...]] = []
        kept_gaps: list[tuple[int, ...]] = [gap_cover[0]]
        for index, value in enumerate(boundaries):
            if refs.get(value, 0) > 0:
                kept_boundaries.append(value)
                kept_points.append(point_cover[index])
                kept_gaps.append(gap_cover[index + 1])
            else:
                # Stale: its point cover equals both neighbouring gap
                # covers, so skipping the boundary keeps the (identical)
                # gap already recorded.
                refs.pop(value, None)
        self._boundaries = kept_boundaries
        self._point_cover = kept_points
        self._gap_cover = kept_gaps
        self._stale_boundaries = 0
        self.probe_cost = max(1, len(kept_boundaries).bit_length())

    def covers(self) -> list[tuple[int, ...]]:
        """Every slab's cover, in the order ``IntervalBucket.slabs()`` walks:
        every gap, then every point."""
        return self._gap_cover + self._point_cover

    @property
    def boundaries(self) -> list[float]:
        return self._boundaries
