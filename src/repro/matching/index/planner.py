"""Selectivity-aware index planning.

The :class:`IndexPlanner` decides, per attribute and per structure,
whether the :class:`~repro.matching.index.matcher.PredicateIndexMatcher`
should answer the attribute's equality entries through its hash bucket
and its range entries through its interval bucket, or scan either kind
linearly.  Each structure's decision compares two expected per-event
costs in the suite's common currency (comparison operations, see
:mod:`repro.matching.interfaces`):

* ``scan_cost`` — the counting baseline's strategy: evaluate each of the
  structure's ``k`` distinct predicates once per event, i.e. ``k``
  comparisons regardless of the event value.
* ``index_cost = probe_cost + E[hits]`` — one probe (hash lookup, or the
  bisect depth over the slab boundaries) plus the expected number of
  satisfied entries, which mirrors the ``R = E(X) + R_0`` decomposition of
  the paper's Eq. 2 as computed by
  :func:`repro.analysis.cost_model.attribute_response_time`: a position
  term that depends on where the event value falls, plus a constant probe
  overhead.

``E[hits]`` is taken under the attribute's event distribution ``P_e`` when
one is supplied — the same distributions the selectivity measures V1-V3 /
A1-A3 of :mod:`repro.selectivity` consume — and under a uniform assumption
otherwise.  An interval bucket is priced from its slab boundaries, not
slab by slab: the per-boundary masses of ``P_e``
(``Distribution.slab_masses``) or, under the uniform assumption, the
domain's per-boundary sizes (``Domain.slab_measures``), times each slab's
entry count.  The planner also ranks attributes by their rejection power
(Measures A1/A2 over the zero-subdomain ``D_0``, read off the same
buckets), so the matcher can probe highly selective attributes first and
cut matching short as soon as a fully-constrained attribute yields no hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.core.domains import DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import ReproError, SelectivityError
from repro.core.intervals import Interval
from repro.core.predicates import Equals, OneOf, Predicate, RangePredicate
from repro.core.schema import Schema
from repro.distributions.base import Distribution
from repro.matching.index.buckets import HashBucket, IntervalBucket
from repro.selectivity.attribute_measures import AttributeMeasure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.profiles import ProfileSet

__all__ = ["AttributeIndex", "AttributePlan", "IndexPlan", "IndexPlanner"]

#: What the attribute measures read of one attribute of an index: its hash
#: bucket and its interval bucket (``None`` while it has no such entry),
#: its residual (``NotEquals``-style) predicates, and whether some live
#: profile leaves it free.
AttributeIndex = tuple["HashBucket | None", "IntervalBucket | None", Sequence[Predicate], bool]


@dataclass(frozen=True)
class AttributePlan:
    """The planner's verdict for one attribute.

    The verdict is *per structure*, not just per attribute: the hash side
    (``Equals``/``OneOf`` entries) and the interval side (``RangePredicate``
    entries, answered by the sorted slab decomposition) are costed and
    chosen independently, so one attribute may probe its hash bucket and
    scan its ranges, or the other way round.
    """

    attribute: str
    #: Expected comparisons with both structures indexed (probe + E[hits]).
    index_cost: float
    #: Expected comparisons for the scan strategy (distinct predicate count).
    scan_cost: float
    #: Number of distinct predicate entries on the attribute.
    entry_count: int
    #: Per-structure verdicts: probe the structure (``True``) or scan it.
    use_hash: bool
    use_interval: bool
    #: Component costs.  ``*_index_cost`` is probe + E[hits] for that
    #: structure alone; ``*_scan_cost`` is its distinct entry count.
    hash_index_cost: float
    hash_scan_cost: float
    interval_index_cost: float
    interval_scan_cost: float
    #: Entries that can only ever be scanned (NotEquals and friends).
    residual_scan_cost: float

    @property
    def chosen_cost(self) -> float:
        """Return the expected cost of the chosen per-structure mix."""
        return self.cost_of(self)

    def cost_of(self, verdicts: "AttributePlan") -> float:
        """Return the expected cost of ``verdicts``' per-structure mix at
        this plan's component costs."""
        hash_part = self.hash_index_cost if verdicts.use_hash else self.hash_scan_cost
        interval_part = (
            self.interval_index_cost if verdicts.use_interval else self.interval_scan_cost
        )
        return hash_part + interval_part + self.residual_scan_cost


@dataclass(frozen=True)
class IndexPlan:
    """A full per-attribute plan plus the derived probe order."""

    attributes: Mapping[str, AttributePlan]
    #: Attribute probe order, most selective (highest rejection power) first.
    probe_order: tuple[str, ...]

    @property
    def estimated_operations_per_event(self) -> float:
        """Return the planner's predicted comparisons per event."""
        return sum(plan.chosen_cost for plan in self.attributes.values())

    def plan_for(self, attribute: str) -> AttributePlan | None:
        return self.attributes.get(attribute)

    def cost_under(self, recosted: Mapping[str, AttributePlan]) -> float:
        """Return the cost of *this* plan's strategy choices at the
        component costs of ``recosted`` (the same buckets costed under
        other distributions); attributes this plan has no verdict for yet
        take the recosted verdict.  Summed as
        ``sum(plan.chosen_cost for plan in recosted.values())`` is, so
        equal verdicts price to exactly equal totals."""
        return sum(
            costs.cost_of(self.attributes.get(attribute) or costs)
            for attribute, costs in recosted.items()
        )


class IndexPlanner:
    """Chooses per-attribute index structures from selectivity estimates."""

    #: Measures probe_order() can rank by; A3 is a whole-order (tree) measure
    #: with no per-attribute score and is rejected at construction.
    SUPPORTED_MEASURES = (
        AttributeMeasure.NATURAL,
        AttributeMeasure.A1_ZERO_FRACTION,
        AttributeMeasure.A2_ZERO_PROBABILITY,
    )

    def __init__(
        self,
        event_distributions: Mapping[str, Distribution] | None = None,
        *,
        attribute_measure: AttributeMeasure = AttributeMeasure.A2_ZERO_PROBABILITY,
    ) -> None:
        if attribute_measure not in self.SUPPORTED_MEASURES:
            raise SelectivityError(
                f"IndexPlanner supports measures {[m.value for m in self.SUPPORTED_MEASURES]}, "
                f"not {attribute_measure.value!r}"
            )
        self.event_distributions = dict(event_distributions) if event_distributions else {}
        self.attribute_measure = attribute_measure

    # -- probability estimation -------------------------------------------------
    def _value_probability(self, attribute: str, domain: Domain, value: object) -> float:
        distribution = self.event_distributions.get(attribute)
        if distribution is not None:
            return distribution.probability_of_value(value)
        size = domain.size
        return 1.0 / size if size not in (0.0, float("inf")) else 0.0

    def _interval_probability(self, attribute: str, domain: Domain, interval) -> float:
        clamped = domain.clamp(interval)
        if clamped is None:
            return 0.0
        distribution = self.event_distributions.get(attribute)
        if distribution is not None:
            return distribution.probability_of_interval(clamped)
        size = domain.size
        return domain.measure(clamped) / size if size > 0 else 0.0

    # -- per-attribute costing --------------------------------------------------
    def expected_hash_hits(self, attribute: str, domain: Domain, bucket: "HashBucket") -> float:
        """Return ``E[hits]`` of a hash bucket under ``P_e``."""
        return sum(
            self._value_probability(attribute, domain, value) * count
            for value, count in bucket.counts.items()
        )

    def expected_interval_hits(
        self, attribute: str, domain: Domain, bucket: "IntervalBucket"
    ) -> float:
        """Return ``E[hits]`` of an interval bucket under ``P_e``.

        The sum of ``mass * count`` over the covered slabs, gaps first and
        then points (the order of :meth:`IntervalBucket.slabs`), where a
        slab's count is the number of entries covering it.  The masses
        come per boundary, never per slab interval: from
        ``P_e.slab_masses`` (one bisect pair per boundary under a
        :class:`~repro.distributions.discrete.DiscreteDistribution`, every
        history estimate on a finite domain), or, without a ``P_e``, from
        the domain's :meth:`~repro.core.domains.Domain.slab_measures`
        divided by its size.  Only a ``P_e`` with no per-boundary masses
        (the continuous histogram) still prices each slab as an interval,
        inside its ``slab_masses``.  The floats are those of pricing each
        clamped slab interval; under the uniform assumption the 3 985
        ``wide-range`` slabs price in ≈ 3 ms and build no interval.
        """
        distribution = self.event_distributions.get(attribute)
        boundaries = bucket.boundaries
        if distribution is not None:
            gap_masses, point_masses = distribution.slab_masses(boundaries)
        else:
            size = domain.size
            gaps, points = domain.slab_measures(boundaries)
            gap_masses = [measure / size for measure in gaps]
            point_masses = [measure / size for measure in points]
        counts = bucket.counts
        expected = 0.0
        # An uncovered slab adds nothing, and the two slabs ``slabs()``
        # skips while covered — points at an infinite boundary — have no
        # mass, so this sum is the slab walk's, term by term.
        for mass, count in chain(zip(gap_masses, counts[0::2]), zip(point_masses, counts[1::2])):
            if count:
                expected += mass * count
        return expected

    def plan_attribute(
        self,
        attribute: str,
        domain: Domain,
        *,
        hash_bucket: "HashBucket | None",
        interval_bucket: "IntervalBucket | None",
        scan_entry_count: int = 0,
    ) -> AttributePlan:
        """Cost one attribute's strategies and pick the cheaper one.

        ``scan_entry_count`` counts the predicates that can only ever be
        scanned (``NotEquals`` and friends); they contribute to both sides
        and therefore never change the decision, but they make the reported
        costs comparable across attributes.
        """
        hash_entries = 0
        hash_index_cost = 0.0
        if hash_bucket is not None and len(hash_bucket) > 0:
            # Entries, not per-value registrations: a OneOf entry appears
            # under every accepted value but a scan evaluates the predicate
            # once, so scan_cost counts it once.
            hash_entries = hash_bucket.entry_count
            hash_index_cost = hash_bucket.probe_cost + self.expected_hash_hits(
                attribute, domain, hash_bucket
            )
        range_entries = 0
        interval_index_cost = 0.0
        if interval_bucket is not None and len(interval_bucket) > 0:
            range_entries = interval_bucket.entry_count
            interval_index_cost = interval_bucket.probe_cost + self.expected_interval_hits(
                attribute, domain, interval_bucket
            )
        return self._assemble_plan(
            attribute,
            hash_entries=hash_entries,
            hash_index_cost=hash_index_cost,
            range_entries=range_entries,
            interval_index_cost=interval_index_cost,
            scan_entries=scan_entry_count,
        )

    def _assemble_plan(
        self,
        attribute: str,
        *,
        hash_entries: int,
        hash_index_cost: float,
        range_entries: int,
        interval_index_cost: float,
        scan_entries: int,
    ) -> AttributePlan:
        """Fold component costs into aggregate costs and per-structure verdicts.

        Each structure is indexed when it has entries and its probe plus
        expected hits undercut scanning its distinct entries.
        """
        indexable = hash_entries + range_entries
        return AttributePlan(
            attribute=attribute,
            index_cost=hash_index_cost + interval_index_cost + float(scan_entries),
            scan_cost=float(indexable + scan_entries),
            entry_count=indexable + scan_entries,
            use_hash=hash_entries > 0 and hash_index_cost < hash_entries,
            use_interval=range_entries > 0 and interval_index_cost < range_entries,
            hash_index_cost=hash_index_cost,
            hash_scan_cost=float(hash_entries),
            interval_index_cost=interval_index_cost,
            interval_scan_cost=float(range_entries),
            residual_scan_cost=float(scan_entries),
        )

    def plan_profiles(self, profiles: "ProfileSet") -> dict[str, AttributePlan]:
        """Cost every attribute of a profile set *without* building buckets.

        Produces the same numbers :meth:`plan_attribute` yields over built
        buckets: ``E[hits]`` is the sum over distinct entries of their
        satisfaction probability, which both the hash table (per-value
        registration counts) and the slab decomposition (per-slab covers)
        preserve exactly, and a cost of the slab probe from the distinct
        boundaries.  A check costs the running matcher's live buckets
        instead (:meth:`PredicateIndexMatcher.recost_plans`).
        """
        schema = profiles.schema
        per_attribute: dict[str, dict] = {}
        for profile in profiles:
            for attribute, predicate in profile.predicates.items():
                if predicate.is_dont_care:
                    continue
                per_attribute.setdefault(attribute, {})[predicate] = None
        plans: dict[str, AttributePlan] = {}
        for attribute, predicates in per_attribute.items():
            domain = schema.domain(attribute)
            hash_entries = 0
            range_entries = 0
            scan_entries = 0
            hash_hits = 0.0
            interval_hits = 0.0
            boundaries: set[float] = set()
            for predicate in predicates:
                if isinstance(predicate, Equals):
                    hash_entries += 1
                    hash_hits += self._value_probability(attribute, domain, predicate.value)
                elif isinstance(predicate, OneOf):
                    hash_entries += 1
                    hash_hits += sum(
                        self._value_probability(attribute, domain, value)
                        for value in predicate.values
                    )
                elif isinstance(predicate, RangePredicate):
                    range_entries += 1
                    interval_hits += self._interval_probability(
                        attribute, domain, predicate.interval
                    )
                    boundaries.add(predicate.interval.low)
                    boundaries.add(predicate.interval.high)
                else:
                    scan_entries += 1
            hash_index_cost = (1.0 + hash_hits) if hash_entries else 0.0
            interval_index_cost = (
                max(1, len(boundaries).bit_length()) + interval_hits
                if range_entries
                else 0.0
            )
            plans[attribute] = self._assemble_plan(
                attribute,
                hash_entries=hash_entries,
                hash_index_cost=hash_index_cost,
                range_entries=range_entries,
                interval_index_cost=interval_index_cost,
                scan_entries=scan_entries,
            )
        return plans

    # -- attribute ordering -----------------------------------------------------
    def rejection_scores(
        self, schema: Schema, indexes: Mapping[str, AttributeIndex]
    ) -> dict[str, float]:
        """Return the per-attribute rejection power under the configured measure.

        ``indexes`` maps every schema attribute to its :data:`AttributeIndex`.
        Higher scores mean an event value is more likely to satisfy *no*
        entry of the attribute: Measure A2 (``d_0 * P_e(D_0) / d``) when
        every attribute has an event distribution, else Measure A1
        (``d_0 / d``), with ``D_0`` read off the buckets
        (:func:`_zero_subdomain`).  Returns ``{}`` for ``NATURAL`` (no
        ranking) and when a residual predicate has no accepted-subset
        model — callers fall back to schema order either way.
        """
        measure = self.attribute_measure
        if measure is AttributeMeasure.NATURAL:
            return {}
        distributions = self.event_distributions
        if measure is not AttributeMeasure.A2_ZERO_PROBABILITY or not all(
            name in distributions for name in schema.names
        ):
            distributions = {}
        scores: dict[str, float] = {}
        try:
            for name in schema.names:
                domain = schema.domain(name)
                zero_size, zero_mass = _zero_subdomain(
                    domain, *indexes[name], distributions.get(name)
                )
                # Without P_e the mass is 1.0, and A1 is the fraction itself.
                scores[name] = zero_size / domain.size * zero_mass
        except ReproError:
            # Selectivity scoring is an optimisation, not a correctness
            # requirement: a residual predicate without an accepted-subset
            # model falls back to schema order.
            return {}
        return scores

    def probe_order(self, schema: Schema, indexes: Mapping[str, AttributeIndex]) -> tuple[str, ...]:
        """Return the attribute probe order, most selective first.

        Ranks by :meth:`rejection_scores`; ``NATURAL``, unknown attributes
        and unmodellable workloads keep the schema order.  Ties keep the
        schema order.
        """
        names = list(schema.names)
        scores = self.rejection_scores(schema, indexes)
        if not scores:
            return tuple(names)
        position = {name: index for index, name in enumerate(names)}
        return tuple(sorted(names, key=lambda n: (-scores.get(n, 0.0), position[n])))


def _zero_subdomain(
    domain: Domain,
    hash_bucket: "HashBucket | None",
    interval_bucket: "IntervalBucket | None",
    residual: Sequence[Predicate],
    free: bool,
    distribution: Distribution | None,
) -> tuple[float, float]:
    """Return ``d_0`` and ``P_e(D_0)`` (``1.0`` without a ``P_e``) of one
    attribute: the floats of a partition of its predicates, up to rounding
    of a continuous ``d_0``.

    ``D_0`` is what no hash key, covered slab or residual predicate
    accepts; it is empty on a ``free`` attribute, whose residual predicates
    are still asked, so an unmodellable one raises either way.  A finite
    domain with no range entry is covered value by value.  Otherwise
    ``d_0`` is the measure of the uncovered slabs and ``P_e(D_0)`` is
    ``1 -`` the masses of the covered pieces in ascending order.  A piece
    is a maximal run of slabs with one mask, cut at hash keys and residual
    bounds: entry masks are disjoint, so it is one region of the sweep.
    """
    keys = hash_bucket.counts if hash_bucket is not None else ()
    if isinstance(domain, DiscreteDomain) or (
        isinstance(domain, IntegerDomain) and interval_bucket is None
    ):
        accepted = [value for predicate in residual for value in predicate.accepted_values(domain)]
        if free:
            return 0.0, 0.0
        covered = {value for value in chain(keys, accepted) if value in domain}
        if distribution is None:
            return domain.size - len(covered), 1.0
        natural = domain.index_of if isinstance(domain, DiscreteDomain) else None
        covered_mass = sum(
            max(0.0, distribution.probability_of_value(value))
            for value in sorted(covered, key=natural)
        )
        return domain.size - len(covered), max(0.0, 1.0 - covered_mass)

    intervals = [
        clamped
        for predicate in residual
        for interval in predicate.accepted_intervals(domain)
        if (clamped := domain.clamp(interval)) is not None
    ]
    if free:
        return 0.0, 0.0
    boundaries: Sequence = ()
    signatures: Sequence[int] = (0,)
    if interval_bucket is not None:
        boundaries, signatures = interval_bucket.boundaries, interval_bucket.masks
    if keys or intervals:
        # One bucket of the covered runs, the keys (one shared bit above
        # every mask: no two keys share a slab) and the residual intervals
        # (one bit each): its slab masks are the cut signatures.
        key_bit = 1 << max(signatures).bit_length()
        items = [
            (Interval(*_span(boundaries, first, last)), signatures[first])
            for first, last in _runs(signatures)
        ]
        items += [(Interval.point(float(key)), key_bit) for key in keys]
        items += [(interval, key_bit << n) for n, interval in enumerate(intervals, 1)]
        cut = IntervalBucket(items)
        boundaries, signatures = cut.boundaries, cut.masks
    zero_size = sum(
        domain._measure(*_span(boundaries, slab, slab))
        for slab, signature in enumerate(signatures)
        if not signature
    )
    if distribution is None:
        return zero_size, 1.0
    covered_mass = sum(
        max(0.0, distribution._mass(*_span(boundaries, first, last)))
        for first, last in _runs(signatures)
    )
    return zero_size, max(0.0, 1.0 - covered_mass)


def _runs(signatures: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield the first and last slab of every maximal run of one non-zero
    signature, in ascending order (the last slab, above every boundary, is
    never covered)."""
    first = 0
    for slab, signature in enumerate(signatures):
        if signature != signatures[first]:
            if signatures[first]:
                yield first, slab - 1
            first = slab


def _span(boundaries: Sequence, first: int, last: int) -> tuple:
    """Return ``(low, high, low_closed, high_closed)`` of slabs ``first``
    to ``last``: gap ``j`` at ``2j`` (open, unbounded outside the first and
    last boundaries), point ``i`` at ``2i + 1``."""
    low_index, low_closed = divmod(first, 2)
    high_index, high_closed = divmod(last, 2)
    if low_closed:
        low = boundaries[low_index]
    else:
        low = boundaries[low_index - 1] if low_index else -math.inf
    high = boundaries[high_index] if high_index < len(boundaries) else math.inf
    return low, high, bool(low_closed), bool(high_closed)
