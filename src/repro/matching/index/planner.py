"""Selectivity-aware index planning.

The :class:`IndexPlanner` decides, per attribute, whether the
:class:`~repro.matching.index.matcher.PredicateIndexMatcher` should answer
that attribute through its hash/interval buckets or fall back to a linear
predicate scan.  The decision compares two expected per-event costs in the
suite's common currency (comparison operations, see
:mod:`repro.matching.interfaces`):

* ``scan_cost`` — the counting baseline's strategy: evaluate each of the
  ``k`` distinct predicates on the attribute once per event, i.e. ``k``
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
otherwise.  The planner also ranks attributes by their estimated rejection
power (the probability that an event value satisfies *no* entry, weighted
like Measure A2's zero-subdomain probability via
:func:`repro.selectivity.attribute_measures.attribute_selectivities`), so
the matcher can probe highly selective attributes first and cut matching
short as soon as a fully-constrained attribute yields no hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.domains import Domain
from repro.core.errors import ReproError, SelectivityError
from repro.core.predicates import Equals, OneOf, Predicate, RangePredicate
from repro.core.schema import Schema
from repro.core.subranges import predicate_partition
from repro.distributions.base import Distribution, project_onto_partition
from repro.distributions.discrete import DiscreteDistribution
from repro.selectivity.attribute_measures import AttributeMeasure, attribute_selectivities

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.profiles import ProfileSet
    from repro.matching.index.buckets import HashBucket, IntervalBucket

__all__ = ["AttributePlan", "IndexPlan", "IndexPlanner"]


@dataclass(frozen=True)
class AttributePlan:
    """The planner's verdict for one attribute.

    The verdict is *per structure*, not just per attribute: the hash side
    (``Equals``/``OneOf`` entries) and the interval side (``RangePredicate``
    entries, answered by the sorted slab decomposition) are costed and
    chosen independently.  A binary (non-hybrid) planner couples both
    flags to the aggregate ``use_index`` decision, which reproduces the
    historical all-or-nothing behaviour exactly.
    """

    attribute: str
    #: ``True`` when the aggregate indexed strategy beats a full scan —
    #: the historical binary verdict, still used by non-hybrid planners.
    use_index: bool
    #: Expected comparisons for the indexed strategy (probe + E[hits]).
    index_cost: float
    #: Expected comparisons for the scan strategy (distinct predicate count).
    scan_cost: float
    #: Number of distinct predicate entries on the attribute.
    entry_count: int
    #: Per-structure verdicts (a binary planner sets both to ``use_index``).
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
        hash_part = self.hash_index_cost if self.use_hash else self.hash_scan_cost
        interval_part = (
            self.interval_index_cost if self.use_interval else self.interval_scan_cost
        )
        return hash_part + interval_part + self.residual_scan_cost

    @property
    def is_hybrid(self) -> bool:
        """True when the two structure verdicts disagree (a mixed plan)."""
        return self.use_hash != self.use_interval


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
        take the recosted verdict."""
        total = 0.0
        for attribute, costs in recosted.items():
            current = self.attributes.get(attribute) or costs
            total += costs.hash_index_cost if current.use_hash else costs.hash_scan_cost
            total += costs.interval_index_cost if current.use_interval else costs.interval_scan_cost
            total += costs.residual_scan_cost
        return total


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
        hybrid: bool = False,
    ) -> None:
        if attribute_measure not in self.SUPPORTED_MEASURES:
            raise SelectivityError(
                f"IndexPlanner supports measures {[m.value for m in self.SUPPORTED_MEASURES]}, "
                f"not {attribute_measure.value!r}"
            )
        self.event_distributions = dict(event_distributions) if event_distributions else {}
        self.attribute_measure = attribute_measure
        #: Hybrid planners choose hash-vs-scan and interval-vs-scan
        #: independently per attribute; binary planners couple both to the
        #: aggregate use_index verdict (the historical behaviour).
        self.hybrid = hybrid

    def _decide(
        self, *, use_index: bool, indexable: int, index_cost: float, scan_cost: float
    ) -> bool:
        """Per-structure verdict: independent when hybrid, coupled otherwise."""
        if not self.hybrid:
            return use_index
        return indexable > 0 and index_cost < scan_cost

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
            self._value_probability(attribute, domain, value) * len(entry_ids)
            for value, entry_ids in bucket.items()
        )

    def expected_interval_hits(
        self, attribute: str, domain: Domain, bucket: "IntervalBucket"
    ) -> float:
        """Return ``E[hits]`` of an interval bucket under ``P_e``.

        The sum of ``P_e(slab) * |cover|`` over the covered slabs, gaps
        first and then points (the order of :meth:`IntervalBucket.slabs`).
        Under a :class:`DiscreteDistribution` — every history estimate on a
        finite domain — the slab masses come from one bisect pair per
        boundary (:meth:`DiscreteDistribution.slab_masses`): O(boundaries ·
        log support), and no interval is built.  Other distributions and
        the uniform assumption price each covered slab as an interval.
        """
        distribution = self.event_distributions.get(attribute)
        if not isinstance(distribution, DiscreteDistribution):
            expected = 0.0
            for slab, entry_ids in bucket.slabs():
                if slab is not None and entry_ids:
                    expected += self._interval_probability(attribute, domain, slab) * len(entry_ids)
            return expected
        gap_masses, point_masses = distribution.slab_masses(bucket.boundaries)
        gap_covers, point_covers = bucket.covers()
        expected = 0.0
        # A cover-less slab adds nothing, and the two slabs ``slabs()``
        # skips while covered — points at an infinite boundary — have no
        # mass, so this sum is the slab walk's, term by term.
        for mass, cover in chain(zip(gap_masses, gap_covers), zip(point_masses, point_covers)):
            if cover:
                expected += mass * len(cover)
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
            # Distinct entries, not per-value registrations: a OneOf entry
            # appears under every accepted value but a scan evaluates the
            # predicate once, so scan_cost must count it once.
            hash_entries = len({i for _, ids in hash_bucket.items() for i in ids})
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
        """Fold component costs into aggregate + per-structure verdicts."""
        indexable = hash_entries + range_entries
        scan_cost = float(indexable + scan_entries)
        index_cost = hash_index_cost + interval_index_cost + float(scan_entries)
        use_index = indexable > 0 and index_cost < scan_cost
        return AttributePlan(
            attribute=attribute,
            use_index=use_index,
            index_cost=index_cost,
            scan_cost=scan_cost,
            entry_count=indexable + scan_entries,
            use_hash=self._decide(
                use_index=use_index,
                indexable=hash_entries,
                index_cost=hash_index_cost,
                scan_cost=float(hash_entries),
            ),
            use_interval=self._decide(
                use_index=use_index,
                indexable=range_entries,
                index_cost=interval_index_cost,
                scan_cost=float(range_entries),
            ),
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
        preserve exactly.  The adaptive ``auto`` engine uses this to
        estimate the index family's cost while running the tree family,
        without paying a full index build per re-optimisation.
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
        self, schema: Schema, constraints: Mapping[str, tuple[Iterable[Predicate], bool]]
    ) -> dict[str, float]:
        """Return the per-attribute rejection power under the configured measure.

        ``constraints`` maps every schema attribute to its distinct
        constraining predicates and whether some profile leaves it
        unconstrained — all the measures read of a profile set, and what
        the index matcher keeps as its entries and free masks — so each
        predicate's accepted subset is computed once, not once per
        profile.  Higher scores mean an event value is more likely
        to satisfy *no* entry of the attribute: Measure A2 (zero-subdomain
        size weighted by its event probability) when the event
        distributions are available, degrading to Measure A1 (relative
        zero-subdomain size) without them.  Returns ``{}`` for ``NATURAL``
        (no ranking) and for workloads the partition builder cannot model —
        callers fall back to schema order either way.
        """
        measure = self.attribute_measure
        if measure is AttributeMeasure.NATURAL:
            return {}
        try:
            partitions = {
                name: predicate_partition(schema.attribute(name), *constraints[name])
                for name in schema.names
            }
            projected = None
            if measure is AttributeMeasure.A2_ZERO_PROBABILITY and self.event_distributions:
                candidate = {
                    name: project_onto_partition(self.event_distributions[name], partition)
                    for name, partition in partitions.items()
                    if name in self.event_distributions
                }
                if len(candidate) == len(partitions):
                    projected = candidate
            if projected is not None:
                return dict(attribute_selectivities(measure, partitions, projected))
            return dict(
                attribute_selectivities(AttributeMeasure.A1_ZERO_FRACTION, partitions)
            )
        except ReproError:
            # Selectivity scoring is an optimisation, not a correctness
            # requirement: workloads the partition builder cannot model
            # (e.g. exotic predicate mixes) fall back to schema order.
            return {}

    def probe_order(
        self, schema: Schema, constraints: Mapping[str, tuple[Iterable[Predicate], bool]]
    ) -> tuple[str, ...]:
        """Return the attribute probe order, most selective first.

        Ranks by :meth:`rejection_scores`; ``NATURAL``, unknown attributes
        and unmodellable workloads keep the schema order.  Ties keep the
        schema order.
        """
        names = list(schema.names)
        scores = self.rejection_scores(schema, constraints)
        if not scores:
            return tuple(names)
        position = {name: index for index, name in enumerate(names)}
        return tuple(sorted(names, key=lambda n: (-scores.get(n, 0.0), position[n])))
