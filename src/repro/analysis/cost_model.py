"""Analytical cost model (Section 3, Eq. 2 and its generalisation).

The paper expresses the response time of the filter, measured in comparison
operations, as

    R(a, P_p, P_e) = E(X) + R_0(P_e, x_0)                         (Eq. 2)

per attribute, where ``E(X)`` is the expectation of the probe position of
the event value's sub-range under the chosen edge ordering and ``R_0 = r_0 *
P_e(x_0)`` accounts for events falling into the zero-subdomain.  For the
full tree the response time is the sum of conditional expectations over the
levels.

This module computes these quantities *exactly* for a built
:class:`~repro.matching.tree.builder.ProfileTree` and per-attribute event
distributions (independence across attributes is assumed, as in the paper's
experiments).  The same cost conventions as the runtime matcher are used —
see :mod:`repro.matching.tree.search` — so the analytical numbers (test
scenario TV4) and the simulated numbers (TV1-TV3) agree up to sampling
noise; this is validated by the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.domains import DiscreteDomain
from repro.core.errors import MatchingError
from repro.core.intervals import Interval
from repro.core.subranges import AttributePartition, Subrange
from repro.distributions.base import Distribution
from repro.matching.tree.builder import ProfileTree
from repro.matching.tree.config import SearchStrategy, ValueOrder
from repro.matching.tree.nodes import TreeElement, TreeLeaf, TreeNode
from repro.matching.tree.search import (
    absence_cost_for_gap,
    binary_search_depth,
    binary_search_max_depth,
    find_cost,
)

__all__ = [
    "AttributeCost",
    "TreeCost",
    "attribute_response_time",
    "expected_tree_cost",
    "node_gap_probabilities",
]


@dataclass(frozen=True)
class AttributeCost:
    """Expected cost of filtering one attribute (single-node view, Eq. 2)."""

    #: ``E(X)`` — expected probe position over matching (defined) values.
    expectation: float
    #: ``R_0`` — expected operations spent rejecting zero-subdomain values.
    rejection: float

    @property
    def total(self) -> float:
        """Return ``R = E(X) + R_0``."""
        return self.expectation + self.rejection


@dataclass(frozen=True)
class TreeCost:
    """Expected cost of filtering a full profile tree."""

    #: Expected comparison operations per event (the Fig. 4/5(a)/6 metric).
    operations_per_event: float
    #: Expected operations per level, indexed by tree level (conditional
    #: expectations ``E(X_j | X_{j-1}, ...)`` including rejection costs).
    per_level: tuple[float, ...]
    #: Probability that an event matches at least one profile.
    match_probability: float
    #: Expected number of (event, profile) notifications per event.
    expected_notifications: float
    #: Expected operations conditioned on matching, per profile id.
    per_profile: Mapping[str, float]

    @property
    def operations_per_profile(self) -> float:
        """Return the Fig. 5(b) metric: per-profile costs averaged over
        profiles that can be notified at all."""
        if not self.per_profile:
            raise MatchingError("no profile is reachable in the tree")
        return sum(self.per_profile.values()) / len(self.per_profile)

    @property
    def operations_per_event_and_profile(self) -> float:
        """Return the Fig. 5(c) metric: operations per delivered notification."""
        if self.expected_notifications <= 0:
            raise MatchingError("the event distribution produces no notifications")
        return self.operations_per_event / self.expected_notifications


# ---------------------------------------------------------------------------
# Single-attribute model (Eq. 2) — used by Examples 2-4 and scenario TV4.
# ---------------------------------------------------------------------------

def attribute_response_time(
    partition: AttributePartition,
    distribution: Distribution,
    value_order: ValueOrder | None = None,
    *,
    strategy: SearchStrategy = SearchStrategy.LINEAR,
) -> AttributeCost:
    """Return ``E(X)`` and ``R_0`` for a single attribute (Eq. 2).

    The "tree" for a single attribute is one node carrying every defined
    sub-range as an edge.  ``value_order`` defaults to the natural order.
    """
    subranges = partition.subranges
    count = len(subranges)
    if value_order is None:
        value_order = ValueOrder.natural(partition.attribute.name, count)
    if len(value_order) != count:
        raise MatchingError(
            f"value order covers {len(value_order)} sub-ranges, partition has {count}"
        )

    expectation = 0.0
    for subrange in subranges:
        probability = distribution.probability_of_subrange(subrange)
        if strategy is SearchStrategy.BINARY:
            cost = binary_search_depth(subrange.index, count)
        else:
            cost = value_order.position_of(subrange.index)
        expectation += probability * cost

    rejection = 0.0
    gap_probabilities = _gap_probabilities_for_subranges(subranges, partition, distribution)
    for gap_index, probability in enumerate(gap_probabilities):
        if probability <= 0:
            continue
        if strategy is SearchStrategy.BINARY:
            cost = binary_search_max_depth(count)
        else:
            cost = min(gap_index + 1, count) if count else 0
        rejection += probability * cost
    return AttributeCost(expectation, rejection)


# ---------------------------------------------------------------------------
# Gap probabilities (rejection geometry).
# ---------------------------------------------------------------------------

def _point_interval_for(subrange: Subrange, partition: AttributePartition) -> Interval:
    """Return the interval representation of a sub-range for gap geometry."""
    if subrange.interval is not None:
        return subrange.interval
    domain = partition.attribute.domain
    if isinstance(domain, DiscreteDomain):
        return Interval.point(domain.index_of(subrange.value))
    return Interval.point(float(subrange.value))  # type: ignore[arg-type]


def _gap_probabilities_for_subranges(
    subranges: Sequence[Subrange],
    partition: AttributePartition,
    distribution: Distribution,
) -> list[float]:
    """Return the probability of each gap between consecutive sub-ranges.

    Gaps are indexed 0..k for k sub-ranges: gap 0 lies below the first
    sub-range, gap i between sub-range i and i+1, gap k above the last one.
    The probabilities cover exactly the event values on none of the given
    sub-ranges (for the full partition this is the zero-subdomain D_0).
    """
    domain = partition.attribute.domain
    full = domain.full_interval()
    count = len(subranges)
    if count == 0:
        return [1.0]
    intervals = [_point_interval_for(s, partition) for s in subranges]
    probabilities: list[float] = []
    # Gap below the first sub-range.
    first = intervals[0]
    probabilities.append(
        _interval_probability(
            distribution,
            full.low,
            first.low,
            full.low_closed,
            not first.low_closed,
        )
    )
    # Gaps between consecutive sub-ranges.
    for left, right in zip(intervals, intervals[1:]):
        probabilities.append(
            _interval_probability(
                distribution,
                left.high,
                right.low,
                not left.high_closed,
                not right.low_closed,
            )
        )
    # Gap above the last sub-range.
    last = intervals[-1]
    probabilities.append(
        _interval_probability(
            distribution,
            last.high,
            full.high,
            not last.high_closed,
            full.high_closed,
        )
    )
    return probabilities


def _interval_probability(
    distribution: Distribution,
    low: float,
    high: float,
    low_closed: bool,
    high_closed: bool,
) -> float:
    """Return the probability of an interval, tolerating empty intervals."""
    if low > high:
        return 0.0
    if low == high and not (low_closed and high_closed):
        return 0.0
    return distribution.probability_of_interval(Interval(low, high, low_closed, high_closed))


def node_gap_probabilities(
    node: TreeNode,
    partition: AttributePartition,
    distribution: Distribution,
) -> list[float]:
    """Return the gap probabilities of one tree node's defined edges."""
    subranges = [edge.subrange for edge in node.natural_edges]
    return _gap_probabilities_for_subranges(subranges, partition, distribution)


# ---------------------------------------------------------------------------
# Full-tree model.
# ---------------------------------------------------------------------------

def expected_tree_cost(
    tree: ProfileTree,
    event_distributions: Mapping[str, Distribution],
) -> TreeCost:
    """Return the expected filtering cost of ``tree`` under the given
    per-attribute event distributions (attributes assumed independent).

    The tree is swept level by level from the root, carrying for each
    distinct node the probability that an event reaches it and the
    probability-weighted probes spent on the paths leading there; a node's
    expected probe count is weighted by the former.  The builder shares
    equal subtrees between edges, so the work is proportional to the stored
    nodes, not to the unfolded tree; a level's nodes are keyed on identity,
    so a tree assembled without sharing costs the same, just without the
    saving.  Rejection and residual-edge costs use the same conventions as
    the runtime matcher.
    """
    missing = [
        name for name in tree.configuration.attribute_order if name not in event_distributions
    ]
    if missing:
        raise MatchingError(f"missing event distributions for attributes {missing}")

    strategy = tree.configuration.search

    # The same sub-ranges and gap intervals recur at many nodes of the tree,
    # so cache their probabilities per attribute.  Gap probabilities are
    # keyed by the tuple of edge sub-range indices at the node.
    subrange_probability_cache: dict[tuple[str, int], float] = {}
    gap_probability_cache: dict[tuple[str, tuple[int, ...]], list[float]] = {}

    def cached_subrange_probability(attribute: str, edge_subrange: Subrange) -> float:
        key = (attribute, edge_subrange.index)
        if key not in subrange_probability_cache:
            subrange_probability_cache[key] = event_distributions[
                attribute
            ].probability_of_subrange(edge_subrange)
        return subrange_probability_cache[key]

    def cached_gap_probabilities(attribute: str, node: TreeNode) -> list[float]:
        key = (attribute, tuple(edge.subrange.index for edge in node.natural_edges))
        if key not in gap_probability_cache:
            gap_probability_cache[key] = node_gap_probabilities(
                node, tree.partitions[attribute], event_distributions[attribute]
            )
        return gap_probability_cache[key]

    per_level = [0.0] * len(tree.configuration.attribute_order)
    total = 0.0
    match_probability = 0.0
    expected_notifications = 0.0
    # Per-profile accumulation of (probability, probability * path cost).
    profile_mass: dict[str, float] = {}
    profile_weighted_cost: dict[str, float] = {}

    # One level of the tree is a dict: node identity -> [node, probability
    # of reaching it, sum over the paths reaching it of probability * path
    # cost].  ``carry`` adds one branch's share to the level below.
    def carry(
        below: dict[int, list], child: TreeElement, reach: float, weighted_cost: float
    ) -> None:
        # Zero-probability branches are pruned, not carried.
        if reach <= 0:
            return
        entry = below.get(id(child))
        if entry is None:
            below[id(child)] = [child, reach, weighted_cost]
        else:
            entry[1] += reach
            entry[2] += weighted_cost

    frontier: dict[int, list] = {id(tree.root): [tree.root, 1.0, 0.0]}
    level = 0
    while frontier:
        below: dict[int, list] = {}
        for element, reach_probability, reach_cost in frontier.values():
            if isinstance(element, TreeLeaf):
                match_probability += reach_probability if element.profile_ids else 0.0
                expected_notifications += reach_probability * len(element.profile_ids)
                for profile_id in element.profile_ids:
                    profile_mass[profile_id] = (
                        profile_mass.get(profile_id, 0.0) + reach_probability
                    )
                    profile_weighted_cost[profile_id] = (
                        profile_weighted_cost.get(profile_id, 0.0) + reach_cost
                    )
                continue
            node: TreeNode = element
            attribute = node.attribute

            node_expected = 0.0
            for edge in node.edges:
                probability = cached_subrange_probability(attribute, edge.subrange)
                cost = find_cost(node, edge, strategy)
                node_expected += probability * cost
                carry(
                    below,
                    edge.child,
                    reach_probability * probability,
                    (reach_cost + reach_probability * cost) * probability,
                )

            gap_probabilities = cached_gap_probabilities(attribute, node)
            outside_probability = sum(gap_probabilities)
            expected_absence_cost = 0.0
            for gap_index, probability in enumerate(gap_probabilities):
                if probability <= 0:
                    continue
                expected_absence_cost += probability * absence_cost_for_gap(
                    node, gap_index, strategy
                )
            if node.has_residual:
                # One extra probe for taking the * / (*) edge.
                expected_absence_cost += outside_probability * 1.0
            node_expected += expected_absence_cost
            if node.has_residual and outside_probability > 0:
                # The residual edge is taken at the conditional expected
                # cost, expected_absence_cost / outside_probability.
                carry(
                    below,
                    node.residual,
                    reach_probability * outside_probability,
                    reach_cost * outside_probability
                    + reach_probability * expected_absence_cost,
                )

            total += reach_probability * node_expected
            per_level[level] += reach_probability * node_expected

        frontier = below
        level += 1

    per_profile = {
        profile_id: profile_weighted_cost[profile_id] / mass
        for profile_id, mass in profile_mass.items()
        if mass > 0
    }
    return TreeCost(
        operations_per_event=total,
        per_level=tuple(per_level),
        match_probability=match_probability,
        expected_notifications=expected_notifications,
        per_profile=per_profile,
    )
