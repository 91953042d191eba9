"""Unfolded references for the profile tree's builder, counts and cost walk.

Until ISSUE 23 these *were* the implementations under ``src/``:
``build_tree`` recursed once per *edge*, re-deriving the same subtree under
every edge that led to the same candidate tuple and testing every candidate
against every sub-range of the partition; ``expected_tree_cost`` was a
depth-first walk over that unfolded tree accumulating reach probabilities
top-down; and the structural counts recursed per edge.  They are kept here,
unoptimised, as the oracles the hash-consed builder and the per-distinct-node
summaries are compared against: the built tree must be *equal* (dataclass
equality, so ids, edge order and positions included), the counts identical,
and every ``TreeCost`` field within 1e-9 relative (the bottom-up composition
sums in a different order than this accumulator).
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.cost_model import TreeCost, node_gap_probabilities
from repro.core.errors import MatchingError, TreeConstructionError
from repro.core.profiles import ProfileSet
from repro.core.subranges import AttributePartition, Subrange, build_partitions
from repro.distributions.base import Distribution
from repro.matching.tree.builder import ProfileTree
from repro.matching.tree.config import TreeConfiguration
from repro.matching.tree.nodes import TreeEdge, TreeElement, TreeLeaf, TreeNode
from repro.matching.tree.search import absence_cost_for_gap, find_cost

__all__ = [
    "reference_build_tree",
    "reference_expected_tree_cost",
    "unfolded_node_count",
    "unfolded_leaf_count",
    "unfolded_height",
    "stored_node_count",
]


def unfolded_node_count(element: TreeElement) -> int:
    """Nodes (internal + leaves) of the unfolded tree, one visit per edge."""
    if element.is_leaf:
        return 1
    return 1 + sum(unfolded_node_count(child) for child in element.children())


def unfolded_leaf_count(element: TreeElement) -> int:
    """Leaves of the unfolded tree, one visit per edge."""
    if element.is_leaf:
        return 1
    return sum(unfolded_leaf_count(child) for child in element.children())


def unfolded_height(element: TreeElement) -> int:
    """Height in edges, one visit per edge."""
    if element.is_leaf:
        return 0
    depths = [unfolded_height(child) for child in element.children()]
    return 1 + (max(depths) if depths else 0)


def stored_node_count(element: TreeElement) -> int:
    """Distinct node objects (by identity) reachable from ``element``."""
    seen: dict[int, TreeElement] = {}
    stack = [element]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen[id(current)] = current
        if not current.is_leaf:
            stack.extend(current.children())
    return len(seen)


def reference_build_tree(
    profiles: ProfileSet,
    configuration: TreeConfiguration | None = None,
    *,
    partitions: Mapping[str, AttributePartition] | None = None,
) -> ProfileTree:
    """Build the profile tree for ``profiles`` under ``configuration``.

    ``partitions`` may be supplied to avoid recomputing the per-attribute
    sub-range decompositions when the same profile set is rebuilt under many
    configurations (as the reordering experiments do).
    """
    schema = profiles.schema
    if configuration is None:
        configuration = TreeConfiguration.natural_for_schema(schema)
    unknown = [a for a in configuration.attribute_order if a not in schema]
    if unknown:
        raise TreeConstructionError(f"configuration references unknown attributes {unknown}")
    if sorted(configuration.attribute_order) != sorted(schema.names):
        raise TreeConstructionError(
            "configuration attribute order must be a permutation of the schema "
            f"attributes {schema.names}, got {list(configuration.attribute_order)}"
        )
    if partitions is None:
        partitions = build_partitions(profiles)

    profile_by_id = {p.profile_id: p for p in profiles}
    all_ids = tuple(profile_by_id)
    if not all_ids:
        return ProfileTree(schema, configuration, dict(partitions), TreeLeaf(tuple()), 0)

    value_orders = {
        name: configuration.value_order_for(name, partitions[name])
        for name in configuration.attribute_order
    }

    def build_level(candidates: tuple[str, ...], level: int) -> TreeElement:
        if level == len(configuration.attribute_order):
            return TreeLeaf(candidates)
        attribute = configuration.attribute_order[level]
        partition = partitions[attribute]
        order = value_orders[attribute]

        constraining = [
            pid for pid in candidates if profile_by_id[pid].constrains(attribute)
        ]
        dont_care = tuple(
            pid for pid in candidates if not profile_by_id[pid].constrains(attribute)
        )
        # Defined edges: one per partition sub-range accepted by at least one
        # constraining candidate; don't-care candidates are replicated under
        # every edge so the single-path property holds.
        edge_specs: list[tuple[int, tuple[str, ...]]] = []
        for subrange in partition.subranges:
            owners = [pid for pid in constraining if pid in subrange.profile_ids]
            if not owners:
                continue
            child_candidates = tuple(owners) + dont_care
            edge_specs.append((subrange.index, child_candidates))

        # Natural positions follow the partition's natural sub-range order;
        # probe positions follow the configured value order.
        natural_rank = {
            subrange_index: rank + 1
            for rank, (subrange_index, _) in enumerate(edge_specs)
        }
        probe_rank_source = sorted(
            edge_specs, key=lambda spec: order.position_of(spec[0])
        )
        probe_rank = {
            subrange_index: rank + 1
            for rank, (subrange_index, _) in enumerate(probe_rank_source)
        }

        edges = []
        for subrange_index, child_candidates in probe_rank_source:
            subrange = partition.subranges[subrange_index]
            child = build_level(child_candidates, level + 1)
            edges.append(
                TreeEdge(
                    subrange=subrange,
                    child=child,
                    probe_position=probe_rank[subrange_index],
                    natural_position=natural_rank[subrange_index],
                )
            )
        natural_edges = tuple(sorted(edges, key=lambda e: e.natural_position))

        residual: TreeElement | None = None
        if dont_care:
            residual = build_level(dont_care, level + 1)

        if not edges and residual is None:
            # No candidate profile can match any event at this node; this can
            # only happen for an empty candidate set, which the recursion
            # never produces, but guard against it for robustness.
            return TreeLeaf(tuple())

        return TreeNode(
            attribute=attribute,
            edges=tuple(edges),
            natural_edges=natural_edges,
            residual=residual,
            candidate_profile_ids=candidates,
        )

    root = build_level(all_ids, 0)
    return ProfileTree(schema, configuration, dict(partitions), root, len(all_ids))


def reference_expected_tree_cost(
    tree: ProfileTree,
    event_distributions: Mapping[str, Distribution],
) -> TreeCost:
    """Return the expected filtering cost of ``tree`` under the given
    per-attribute event distributions (attributes assumed independent).

    The walk visits every node once, weighting its expected probe count by
    the probability that an event reaches it; rejection and residual-edge
    costs use the same conventions as the runtime matcher.
    """
    missing = [
        name for name in tree.configuration.attribute_order if name not in event_distributions
    ]
    if missing:
        raise MatchingError(f"missing event distributions for attributes {missing}")

    strategy = tree.configuration.search
    level_count = len(tree.configuration.attribute_order)
    per_level = [0.0] * level_count
    total = 0.0
    match_probability = 0.0
    expected_notifications = 0.0
    # Per-profile accumulation of (probability, probability * path cost).
    profile_mass: dict[str, float] = {}
    profile_weighted_cost: dict[str, float] = {}

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

    def walk(element, reach_probability: float, level: int, path_cost: float) -> None:
        nonlocal total, match_probability, expected_notifications
        if reach_probability <= 0:
            return
        if isinstance(element, TreeLeaf):
            match_probability += reach_probability if element.profile_ids else 0.0
            expected_notifications += reach_probability * len(element.profile_ids)
            for profile_id in element.profile_ids:
                profile_mass[profile_id] = profile_mass.get(profile_id, 0.0) + reach_probability
                profile_weighted_cost[profile_id] = (
                    profile_weighted_cost.get(profile_id, 0.0) + reach_probability * path_cost
                )
            return
        node: TreeNode = element
        attribute = node.attribute

        node_expected = 0.0
        edge_probabilities: list[float] = []
        for edge in node.edges:
            probability = cached_subrange_probability(attribute, edge.subrange)
            edge_probabilities.append(probability)
            cost = find_cost(node, edge, strategy)
            node_expected += probability * cost

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

        total += reach_probability * node_expected
        per_level[level] += reach_probability * node_expected

        # Recurse along defined edges.
        for edge, probability in zip(node.edges, edge_probabilities):
            cost = find_cost(node, edge, strategy)
            walk(edge.child, reach_probability * probability, level + 1, path_cost + cost)
        # Recurse along the residual edge (conditional expected cost).
        if node.has_residual and outside_probability > 0:
            residual_cost = expected_absence_cost / outside_probability
            walk(
                node.residual,
                reach_probability * outside_probability,
                level + 1,
                path_cost + residual_cost,
            )

    walk(tree.root, 1.0, 0, 0.0)

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
