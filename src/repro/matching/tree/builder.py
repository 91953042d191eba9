"""Profile-tree construction.

From a profile set the builder derives, per attribute, the sub-range
partition (Section 3) and then recursively constructs the tree of height
``n``: level ``j`` branches on the attribute at position ``j`` of the
configured attribute order, profiles that do not constrain the attribute are
replicated under every edge (preserving the single-path property of the
DFSA), and an additional residual ``*``/``(*)`` edge collects events whose
value is outside all defined edges but that may still match don't-care
profiles.  Rebuilding with a different
:class:`~repro.matching.tree.config.TreeConfiguration` performs the
distribution-based restructuring of Section 4.

The replication is logical, not physical: a subtree depends only on its level
and its candidate tuple, so each distinct subtree is built once per
:func:`build_tree` call and every edge reaching the same candidates points at
the same frozen node.  The result is *equal* (dataclass equality) to the tree
the per-edge recursion would unfold — it is that tree stored as the minimised
DFSA — and nothing may mutate a node, since it can hang under many edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping

from repro.core.errors import TreeConstructionError
from repro.core.profiles import ProfileSet
from repro.core.schema import Schema
from repro.core.subranges import AttributePartition, build_partitions
from repro.matching.tree.config import TreeConfiguration
from repro.matching.tree.nodes import TreeEdge, TreeElement, TreeLeaf, TreeNode

__all__ = ["ProfileTree", "build_tree"]

_natural_position = attrgetter("natural_position")


@dataclass(frozen=True)
class ProfileTree:
    """An immutable, fully built profile tree plus its construction inputs."""

    schema: Schema
    configuration: TreeConfiguration
    partitions: Mapping[str, AttributePartition]
    root: TreeElement
    profile_count: int

    # -- structural statistics -------------------------------------------------
    # The paper's figures, i.e. those of the unfolded tree: a subtree shared
    # by k edges counts k times.
    def node_count(self) -> int:
        """Return the total number of nodes (internal and leaves)."""
        return self.root.node_count()

    def leaf_count(self) -> int:
        """Return the number of leaves."""
        return self.root.leaf_count()

    def height(self) -> int:
        """Return the height of the tree in edges (``n`` for a full tree)."""
        return self.root.max_depth()

    def describe(self, *, max_edges: int = 12) -> str:
        """Return an indented textual rendering of the tree (Fig. 1 style)."""
        lines: list[str] = [
            f"profile tree [{self.configuration.label}] "
            f"(attributes: {', '.join(self.configuration.attribute_order)})"
        ]

        def render(element: TreeElement, indent: int, edge_label: str) -> None:
            prefix = "  " * indent
            if element.is_leaf:
                profiles = ", ".join(element.profile_ids) or "-"
                lines.append(f"{prefix}{edge_label} -> {{{profiles}}}")
                return
            lines.append(f"{prefix}{edge_label} [{element.attribute}]")
            shown = 0
            for edge in element.edges:
                if shown >= max_edges:
                    lines.append(f"{prefix}  ... ({element.edge_count - shown} more edges)")
                    break
                render(edge.child, indent + 1, edge.label())
                shown += 1
            if element.residual is not None:
                label = "*" if not element.edges else "(*)"
                render(element.residual, indent + 1, label)

        render(self.root, 0, "root")
        return "\n".join(lines)


def build_tree(
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

    attribute_order = configuration.attribute_order
    value_orders = {
        name: configuration.value_order_for(name, partitions[name])
        for name in attribute_order
    }
    # Per attribute, each profile's own sub-range indices in natural
    # ascending order: a node assigns its edges by walking its constraining
    # candidates' entries rather than testing every candidate against every
    # sub-range of the partition.
    owned_subranges: dict[str, dict[str, list[int]]] = {}
    for name in attribute_order:
        owned = owned_subranges[name] = {}
        for subrange in partitions[name].subranges:
            for pid in subrange.profile_ids:
                owned.setdefault(pid, []).append(subrange.index)

    # A subtree depends only on its level and candidate tuple, so each
    # distinct one is built once per call and shared by every edge reaching
    # it.  Keyed on the tuple (not a set): leaf and candidate id order stay
    # exactly those of the unfolded recursion.
    built: dict[tuple[int, tuple[str, ...]], TreeElement] = {}

    def build_level(candidates: tuple[str, ...], level: int) -> TreeElement:
        key = (level, candidates)
        element = built.get(key)
        if element is None:
            element = built[key] = build_element(candidates, level)
        return element

    def build_element(candidates: tuple[str, ...], level: int) -> TreeElement:
        if level == len(attribute_order):
            return TreeLeaf(candidates)
        attribute = attribute_order[level]
        partition = partitions[attribute]
        probe_position_of = value_orders[attribute].positions.__getitem__
        owned = owned_subranges[attribute]

        # Defined edges: one per partition sub-range accepted by at least one
        # constraining candidate; don't-care candidates are replicated under
        # every edge so the single-path property holds.
        owners_of: dict[int, list[str]] = {}
        dont_care_ids: list[str] = []
        for pid in candidates:
            if not profile_by_id[pid].constrains(attribute):
                dont_care_ids.append(pid)
                continue
            for subrange_index in owned.get(pid, ()):
                owners_of.setdefault(subrange_index, []).append(pid)
        dont_care = tuple(dont_care_ids)

        # Natural positions follow the partition's natural sub-range order;
        # probe positions follow the configured value order.
        natural_order = sorted(owners_of)
        natural_position = {
            subrange_index: rank for rank, subrange_index in enumerate(natural_order, start=1)
        }
        edges = tuple(
            TreeEdge(
                subrange=partition.subranges[subrange_index],
                child=build_level(tuple(owners_of[subrange_index]) + dont_care, level + 1),
                probe_position=probe_position,
                natural_position=natural_position[subrange_index],
            )
            for probe_position, subrange_index in enumerate(
                sorted(natural_order, key=probe_position_of), start=1
            )
        )
        natural_edges = tuple(sorted(edges, key=_natural_position))

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
            edges=edges,
            natural_edges=natural_edges,
            residual=residual,
            candidate_profile_ids=candidates,
        )

    root = build_level(all_ids, 0)
    return ProfileTree(schema, configuration, dict(partitions), root, len(all_ids))
