"""Profile-tree node structures.

The profile tree has height ``n`` (one level per attribute).  Every internal
node carries

* **defined edges** — one per sub-range of the attribute that at least one
  candidate profile constrains (Fig. 1's labelled edges such as ``[30, 35)``),
  stored both in configured probe order and in natural ascending order, and
* an optional **residual edge** — the ``*`` / ``(*)`` edge of Fig. 1 taken by
  events whose value falls outside all defined edges, present whenever some
  candidate profile does not constrain the attribute.

Leaves carry the ids of the profiles matched by every event reaching them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Union

from repro.core.subranges import Subrange

__all__ = ["TreeLeaf", "TreeEdge", "TreeNode", "TreeElement"]


@dataclass(frozen=True)
class TreeLeaf:
    """A leaf: the profiles matched by events that reach it."""

    profile_ids: tuple[str, ...]

    @property
    def is_leaf(self) -> bool:
        return True

    def node_count(self) -> int:
        return 1

    def leaf_count(self) -> int:
        return 1

    def max_depth(self) -> int:
        return 0


@dataclass(frozen=True)
class TreeEdge:
    """A defined edge of an internal node.

    ``probe_position`` is the 1-based position of the edge in the node's
    configured probe order (the value-ordering lookup table restricted to
    this node); ``natural_position`` is its 1-based position in the natural
    ascending order of the node's edges, used by binary search and by the
    early-termination rejection rule.
    """

    subrange: Subrange
    child: "TreeElement"
    probe_position: int
    natural_position: int

    def label(self) -> str:
        return self.subrange.label()


@dataclass(frozen=True)
class TreeNode:
    """An internal node of the profile tree (one attribute level)."""

    attribute: str
    #: Defined edges sorted by probe position (the order the matcher scans).
    edges: tuple[TreeEdge, ...]
    #: The same edges sorted by natural ascending order of their sub-ranges.
    natural_edges: tuple[TreeEdge, ...]
    #: Child for events not covered by any defined edge (``*`` / ``(*)``),
    #: present when at least one candidate profile ignores the attribute.
    residual: "TreeElement | None"
    #: Candidate profiles at this node (kept for introspection/statistics).
    candidate_profile_ids: tuple[str, ...]

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def edge_count(self) -> int:
        """Return the number of defined edges."""
        return len(self.edges)

    @property
    def has_residual(self) -> bool:
        return self.residual is not None

    @property
    def is_star_only(self) -> bool:
        """Return ``True`` for a pure ``*`` node (no candidate constrains
        the attribute)."""
        return not self.edges and self.residual is not None

    def edge_for_subrange(self, subrange_index: int) -> TreeEdge | None:
        """Return the defined edge for a partition sub-range index, if any."""
        for edge in self.edges:
            if edge.subrange.index == subrange_index:
                return edge
        return None

    def children(self) -> Iterator["TreeElement"]:
        """Iterate over all children (defined edges first, then residual)."""
        for edge in self.edges:
            yield edge.child
        if self.residual is not None:
            yield self.residual

    # -- structural statistics -------------------------------------------------
    # The figures are those of the *unfolded* tree (a subtree shared by k
    # edges counts k times), computed once per distinct node.
    def node_count(self) -> int:
        """Return the number of nodes (internal + leaves) in this subtree."""
        return _fold(self, 1, lambda children: 1 + sum(children))

    def leaf_count(self) -> int:
        """Return the number of leaves in this subtree."""
        return _fold(self, 1, sum)

    def max_depth(self) -> int:
        """Return the height of this subtree in edges."""
        return _fold(self, 0, lambda children: 1 + max(children, default=0))


def _fold(root: "TreeElement", leaf_value: int, combine: Callable[[list[int]], int]) -> int:
    """Evaluate a bottom-up statistic of the unfolded tree under ``root``.

    The builder shares equal subtrees between edges, so the per-call memo
    is keyed on node identity: each distinct node is combined once, and a
    tree assembled without sharing gives the same result.
    """
    memo: dict[int, int] = {}

    def visit(element: "TreeElement") -> int:
        if element.is_leaf:
            return leaf_value
        value = memo.get(id(element))
        if value is None:
            value = memo[id(element)] = combine([visit(c) for c in element.children()])
        return value

    return visit(root)


#: A tree element is either an internal node or a leaf.
TreeElement = Union[TreeNode, TreeLeaf]
