"""Profile-tree configuration: attribute order, value orders, search strategy.

The distribution-based algorithm of the paper reorders

* the **tree levels** (attribute order) according to an attribute-selectivity
  measure (A1-A3), and
* the **edges within each node** (value order) according to a
  value-selectivity measure (V1-V3), natural order, or leaves them to binary
  search.

A :class:`TreeConfiguration` captures one concrete choice of all three and is
all that is needed to (re)build a tree: the same profile set with two
different configurations yields the paper's "original" and "reordered" trees
(Fig. 1 vs Fig. 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from repro.core.errors import TreeConstructionError
from repro.core.schema import Schema
from repro.core.subranges import AttributePartition

__all__ = ["SearchStrategy", "ValueOrder", "TreeConfiguration"]


class SearchStrategy(str, enum.Enum):
    """How the edges of a tree node are probed during matching."""

    #: Linear scan in the configured value order with early termination.
    LINEAR = "linear"
    #: Binary search over the natural (ascending) order of the node's edges.
    BINARY = "binary"


@dataclass(frozen=True)
class ValueOrder:
    """Probe order of the sub-ranges of one attribute.

    ``positions[i]`` is the 1-based probe position of the partition's
    sub-range with index ``i`` — this is exactly the lookup table of the
    paper's Example 5 ("the table contains a position for each element,
    where position relates to the reference of the value in the defined
    order").
    """

    attribute: str
    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.positions) != list(range(1, len(self.positions) + 1)):
            raise TreeConstructionError(
                f"value order for {self.attribute!r} must be a permutation of "
                f"1..{len(self.positions)}, got {self.positions}"
            )

    @classmethod
    def natural(cls, attribute: str, subrange_count: int) -> "ValueOrder":
        """Return the natural ascending order (identity permutation)."""
        return cls(attribute, tuple(range(1, subrange_count + 1)))

    @classmethod
    def from_ranking(cls, attribute: str, ranked_indices: Sequence[int]) -> "ValueOrder":
        """Build an order from sub-range indices listed best-first.

        ``ranked_indices[k]`` is the partition sub-range index probed at
        position ``k + 1``.
        """
        positions = [0] * len(ranked_indices)
        for probe_position, subrange_index in enumerate(ranked_indices, start=1):
            if not 0 <= subrange_index < len(ranked_indices):
                raise TreeConstructionError(
                    f"sub-range index {subrange_index} out of range for {attribute!r}"
                )
            if positions[subrange_index]:
                raise TreeConstructionError(
                    f"sub-range index {subrange_index} listed twice for {attribute!r}"
                )
            positions[subrange_index] = probe_position
        return cls(attribute, tuple(positions))

    def position_of(self, subrange_index: int) -> int:
        """Return the probe position (1-based) of one sub-range."""
        return self.positions[subrange_index]

    def ranked_indices(self) -> list[int]:
        """Return sub-range indices sorted by probe position (best first)."""
        return sorted(range(len(self.positions)), key=lambda i: self.positions[i])

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class TreeConfiguration:
    """A complete configuration of the profile tree.

    Attributes
    ----------
    attribute_order:
        Attribute names from the root level downwards.
    value_orders:
        Per-attribute probe order of the partition sub-ranges; attributes
        without an entry use natural order.
    search:
        Probe strategy inside each node (linear with early termination, or
        binary search over the natural order).
    label:
        Free-form description used in reports (e.g. ``"V1 + A2"``).
    """

    attribute_order: tuple[str, ...]
    value_orders: Mapping[str, ValueOrder] = field(default_factory=dict)
    search: SearchStrategy = SearchStrategy.LINEAR
    label: str = "natural"

    def __post_init__(self) -> None:
        object.__setattr__(self, "attribute_order", tuple(self.attribute_order))
        object.__setattr__(self, "value_orders", dict(self.value_orders))
        for attribute, order in self.value_orders.items():
            if attribute not in self.attribute_order:
                raise TreeConstructionError(
                    f"value order given for attribute {attribute!r} which is not "
                    f"in the attribute order {self.attribute_order}"
                )
            if order.attribute != attribute:
                raise TreeConstructionError(
                    f"value order labelled {order.attribute!r} assigned to {attribute!r}"
                )

    @classmethod
    def natural_for_schema(
        cls, schema: Schema, *, search: SearchStrategy = SearchStrategy.LINEAR
    ) -> "TreeConfiguration":
        """Return the un-reordered configuration (schema order, natural values)."""
        return cls(tuple(schema.names), {}, search, label="natural")

    def value_order_for(
        self, attribute: str, partition: AttributePartition
    ) -> ValueOrder:
        """Return the value order of ``attribute`` (natural when unspecified)."""
        order = self.value_orders.get(attribute)
        if order is None:
            return ValueOrder.natural(attribute, len(partition.subranges))
        if len(order) != len(partition.subranges):
            raise TreeConstructionError(
                f"value order for {attribute!r} covers {len(order)} sub-ranges but the "
                f"partition has {len(partition.subranges)}"
            )
        return order

    def with_attribute_order(
        self, names: Sequence[str], *, label: str | None = None
    ) -> "TreeConfiguration":
        """Return a copy with a different attribute (level) order."""
        return replace(
            self,
            attribute_order=tuple(names),
            label=label if label is not None else self.label,
        )
