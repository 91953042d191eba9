"""The profile-tree matcher.

This is the runtime filter component of the paper: events are matched by
following a single root-to-leaf path through the profile tree, probing the
edges of every node with the configured search strategy and counting the
comparison operations.  The matcher can be *restructured* at any time by
supplying a new :class:`~repro.matching.tree.config.TreeConfiguration`
(value and/or attribute reordering) — this is the mechanism the adaptive
filter component of the service layer uses.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.errors import MatchingError, TreeConstructionError
from repro.core.events import Event
from repro.core.profiles import Profile, ProfileSet
from repro.core.subranges import AttributePartition
from repro.matching.interfaces import MatchResult, remove_profile_strict
from repro.matching.tree.builder import ProfileTree, build_tree
from repro.matching.tree.config import TreeConfiguration
from repro.matching.tree.nodes import TreeLeaf, TreeNode
from repro.matching.tree.search import search_node

__all__ = ["TreeMatcher"]


class TreeMatcher:
    """Tree-based content filter with pluggable ordering configuration."""

    def __init__(
        self,
        profiles: ProfileSet,
        configuration: TreeConfiguration | None = None,
    ) -> None:
        self.profiles = profiles
        self._configuration = configuration or TreeConfiguration.natural_for_schema(
            profiles.schema
        )
        self._tree = build_tree(profiles, self._configuration)

    # -- structure access ---------------------------------------------------------
    @property
    def tree(self) -> ProfileTree:
        """Return the currently built profile tree."""
        return self._tree

    @property
    def configuration(self) -> TreeConfiguration:
        """Return the active tree configuration."""
        return self._configuration

    def partitions(self) -> Mapping[str, AttributePartition]:
        """Return the per-attribute sub-range partitions."""
        return self._tree.partitions

    # -- profile maintenance --------------------------------------------------------
    def add_profile(self, profile: Profile) -> None:
        """Register a profile and rebuild the tree.

        Sub-range boundaries may shift when new ranges arrive, so the
        partitions are recomputed from scratch; the configured value orders
        are dropped back to natural order if their length no longer matches
        (the adaptive component re-optimises afterwards).
        """
        self.profiles.add(profile)
        self._rebuild_after_profile_change()

    def _add_admitted(self, profile: Profile) -> None:
        """Register a profile the caller has already validated."""
        self.profiles._admit(profile)
        self._rebuild_after_profile_change()

    def add_profiles(self, profiles: Iterable[Profile]) -> None:
        """Register a batch of profiles with a single tree rebuild.

        Rebuilds even when a mid-batch add fails, so the tree always
        describes the profile set exactly.
        """
        try:
            for profile in profiles:
                self.profiles.add(profile)
        finally:
            self._rebuild_after_profile_change()

    def remove_profile(self, profile_id: str) -> None:
        """Unregister a profile and rebuild the tree.

        Raises :class:`~repro.core.errors.MatchingError` for an unknown
        profile id (the cross-matcher contract).
        """
        remove_profile_strict(self.profiles, profile_id)
        self._rebuild_after_profile_change()

    def _rebuild_after_profile_change(self) -> None:
        try:
            self._tree = build_tree(self.profiles, self._configuration)
        except TreeConstructionError:
            # Value orders sized for the previous partitions can become
            # stale; fall back to natural orders but keep attribute order
            # and search strategy.
            fallback = TreeConfiguration(
                attribute_order=self._configuration.attribute_order,
                value_orders={},
                search=self._configuration.search,
                label=self._configuration.label,
            )
            self._configuration = fallback
            self._tree = build_tree(self.profiles, fallback)

    def reconfigure(self, configuration: TreeConfiguration) -> None:
        """Rebuild the tree under a new configuration (tree restructuring)."""
        self._tree = build_tree(
            self.profiles, configuration, partitions=dict(self._tree.partitions)
        )
        self._configuration = configuration

    def adopt(self, tree: ProfileTree, configuration: TreeConfiguration) -> None:
        """Install an externally built tree without rebuilding.

        The caller guarantees ``tree`` was built from this matcher's
        profile set under ``configuration`` — the tree family's candidate
        uses this to install the tree it already built for costing.
        """
        self._tree = tree
        self._configuration = configuration

    # -- matching ----------------------------------------------------------------------
    def match(self, event: Event) -> MatchResult:
        """Filter one event along its single root-to-leaf path."""
        element = self._tree.root
        strategy = self._configuration.search
        operations = 0
        levels = 0
        while isinstance(element, TreeNode):
            attribute = element.attribute
            if attribute not in event:
                raise MatchingError(
                    f"event {event} does not carry attribute {attribute!r} required "
                    "by the profile tree"
                )
            value = event[attribute]
            partition = self._tree.partitions[attribute]
            located = partition.locate(value)
            if located is not None:
                target_index: int | None = located.index
                rank = located.index
            else:
                target_index = None
                rank = partition.natural_rank(value)
            outcome = search_node(element, target_index, rank, strategy)
            operations += outcome.operations
            levels += 1
            if outcome.edge is not None:
                element = outcome.edge.child
            elif outcome.took_residual:
                element = element.residual  # type: ignore[assignment]
            else:
                return MatchResult(tuple(), operations, levels)
        assert isinstance(element, TreeLeaf)
        return MatchResult(element.profile_ids, operations, levels)

    def match_batch(self, events: Iterable[Event]) -> list[MatchResult]:
        """Filter a sequence of events (amortised dispatch)."""
        match = self.match
        return [match(event) for event in events]
