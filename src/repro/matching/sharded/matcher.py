"""The sharded parallel matcher (partitioned predicate indexes).

:class:`ShardedMatcher` partitions the profile population across N
independent :class:`~repro.matching.index.matcher.PredicateIndexMatcher`
shards and filters every event against all of them, merging the per-shard
results.  Profiles are routed by **dense id modulo shard count**: a global
allocator with a free list assigns each profile a dense integer id (ids
are recycled on churn, exactly like the index matcher's own allocator),
and ``dense % shard_count`` names the owning shard — so placement is
deterministic, balanced under churn, and independent of profile-id
strings.

Equivalence contract
--------------------
Matching is **bit-identical** to the single-shard index engine for every
shard count: each shard reports its matches in global profile-insertion
order (a shard's profile set receives its profiles in global insertion
order, and the index matcher reports in insertion order), and the merge
re-sorts the concatenation by a global monotone insertion stamp — the
same stamp discipline ``PredicateIndexMatcher._order_pos`` uses.  Match
sets and their order therefore equal the unsharded engine's exactly; the
hypothesis suite in ``tests/matching/test_sharded.py`` locks this.

**Operation accounting** is the sum over shards.  Every shard answers an
event with its own planner-chosen probe pipeline over its own (smaller)
buckets, so at ``shard_count=1`` the count equals the single-shard index
engine's exactly, while at higher counts it remains deterministic for a
given add/remove history (the benchmark baseline gates it) but differs
from the unsharded count — N probes instead of one buy the parallelism.

Parallelism
-----------
:meth:`match_batch` fans the *whole* batch to every shard through the
pluggable :mod:`~repro.matching.sharded.executor` seam (threads by
default; each shard owns its scratch state, so no locking is needed) and
merges the per-shard result lists event by event.  Per-event
:meth:`match` stays serial — fan-out overhead cannot amortise on one
event.  Churn (:meth:`add_profile` / :meth:`remove_profile`) routes
through the owning shard's incremental postings-delta path, so
subscription churn stays O(delta) and never touches the other shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.errors import MatchingError
from repro.core.events import Event
from repro.core.profiles import Profile, ProfileSet
from repro.distributions.base import Distribution
from repro.matching.index import kernel
from repro.matching.index.matcher import PredicateIndexMatcher
from repro.matching.index.planner import IndexPlanner
from repro.matching.interfaces import MatchResult
from repro.matching.sharded.executor import (
    ShardExecutor,
    default_shard_count,
    resolve_shard_executor,
)

__all__ = ["ShardStats", "ShardedMatcher"]


@dataclass(frozen=True)
class ShardStats:
    """Snapshot of a sharded matcher's partitioning (for observability)."""

    #: Number of index shards the profile population is partitioned over.
    shard_count: int
    #: Shard-executor backend name (``"serial"`` / ``"threads"`` / custom).
    executor: str
    #: Live profiles per shard, in shard order.
    profiles_per_shard: tuple[int, ...]

    @property
    def total_profiles(self) -> int:
        """Return the live profile count across all shards."""
        return sum(self.profiles_per_shard)

    @property
    def imbalance(self) -> float:
        """Return largest-shard / ideal-share load (1.0 = perfectly even)."""
        total = self.total_profiles
        if total == 0:
            return 1.0
        ideal = total / self.shard_count
        return max(self.profiles_per_shard) / ideal


class ShardedMatcher:
    """Partition-parallel counting matcher over N predicate-index shards."""

    def __init__(
        self,
        profiles: ProfileSet,
        *,
        shard_count: int | None = None,
        planner: IndexPlanner | None = None,
        min_columnar_batch: int | None = None,
        executor: "str | ShardExecutor | None" = None,
    ) -> None:
        if shard_count is None:
            shard_count = default_shard_count()
        if shard_count < 1:
            raise MatchingError("shard_count must be at least 1")
        self.profiles = profiles
        self.shard_count = shard_count
        self._executor = resolve_shard_executor(executor, shard_count)
        #: Dense-id allocator with a free list: ``dense % shard_count``
        #: names the owning shard, and recycled ids land on the shard the
        #: departed profile occupied (deterministic placement under churn).
        self._id_of: dict[str, int] = {}
        self._free_ids: list[int] = []
        self._next_dense = 0
        #: Global monotone insertion stamps — the merge key that keeps the
        #: merged match order identical to the unsharded engine's.
        self._order_of: dict[str, int] = {}
        self._order_counter = 0
        self._shard_of: dict[str, int] = {}

        schema = profiles.schema
        shard_sets = [ProfileSet(schema) for _ in range(shard_count)]
        for profile in profiles:
            shard_sets[self._register(profile.profile_id)].add(profile)
        planner = planner if planner is not None else IndexPlanner()
        self._shards: tuple[PredicateIndexMatcher, ...] = tuple(
            PredicateIndexMatcher(
                shard_set, planner=planner, min_columnar_batch=min_columnar_batch
            )
            for shard_set in shard_sets
        )

    # -- routing ------------------------------------------------------------------
    def _register(self, profile_id: str) -> int:
        """Allocate a dense id + insertion stamp; return the owning shard."""
        if self._free_ids:
            dense = self._free_ids.pop()
        else:
            dense = self._next_dense
            self._next_dense += 1
        self._id_of[profile_id] = dense
        self._order_of[profile_id] = self._order_counter
        self._order_counter += 1
        shard_index = dense % self.shard_count
        self._shard_of[profile_id] = shard_index
        return shard_index

    @property
    def shards(self) -> tuple[PredicateIndexMatcher, ...]:
        """Return the per-shard index matchers, in shard order."""
        return self._shards

    @property
    def executor(self) -> ShardExecutor:
        """Return the shard-execution backend."""
        return self._executor

    def shard_of(self, profile_id: str) -> int:
        """Return the shard index owning ``profile_id`` (raises if unknown)."""
        try:
            return self._shard_of[profile_id]
        except KeyError as exc:
            raise MatchingError(f"unknown profile id {profile_id!r}") from exc

    def shard_stats(self) -> ShardStats:
        """Return a partitioning snapshot (feeds ``ServiceStats.shards``)."""
        return ShardStats(
            shard_count=self.shard_count,
            executor=self._executor.mode,
            profiles_per_shard=tuple(len(shard.profiles) for shard in self._shards),
        )

    # -- maintenance --------------------------------------------------------------
    def add_profile(self, profile: Profile) -> None:
        """Register a profile through its owning shard's postings deltas."""
        self.profiles.add(profile)
        shard_index = self._register(profile.profile_id)
        self._shards[shard_index].add_profile(profile)

    def add_profiles(self, profiles: Iterable[Profile]) -> None:
        """Register a batch, grouped per shard for the shards' bulk path.

        Mirrors the index matcher's semantics on a mid-batch failure
        (e.g. a duplicate id): the successfully registered prefix stays
        live — the shards absorb it before the error propagates.
        """
        staged: list[tuple[Profile, int]] = []
        try:
            for profile in profiles:
                self.profiles.add(profile)
                staged.append((profile, self._register(profile.profile_id)))
        finally:
            groups: dict[int, list[Profile]] = {}
            for profile, shard_index in staged:
                groups.setdefault(shard_index, []).append(profile)
            for shard_index, group in groups.items():
                self._shards[shard_index].add_profiles(group)

    def remove_profile(self, profile_id: str) -> None:
        """Unregister a profile from its owning shard (O(delta) churn).

        Raises :class:`~repro.core.errors.MatchingError` for an unknown
        profile id (the cross-matcher contract); the freed dense id is
        recycled, so a later add reuses the departed profile's shard slot.
        """
        shard_index = self._shard_of.get(profile_id)
        if shard_index is None:
            raise MatchingError(f"unknown profile id {profile_id!r}")
        self._shards[shard_index].remove_profile(profile_id)
        self.profiles.remove(profile_id)
        self._free_ids.append(self._id_of.pop(profile_id))
        del self._order_of[profile_id]
        del self._shard_of[profile_id]

    # -- planning -----------------------------------------------------------------
    def replan(self, event_distributions: Mapping[str, Distribution]) -> None:
        """Replan every shard with distribution-aware planning."""
        for shard in self._shards:
            shard.replan(event_distributions)

    def estimated_cost(
        self, event_distributions: Mapping[str, Distribution] | None = None
    ) -> float:
        """Return the expected comparisons/event summed over the shards."""
        return sum(
            shard.estimated_cost(event_distributions) for shard in self._shards
        )

    @property
    def min_columnar_batch(self) -> int:
        """Return the shards' effective columnar-kernel cutover."""
        return self._shards[0].min_columnar_batch

    @property
    def kernel_stats(self) -> kernel.KernelStats:
        """Return the columnar-kernel accounting folded across the shards.

        Computed on read (the shards own the live counters), so the fold
        is exact at any point — including after churn and replans, whose
        per-shard stats survive inside each shard instance.
        """
        total = kernel.KernelStats()
        for shard in self._shards:
            total.merge(shard.kernel_stats)
        return total

    # -- matching -----------------------------------------------------------------
    def _merge_one(self, results: Iterable[MatchResult]) -> MatchResult:
        """Merge one event's per-shard results (order, ops, levels)."""
        matched: list[str] = []
        operations = 0
        visited = 0
        for result in results:
            matched.extend(result.matched_profile_ids)
            operations += result.operations
            if result.visited_levels > visited:
                visited = result.visited_levels
        if len(matched) > 1:
            # Each shard list is already in global insertion order, so the
            # sort only interleaves the per-shard subsequences.
            matched.sort(key=self._order_of.__getitem__)
        return MatchResult(tuple(matched), operations, visited_levels=visited)

    def match(self, event: Event) -> MatchResult:
        """Filter one event against every shard, serially.

        The per-event path never fans out: dispatch overhead cannot
        amortise on a single event, and keeping it serial preserves the
        non-reentrant shards' single-threaded assumption outside batches.
        """
        if self.shard_count == 1:
            return self._shards[0].match(event)
        return self._merge_one([shard.match(event) for shard in self._shards])

    def match_batch(self, events: Iterable[Event]) -> list[MatchResult]:
        """Filter a batch by fanning it across the shard executor.

        Every shard filters the *whole* batch (through its own columnar
        kernel when the batch clears the cutover); the per-shard result
        lists — one entry per input event, in input order — are merged
        event by event.  Results are bit-identical to running the shards
        serially, whatever backend executes them.
        """
        events = events if isinstance(events, list) else list(events)
        if not events:
            return []
        if self.shard_count == 1:
            return self._shards[0].match_batch(events)
        per_shard = self._executor.map_shards(
            lambda shard: shard.match_batch(events), self._shards
        )
        merge = self._merge_one
        return [merge(row) for row in zip(*per_shard)]

    # -- life-cycle ---------------------------------------------------------------
    def close(self) -> None:
        """Shut the shard executor down (idempotent).

        Matching stays functional afterwards — the thread backend
        degrades to serial execution — so statistics and late reads keep
        working on a closed service.
        """
        self._executor.close()

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"ShardedMatcher(shards={self.shard_count}, "
            f"profiles={len(self.profiles)}, executor={self._executor.mode!r})"
        )
