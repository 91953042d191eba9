"""Naive sequential matcher (baseline).

The simplest of the three algorithm families the paper distinguishes
("simple algorithms, clustering, and tree-based algorithms", Section 2):
evaluate every profile against the event, predicate by predicate, with no
shared index structure.  Its cost grows linearly with the number of profiles
and serves as the baseline the tree matcher is compared against in the
``baselines`` benchmark.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.events import Event
from repro.core.profiles import Profile, ProfileSet
from repro.matching.interfaces import MatchResult, remove_profile_strict

__all__ = ["NaiveMatcher"]


class NaiveMatcher:
    """Evaluate each profile independently against each event.

    One comparison operation is counted per predicate evaluation; evaluation
    of a profile stops at its first failing predicate (short-circuit), which
    is the standard optimisation even for the naive approach.
    """

    def __init__(self, profiles: ProfileSet) -> None:
        self.profiles = profiles

    def add_profile(self, profile: Profile) -> None:
        """Register an additional profile."""
        self.profiles.add(profile)

    def _add_admitted(self, profile: Profile) -> None:
        """Register a profile the caller has already validated."""
        self.profiles._admit(profile)

    def add_profiles(self, profiles: Iterable[Profile]) -> None:
        """Register a batch of profiles."""
        for profile in profiles:
            self.profiles.add(profile)

    def remove_profile(self, profile_id: str) -> None:
        """Unregister a profile.

        Raises :class:`~repro.core.errors.MatchingError` for an unknown
        profile id (the cross-matcher contract).
        """
        remove_profile_strict(self.profiles, profile_id)

    def match(self, event: Event) -> MatchResult:
        """Filter one event by scanning all profiles."""
        if len(self.profiles) == 0:
            return MatchResult(tuple(), 0, 0)
        operations = 0
        matched: list[str] = []
        for profile in self.profiles:
            satisfied = True
            for attribute, predicate in profile.predicates.items():
                if predicate.is_dont_care:
                    continue
                operations += 1
                if attribute not in event or not predicate.matches(event[attribute]):
                    satisfied = False
                    break
            if satisfied:
                matched.append(profile.profile_id)
        return MatchResult(tuple(matched), operations, visited_levels=len(self.profiles))

    def match_batch(self, events: Iterable[Event]) -> list[MatchResult]:
        """Filter a sequence of events (amortised dispatch)."""
        match = self.match
        return [match(event) for event in events]
