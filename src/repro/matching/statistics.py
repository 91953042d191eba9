"""Filtering statistics.

The paper's prototype keeps "statistic objects with counters for events,
attributes, operators, and values" (Section 4.2) and reports performance as

* average operations **per event** (Fig. 5(a)),
* average operations **per profile**, i.e. per delivered notification for a
  given profile (Fig. 5(b)), and
* average operations **per event and profile** (Fig. 5(c)).

:class:`FilterStatistics` accumulates these aggregates over a stream of
:class:`~repro.matching.interfaces.MatchResult` values and also implements
the 95 %-precision stopping rule used by the test scenarios TV1/TV2: the run
may stop once the half-width of the confidence interval of the mean
operation count drops below 5 % of the mean.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

from repro.core.errors import MatchingError
from repro.matching.interfaces import MatchResult

__all__ = ["FilterStatistics", "RunningMean"]


class RunningMean:
    """Numerically stable running mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Return the sample variance (0 for fewer than two observations)."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def confidence_halfwidth(self, z: float = 1.96) -> float:
        """Return the half-width of the ``z``-sigma confidence interval."""
        if self._count < 2:
            return math.inf
        return z * self.stddev / math.sqrt(self._count)

    def relative_precision(self, z: float = 1.96) -> float:
        """Return the confidence half-width relative to the mean."""
        if self.mean == 0:
            return 0.0 if self._count >= 2 and self.stddev == 0 else math.inf
        return self.confidence_halfwidth(z) / abs(self.mean)


class FilterStatistics:
    """Aggregated filtering statistics over a stream of match results."""

    def __init__(self) -> None:
        self._operations = RunningMean()
        self._matches_per_event = RunningMean()
        self._events = 0
        self._matched_events = 0
        self._total_operations = 0
        self._total_notifications = 0
        self._per_profile_notifications: Counter = Counter()
        self._per_profile_operations: Counter = Counter()

    # -- recording ---------------------------------------------------------------
    def record(self, result: MatchResult) -> None:
        """Record the outcome of filtering one event."""
        self.record_all((result,))

    def record_all(self, results: Sequence[MatchResult]) -> int:
        """Record the outcomes of filtering a batch of events, in order.

        The running means (Welford) fold every result in order, so every
        float is bit-identical to a :meth:`record` loop; the integer totals
        are updated once per batch, and the per-profile counters once per
        distinct notified profile (in first-notified order, so their
        insertion order is a loop's too).  Returns the number of
        notifications recorded.
        """
        add_operations = self._operations.add
        add_matches = self._matches_per_event.add
        operations = matched_events = notifications = 0
        # Per profile: [notifications, operations charged], first-notified order.
        notified: dict[str, list[int]] = {}
        for result in results:
            profile_ids = result.matched_profile_ids
            add_operations(result.operations)
            add_matches(len(profile_ids))
            operations += result.operations
            if profile_ids:
                matched_events += 1
                notifications += len(profile_ids)
                # The operations spent on the event are attributed to every
                # profile it notifies; per-profile averages therefore measure
                # how quickly *this* profile's notifications are produced.
                for profile_id in profile_ids:
                    tally = notified.get(profile_id)
                    if tally is None:
                        notified[profile_id] = [1, result.operations]
                    else:
                        tally[0] += 1
                        tally[1] += result.operations
        self._events += len(results)
        self._total_operations += operations
        if notifications:
            self._matched_events += matched_events
            self._total_notifications += notifications
            per_profile_notifications = self._per_profile_notifications
            per_profile_operations = self._per_profile_operations
            for profile_id, (count, charged) in notified.items():
                per_profile_notifications[profile_id] += count
                per_profile_operations[profile_id] += charged
        return notifications

    # -- aggregate metrics ----------------------------------------------------------
    @property
    def events(self) -> int:
        """Return the number of filtered events."""
        return self._events

    @property
    def matched_events(self) -> int:
        """Return the number of events that matched at least one profile."""
        return self._matched_events

    @property
    def total_operations(self) -> int:
        return self._total_operations

    @property
    def total_notifications(self) -> int:
        return self._total_notifications

    def average_operations_per_event(self) -> float:
        """Return the paper's primary metric (Fig. 4, Fig. 5(a), Fig. 6)."""
        if self._events == 0:
            raise MatchingError("no events recorded")
        return self._operations.mean

    def average_matches_per_event(self) -> float:
        """Return the average number of notified profiles per event."""
        if self._events == 0:
            raise MatchingError("no events recorded")
        return self._matches_per_event.mean

    def match_rate(self) -> float:
        """Return the fraction of events matching at least one profile."""
        if self._events == 0:
            raise MatchingError("no events recorded")
        return self._matched_events / self._events

    def average_operations_per_profile(self, profile_id: str) -> float:
        """Return the average operations per notification of one profile."""
        notifications = self._per_profile_notifications.get(profile_id, 0)
        if notifications == 0:
            raise MatchingError(f"profile {profile_id!r} received no notifications")
        return self._per_profile_operations[profile_id] / notifications

    def average_operations_over_profiles(self) -> float:
        """Return the Fig. 5(b) metric: the per-profile averages, averaged
        over all profiles that received at least one notification."""
        values = [
            self._per_profile_operations[pid] / count
            for pid, count in self._per_profile_notifications.items()
            if count
        ]
        if not values:
            raise MatchingError("no profile received a notification")
        return sum(values) / len(values)

    def average_operations_per_event_and_profile(self) -> float:
        """Return the Fig. 5(c) metric: operations per delivered notification.

        Defined as total operations divided by the total number of
        (event, profile) notification pairs, i.e. the cost of producing one
        notification.
        """
        if self._total_notifications == 0:
            raise MatchingError("no notifications recorded")
        return self._total_operations / self._total_notifications

    def notifications_of(self, profile_id: str) -> int:
        """Return how many notifications a profile received."""
        return self._per_profile_notifications.get(profile_id, 0)

    def per_profile_notification_counts(self) -> Mapping[str, int]:
        """Return a copy of the per-profile notification counters."""
        return dict(self._per_profile_notifications)

    # -- stopping rule ----------------------------------------------------------------
    def precision_reached(self, target: float = 0.05, *, minimum_events: int = 30) -> bool:
        """Return ``True`` once the mean operation count is estimated with
        the requested relative precision (the paper's "95 % precision").
        """
        if self._events < minimum_events:
            return False
        return self._operations.relative_precision() <= target

    def summary(self) -> dict[str, float]:
        """Return the headline metrics as a plain dictionary."""
        return {
            "events": float(self._events),
            "avg_operations_per_event": self.average_operations_per_event(),
            "avg_matches_per_event": self.average_matches_per_event(),
            "match_rate": self.match_rate(),
            "avg_operations_per_profile": (
                self.average_operations_over_profiles()
                if self._total_notifications
                else float("nan")
            ),
            "avg_operations_per_event_and_profile": (
                self.average_operations_per_event_and_profile()
                if self._total_notifications
                else float("nan")
            ),
        }
