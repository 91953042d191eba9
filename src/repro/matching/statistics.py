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

from collections import Counter
from typing import Mapping, Sequence

from repro.core.errors import MatchingError
from repro.matching.interfaces import MatchResult

__all__ = ["FilterStatistics"]

#: The normal quantile of the two-sided 95 % confidence interval, as an
#: exact ratio of integers for :meth:`FilterStatistics.precision_reached`.
_Z_NUMERATOR, _Z_DENOMINATOR = (1.96).as_integer_ratio()


class FilterStatistics:
    """Aggregated filtering statistics over a stream of match results.

    Every aggregate is an integer — events, operations, the sum of
    squared operations, notifications — so folding a batch costs a few
    additions per result, the order of recording changes nothing, and
    each mean is one correctly rounded division at read time.

    A matched event is one ``[count, operations]`` entry keyed by its
    matched-id tuple; the entries fold into the per-profile counters per
    distinct tuple, in first-seen order (a :meth:`record` loop's
    first-notified order, so every per-profile average is exactly a
    per-event fold's), before each per-profile read and whenever they
    reach the number of per-profile counters ever folded (at least one).
    """

    def __init__(self) -> None:
        self._events = 0
        self._matched_events = 0
        self._total_operations = 0
        self._squared_operations = 0
        self._total_notifications = 0
        self._per_profile_notifications: Counter = Counter()
        self._per_profile_operations: Counter = Counter()
        #: Matched-id tuple -> [events, operations charged], first-seen order.
        self._pending: dict[tuple[str, ...], list[int]] = {}
        #: Per-profile counters dropped by :meth:`forget_profile`.  They
        #: still count towards the fold bound, so churn does not make the
        #: folds on the record path more frequent.
        self._forgotten = 0
        #: Pending entries that trigger a fold: the per-profile counters
        #: ever folded, forgotten ones included.
        self._fold_bound = 1

    # -- recording ---------------------------------------------------------------
    def record(self, result: MatchResult) -> None:
        """Record the outcome of filtering one event."""
        self.record_all((result,))

    def record_all(self, results: Sequence[MatchResult]) -> int:
        """Record the outcomes of filtering a batch of events, in order.

        The integer totals are updated once per batch; each matched event
        adds its operations to the pending entry of its matched-id tuple.
        Returns the number of notifications recorded.
        """
        operations = squared = matched_events = notifications = 0
        pending = self._pending
        for result in results:
            charged = result.operations
            operations += charged
            squared += charged * charged
            profile_ids = result.matched_profile_ids
            if profile_ids:
                matched_events += 1
                notifications += len(profile_ids)
                # The operations spent on the event are attributed to every
                # profile it notifies; per-profile averages therefore measure
                # how quickly *this* profile's notifications are produced.
                entry = pending.get(profile_ids)
                if entry is None:
                    pending[profile_ids] = [1, charged]
                    if len(pending) >= self._fold_bound:
                        self._fold()
                else:
                    entry[0] += 1
                    entry[1] += charged
        self._events += len(results)
        self._total_operations += operations
        self._squared_operations += squared
        self._matched_events += matched_events
        self._total_notifications += notifications
        return notifications

    def _fold(self) -> None:
        """Add the pending entries to the per-profile counters."""
        per_profile_notifications = self._per_profile_notifications
        per_profile_operations = self._per_profile_operations
        for profile_ids, (count, charged) in self._pending.items():
            for profile_id in profile_ids:
                per_profile_notifications[profile_id] += count
                per_profile_operations[profile_id] += charged
        self._pending.clear()
        self._fold_bound = max(1, len(per_profile_notifications) + self._forgotten)

    def forget_profile(self, profile_id: str) -> None:
        """Drop one profile's per-profile counters (its subscription is gone).

        The pending entries are folded first, so the counters of every
        other profile keep what they received; the aggregates are
        untouched.  A profile that subscribes again under the same id
        starts from zero.
        """
        if self._pending:
            self._fold()
        # The fold fills both counters together, so one lookup says
        # whether the profile has any; the fold bound stays as it is.
        if self._per_profile_notifications.pop(profile_id, None) is not None:
            del self._per_profile_operations[profile_id]
            self._forgotten += 1

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
        return self._total_operations / self._events

    def average_matches_per_event(self) -> float:
        """Return the average number of notified profiles per event."""
        if self._events == 0:
            raise MatchingError("no events recorded")
        return self._total_notifications / self._events

    def match_rate(self) -> float:
        """Return the fraction of events matching at least one profile."""
        if self._events == 0:
            raise MatchingError("no events recorded")
        return self._matched_events / self._events

    def average_operations_per_profile(self, profile_id: str) -> float:
        """Return the average operations per notification of one profile."""
        self._fold()
        notifications = self._per_profile_notifications.get(profile_id, 0)
        if notifications == 0:
            raise MatchingError(f"profile {profile_id!r} received no notifications")
        return self._per_profile_operations[profile_id] / notifications

    def average_operations_over_profiles(self) -> float:
        """Return the Fig. 5(b) metric: the per-profile averages, averaged
        over all profiles that received at least one notification."""
        self._fold()
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
        self._fold()
        return self._per_profile_notifications.get(profile_id, 0)

    def per_profile_notification_counts(self) -> Mapping[str, int]:
        """Return a copy of the per-profile notification counters."""
        self._fold()
        return dict(self._per_profile_notifications)

    # -- stopping rule ----------------------------------------------------------------
    def precision_reached(self, target: float = 0.05, *, minimum_events: int = 30) -> bool:
        """Return ``True`` once the mean operation count is estimated with
        the requested relative precision (the paper's "95 % precision").

        The half-width ``z·s/√n`` of the 95 % confidence interval
        (``z = 1.96``, ``s`` the sample standard deviation) must be at
        most ``target`` times the mean.  Squared, that is
        ``z²·(n·Σx² − (Σx)²) ≤ target²·(n − 1)·(Σx)²``, which is decided
        exactly on the integer totals.  Fewer than two events never reach
        it; a zero mean reaches it only when every observation is zero.
        """
        events = self._events
        if events < minimum_events or events < 2:
            return False
        total = self._total_operations
        # n·Σx² − (Σx)²: n·(n − 1) times the sample variance.
        spread = events * self._squared_operations - total * total
        if total == 0:
            return spread == 0 and target >= 0
        if target < 0:
            return False
        target_numerator, target_denominator = target.as_integer_ratio()
        # Both sides multiplied by the squared denominators of z and target.
        scaled_spread = (_Z_NUMERATOR * target_denominator) ** 2 * spread
        scaled_mean = (target_numerator * _Z_DENOMINATOR) ** 2 * (events - 1) * total * total
        return scaled_spread <= scaled_mean

    def summary(self) -> dict[str, float]:
        """Return the headline metrics as a plain dictionary.

        A field with nothing to average over reads NaN: the per-pair one
        before any notification, the per-profile one also once every
        notified profile has been forgotten.
        """
        self._fold()
        return {
            "events": float(self._events),
            "avg_operations_per_event": self.average_operations_per_event(),
            "avg_matches_per_event": self.average_matches_per_event(),
            "match_rate": self.match_rate(),
            "avg_operations_per_profile": (
                self.average_operations_over_profiles()
                if self._per_profile_notifications
                else float("nan")
            ),
            "avg_operations_per_event_and_profile": (
                self.average_operations_per_event_and_profile()
                if self._total_notifications
                else float("nan")
            ),
        }
