"""Distribution estimation from observed histories.

Section 4 of the paper: "We assume a history of profile and event
distributions to be known to the system; the future properties of events and
profiles are inferred from the history" and, in the conclusion, the
algorithm "has to maintain a history of events in order to determine the
event distribution".

This module provides:

* :class:`FrequencyCounter` — the per-value counters of the prototype's
  statistics objects (Section 4.2), convertible to a
  :class:`~repro.distributions.discrete.DiscreteDistribution`;
* :class:`EventHistory` — a bounded sliding window of observed events with
  per-attribute counters, used by the adaptive filter component;
* :func:`estimate_profile_distribution` — the empirical profile distribution
  ``P_p`` over the sub-ranges of an attribute partition (the fraction of
  profile references per sub-range), used by the value measures V2/V3 and
  the attribute measures A1/A2.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Iterable, Mapping

from repro.core.domains import DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import DistributionError
from repro.core.events import Event, column_counts
from repro.core.profiles import ProfileSet
from repro.core.schema import Schema
from repro.core.subranges import AttributePartition
from repro.distributions.base import SubrangeDistribution
from repro.distributions.discrete import DiscreteDistribution

__all__ = [
    "FrequencyCounter",
    "EventHistory",
    "estimate_profile_distribution",
    "estimate_event_distribution",
]


class FrequencyCounter:
    """Per-value frequency counter for one attribute.

    Mirrors the prototype's statistic objects: every observed (or simulated)
    value increments a counter; the counters can be read back as an
    empirical probability distribution.  Counters can also be *set* directly,
    which is how the paper "manipulates the counters in order to simulate a
    distribution" without posting a multiple number of events.
    """

    def __init__(self, domain: Domain) -> None:
        self._domain = domain
        self._counts: Counter = Counter()
        self._total = 0

    @property
    def total(self) -> int:
        """Return the total number of recorded observations."""
        return self._total

    def record(self, value: object, weight: int = 1) -> None:
        """Record one observation of ``value`` (optionally weighted)."""
        if value not in self._domain:
            raise DistributionError(f"value {value!r} is outside the attribute domain")
        if weight <= 0:
            raise DistributionError("observation weight must be positive")
        self._add(value, weight)

    def _add(self, value: object, weight: int) -> None:
        """Count ``weight`` observations of a value the caller already checked.

        The unchecked half of :meth:`record`: :class:`EventHistory` validates
        an event (or a whole batch, once per distinct value) against the
        schema first and then counts it through here, so no value is
        checked against its domain twice.
        """
        self._counts[value] += weight
        self._total += weight

    def _add_counts(self, counts: Mapping[object, int]) -> None:
        """Bulk :meth:`_add`: one call per batch column, values already checked."""
        self._counts.update(counts)
        self._total += sum(counts.values())

    def forget(self, value: object, weight: int = 1) -> None:
        """Remove ``weight`` observations of ``value`` (sliding-window decay)."""
        current = self._counts.get(value, 0)
        removed = min(current, weight)
        if removed:
            self._counts[value] = current - removed
            if self._counts[value] == 0:
                del self._counts[value]
            self._total -= removed

    def _forget_counts(self, counts: Mapping[object, int]) -> None:
        """Bulk :meth:`forget`: one call per column of an evicted window slice."""
        own = self._counts
        removed = 0
        for value, weight in counts.items():
            current = own.get(value, 0)
            if current > weight:
                own[value] = current - weight
                removed += weight
            elif current:
                del own[value]
                removed += current
        self._total -= removed

    def set_count(self, value: object, count: int) -> None:
        """Overwrite the counter of ``value`` (distribution simulation)."""
        if value not in self._domain:
            raise DistributionError(f"value {value!r} is outside the attribute domain")
        if count < 0:
            raise DistributionError("counts must be non-negative")
        self._total -= self._counts.get(value, 0)
        if count:
            self._counts[value] = count
            self._total += count
        elif value in self._counts:
            del self._counts[value]

    def counts(self) -> Mapping[object, int]:
        """Return a copy of the raw counters."""
        return dict(self._counts)

    def frequency(self, value: object) -> float:
        """Return the relative frequency of ``value`` (0 when never seen)."""
        if self._total == 0:
            return 0.0
        return self._counts.get(value, 0) / self._total

    def to_distribution(self, *, bins: int = 50):
        """Return the empirical distribution implied by the counters.

        Finite domains yield a :class:`DiscreteDistribution`; continuous
        domains yield a histogram
        :class:`~repro.distributions.continuous.PiecewiseConstantDistribution`
        with ``bins`` equal-width bins.
        """
        if self._total == 0:
            raise DistributionError("cannot build a distribution from an empty counter")
        if isinstance(self._domain, (DiscreteDomain, IntegerDomain)):
            return DiscreteDistribution(self._domain, dict(self._counts))
        from repro.distributions.continuous import PiecewiseConstantDistribution

        full = self._domain.full_interval()
        width = (full.high - full.low) / bins
        weights = [0.0] * bins
        for value, count in self._counts.items():
            index = min(int((float(value) - full.low) / width), bins - 1)
            weights[index] += count
        return PiecewiseConstantDistribution(self._domain, weights)


class EventHistory:
    """Bounded sliding window of observed events with per-attribute counters.

    The adaptive filter component consults the history to estimate the
    current event distribution ``P_e`` and decide whether the profile tree
    should be restructured.

    Events are checked on the way in and counted on the way out.
    :meth:`observe` validates one event, :meth:`observe_all` a batch
    (:func:`~repro.core.events.column_counts`: one domain check per
    *distinct* value of each column, the per-event loop as the fallback);
    an admitted event then waits in a pending list until something reads
    the history — :meth:`counter`, :meth:`events`, ``len`` — or the next
    :meth:`observe_all`, or until the list holds a full window.  Folding
    it counts the pending events column by column (one
    :class:`~collections.Counter` per attribute; partial events one value
    at a time) and lets the overflow leave the window with one bulk
    forget per attribute.  The state any read sees is the one a loop of
    validate, append, count, evict-the-oldest per event would leave.

    A caller that has already validated its events against the schema —
    the broker admits every published event itself — hands them over
    through the unchecked :meth:`_admit` / :meth:`_admit_all`, the way
    :meth:`FrequencyCounter._add` is the unchecked half of
    :meth:`FrequencyCounter.record`.
    """

    def __init__(self, schema: Schema, *, max_length: int = 10_000) -> None:
        if max_length <= 0:
            raise DistributionError("history length must be positive")
        self._schema = schema
        self._max_length = max_length
        self._events: Deque[Event] = deque()
        #: Admitted events not counted yet, oldest first; folded as soon
        #: as it holds a full window.
        self._pending: list[Event] = []
        self._counters = {
            attribute.name: FrequencyCounter(attribute.domain) for attribute in schema
        }

    def __len__(self) -> int:
        self._fold()
        return len(self._events)

    @property
    def max_length(self) -> int:
        return self._max_length

    def observe(self, event: Event) -> None:
        """Add one event, evicting the oldest one beyond the window size."""
        event.validate(self._schema, require_all=False)
        self._admit(event)

    def _admit(self, event: Event) -> None:
        """Add one event the caller already validated against the schema."""
        pending = self._pending
        pending.append(event)
        if len(pending) >= self._max_length:
            self._fold()

    def observe_all(self, events: Iterable[Event]) -> None:
        """Add a batch of events: the same end state as an :meth:`observe` loop.

        A batch of complete, valid events is admitted column by column
        (:func:`~repro.core.events.column_counts`: one domain check per
        distinct value) and counted with one bulk update per attribute.
        Anything the columnar check cannot vouch for — partial events,
        unknown attributes, out-of-domain or unhashable values, a column
        of mixed types — goes through the per-event loop, which raises
        the :class:`~repro.core.errors.EventError` at the offending event
        with the valid prefix already admitted.
        """
        events = events if isinstance(events, list) else list(events)
        counts = column_counts(events, self._schema)
        if counts is None:
            for event in events:
                self.observe(event)
            return
        self._admit_all(events, counts)

    def _admit_all(self, events: list[Event], counts: dict[str, Counter] | None) -> None:
        """Add a batch the caller already validated against the schema.

        ``counts`` is the batch's :func:`~repro.core.events.column_counts`
        when the caller has it, in which case the batch is counted at
        once; with ``None`` the events join the pending list and are
        counted at the next fold.
        """
        if counts is None:
            self._pending.extend(events)
            if len(self._pending) >= self._max_length:
                self._fold()
            return
        self._fold()
        self._count(events, counts)

    def _fold(self) -> None:
        """Count the pending events into the window."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        names = self._schema.names
        carried = [event.values for event in pending]
        counts = None
        if sum(map(len, carried)) == len(carried) * len(names):
            # Admitted events carry schema names only, so these are all
            # complete: count them column by column.
            counts = {name: Counter([values[name] for values in carried]) for name in names}
        self._count(pending, counts)

    def _count(self, events: list[Event], counts: dict[str, Counter] | None) -> None:
        """Append admitted ``events`` to the window, count them, evict the overflow.

        ``counts`` holds the events' per-attribute value counts, or
        ``None`` to count them one value at a time (partial events).
        """
        counters = self._counters
        window = self._events
        window.extend(events)
        if counts is None:
            for event in events:
                for name, value in event.values.items():
                    counters[name]._add(value, 1)
        else:
            for name, counted in counts.items():
                counters[name]._add_counts(counted)
        overflow = len(window) - self._max_length
        if overflow > 0:
            expired = [window.popleft().values for _ in range(overflow)]
            if sum(map(len, expired)) == overflow * len(counters):
                # Every expired event is complete (names were checked on
                # entry), so the slice leaves column by column as well.
                for name, counter in counters.items():
                    counter._forget_counts(Counter([values[name] for values in expired]))
            else:
                for values in expired:
                    for name, value in values.items():
                        counters[name].forget(value)

    def counter(self, attribute: str) -> FrequencyCounter:
        """Return the frequency counter of one attribute."""
        self._fold()
        try:
            return self._counters[attribute]
        except KeyError as exc:
            raise DistributionError(f"unknown attribute {attribute!r}") from exc

    def events(self) -> list[Event]:
        """Return the retained events, oldest first."""
        self._fold()
        return list(self._events)

    def clear(self) -> None:
        """Drop all retained events and counters."""
        self._pending = []
        self._events.clear()
        for attribute in self._schema:
            self._counters[attribute.name] = FrequencyCounter(attribute.domain)


def estimate_event_distribution(
    history: EventHistory, partition: AttributePartition
) -> SubrangeDistribution:
    """Estimate ``P_e`` over the sub-ranges of ``partition`` from a history."""
    counter = history.counter(partition.attribute.name)
    if counter.total == 0:
        raise DistributionError(
            f"no observations for attribute {partition.attribute.name!r}"
        )
    masses = [0.0] * len(partition.subranges)
    zero = 0.0
    for value, count in counter.counts().items():
        weight = count / counter.total
        located = partition.locate(value)
        if located is None:
            zero += weight
        else:
            masses[located.index] += weight
    return SubrangeDistribution(partition, tuple(masses), zero)


def estimate_profile_distribution(
    profiles: ProfileSet, partition: AttributePartition
) -> SubrangeDistribution:
    """Estimate the profile distribution ``P_p`` over a partition.

    ``P_p(x_i)`` is the fraction of profile references falling on sub-range
    ``x_i``: each profile that constrains the attribute contributes one unit
    of mass spread uniformly over the sub-ranges its predicate accepts.  The
    zero-subdomain has ``P_p(x_0) = 0`` by definition ("the probability of
    these attribute values is zero").
    """
    counts = [0.0] * len(partition.subranges)
    total = 0.0
    for prof in profiles:
        if not prof.constrains(partition.attribute.name):
            continue
        accepted = [s for s in partition.subranges if prof.profile_id in s.profile_ids]
        if not accepted:
            continue
        share = 1.0 / len(accepted)
        for subrange in accepted:
            counts[subrange.index] += share
        total += 1.0
    if total == 0:
        # No profile constrains the attribute: P_p is all don't-care.  Model
        # this as a uniform reference distribution over zero sub-ranges.
        return SubrangeDistribution(partition, tuple(), 1.0) if not partition.subranges else (
            SubrangeDistribution(
                partition,
                tuple(0.0 for _ in partition.subranges),
                1.0,
            )
        )
    return SubrangeDistribution(
        partition, tuple(c / total for c in counts), 0.0
    )
