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
        self._counts[value] += weight
        self._total += weight

    def _add_counts(self, counts: Mapping[object, int]) -> None:
        """Count the values of one column the caller already checked.

        The unchecked, bulk half of :meth:`record`: :class:`EventHistory`
        validates an event (or a whole batch, once per distinct value)
        against the schema first and then counts each column through
        here, so no value is checked against its domain twice.
        """
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
            # The counts were checked on the way in (by ``record`` /
            # ``set_count``, or by whoever called ``_add_counts``)
            # and are all positive.
            return DiscreteDistribution._of_counts(self._domain, self._counts)
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

    Events are checked on the way in and counted once.  :meth:`observe`
    validates one event, :meth:`observe_all` a batch
    (:func:`~repro.core.events.column_counts`: one domain check per
    *distinct* value of each column, the per-event loop as the fallback);
    an admitted event then waits in a pending list until something reads
    the history — :meth:`counter`, :meth:`events`, ``len`` — or the next
    :meth:`observe_all`, or until the list holds a full window.

    The window is a queue of admitted *chunks*, oldest first: each is
    ``[events, column counts]``, the events of one counted batch (or of
    one folded pending list) and the per-attribute
    :class:`~collections.Counter` it was counted with.  A chunk that
    leaves the window whole is forgotten with those same counts, one
    bulk forget per attribute, so no event is counted twice.  Only the
    chunk cut by the window edge is counted again: its expired head
    when it is cut, its remainder when that leaves in turn.  The state
    any read sees is the one a loop of validate, append, count,
    evict-the-oldest per event would leave.

    A caller that has already validated its events against the schema —
    the broker admits every published event itself — hands them over
    through the unchecked :meth:`_admit` / :meth:`_admit_all`, the way
    :meth:`FrequencyCounter._add_counts` is the unchecked half of
    :meth:`FrequencyCounter.record`.
    """

    def __init__(self, schema: Schema, *, max_length: int = 10_000) -> None:
        if max_length <= 0:
            raise DistributionError("history length must be positive")
        self._schema = schema
        self._max_length = max_length
        #: ``[events, counts]`` per admitted chunk, oldest first; ``counts``
        #: is ``None`` for the remainder of a chunk the window edge cut.
        self._chunks: Deque[list] = deque()
        #: Events in the window (the chunks' total length).
        self._length = 0
        #: Admitted events not counted yet, oldest first; folded as soon
        #: as it holds a full window.
        self._pending: list[Event] = []
        self._counters = {
            attribute.name: FrequencyCounter(attribute.domain) for attribute in schema
        }

    def __len__(self) -> int:
        self._fold()
        return self._length

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
        events = list(events)
        counts = column_counts(events, self._schema)
        if counts is None:
            for event in events:
                self.observe(event)
            return
        self._admit_all(events, counts)

    def _admit_all(self, events: list[Event], counts: dict[str, Counter] | None) -> None:
        """Add a batch the caller already validated against the schema.

        ``counts`` is the batch's :func:`~repro.core.events.column_counts`
        when the caller has it, in which case the batch becomes one chunk
        at once (the history keeps ``events`` itself: the caller hands
        over a list it no longer changes); with ``None`` the events join
        the pending list and are counted at the next fold.
        """
        if counts is None:
            self._pending.extend(events)
            if len(self._pending) >= self._max_length:
                self._fold()
            return
        self._fold()
        self._count(events, counts)

    def _fold(self) -> None:
        """Count the pending events into the window as one chunk."""
        pending = self._pending
        if pending:
            self._pending = []
            self._count(pending, self._column_counts(pending))

    def _column_counts(self, events: list[Event]) -> dict[str, Counter]:
        """Return the per-attribute value counts of admitted ``events``."""
        names = self._schema.names
        carried = [event.values for event in events]
        if sum(map(len, carried)) == len(carried) * len(names):
            # Admitted events carry schema names only, so these are all
            # complete.
            return {name: Counter([values[name] for values in carried]) for name in names}
        return {
            name: Counter([values[name] for values in carried if name in values])
            for name in names
        }

    def _count(self, events: list[Event], counts: dict[str, Counter]) -> None:
        """Append admitted ``events`` as one chunk, count it, evict the overflow.

        ``counts`` holds the events' per-attribute value counts.  Every
        count is added before anything is forgotten, so a value counted
        again by this chunk never leaves its counter on the way.
        """
        counters = self._counters
        for name, counted in counts.items():
            counters[name]._add_counts(counted)
        chunks = self._chunks
        chunks.append([events, counts])
        self._length += len(events)
        overflow = self._length - self._max_length
        if overflow <= 0:
            return
        self._length = self._max_length
        while overflow:
            chunk_events, expired = chunks[0]
            if len(chunk_events) <= overflow:
                chunks.popleft()
                overflow -= len(chunk_events)
                if expired is None:
                    expired = self._column_counts(chunk_events)
            else:
                expired = self._column_counts(chunk_events[:overflow])
                chunks[0] = [chunk_events[overflow:], None]
                overflow = 0
            for name, counted in expired.items():
                counters[name]._forget_counts(counted)

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
        return [event for chunk_events, _ in self._chunks for event in chunk_events]

    def clear(self) -> None:
        """Drop all retained events and counters."""
        self._pending = []
        self._chunks.clear()
        self._length = 0
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
