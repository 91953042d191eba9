"""Per-event reference of the event history's batch path.

Until ISSUE 18 this *was* ``EventHistory`` under ``src/``: ``observe_all`` was
a plain ``for event in events: observe(event)`` loop, ``observe`` validated
the event and then bumped one counter per value through the public, checked
``FrequencyCounter.record``, and ``Broker.publish_batch`` validated a batch
with one ``event.validate`` call per event.  They are kept here,
unoptimised, as the oracles the columnar batch admission
(:func:`repro.core.events.column_counts`) and the history's lazy
counting (admitted events are counted at the next read) are compared
against: same state at every read; same exception type, message and
prefix effects on failure.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.core.events import Event
from repro.core.schema import Schema
from repro.distributions.estimation import FrequencyCounter

__all__ = ["PerEventHistory", "validate_each"]


def validate_each(events: Iterable[Event], schema: Schema) -> None:
    """The broker's batch validation, one ``validate`` call per event."""
    for event in events:
        event.validate(schema, require_all=False)


class PerEventHistory:
    """``EventHistory`` with every event admitted on its own."""

    def __init__(self, schema: Schema, *, max_length: int = 10_000) -> None:
        self._schema = schema
        self._max_length = max_length
        self._events: deque[Event] = deque()
        self._counters = {
            attribute.name: FrequencyCounter(attribute.domain) for attribute in schema
        }

    def __len__(self) -> int:
        return len(self._events)

    def observe(self, event: Event) -> None:
        event.validate(self._schema, require_all=False)
        self._events.append(event)
        for name, value in event.values.items():
            self._counters[name].record(value)
        if len(self._events) > self._max_length:
            expired = self._events.popleft()
            for name, value in expired.values.items():
                self._counters[name].forget(value)

    def observe_all(self, events: Iterable[Event]) -> None:
        for event in events:
            self.observe(event)

    def counter(self, attribute: str) -> FrequencyCounter:
        return self._counters[attribute]

    def events(self) -> list[Event]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        for attribute in self._schema:
            self._counters[attribute.name] = FrequencyCounter(attribute.domain)
