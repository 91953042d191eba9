"""Events.

An event is "the occurrence of a state transition at a certain point in
time", described as a collection of ``(attribute, value)`` pairs (Section 3
of the paper).  Events are immutable value objects; the optional timestamp
and source fields support the service and routing layers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.core.errors import EventError
from repro.core.schema import Schema

__all__ = ["Event", "as_event", "column_counts"]


@dataclass(frozen=True)
class Event:
    """An immutable primitive event.

    Parameters
    ----------
    values:
        Mapping of attribute name to value, e.g.
        ``{"temperature": 30, "humidity": 90, "radiation": 2}`` (the event of
        Eq. (1) in the paper).
    timestamp:
        Logical or simulated occurrence time; ``0.0`` when not relevant.
    source:
        Identifier of the producing publisher or sensor, if any.
    """

    values: Mapping[str, object]
    timestamp: float = 0.0
    source: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))
        if not self.values:
            raise EventError("an event needs at least one (attribute, value) pair")

    # -- mapping-style access ------------------------------------------------
    def __getitem__(self, attribute: str) -> object:
        try:
            return self.values[attribute]
        except KeyError as exc:
            raise EventError(
                f"event does not carry attribute {attribute!r}; it has {sorted(self.values)}"
            ) from exc

    def get(self, attribute: str, default: object = None) -> object:
        """Return the value of ``attribute`` or ``default`` when absent."""
        return self.values.get(attribute, default)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self.values

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def attributes(self) -> list[str]:
        """Return the attribute names carried by the event."""
        return list(self.values)

    # -- validation ------------------------------------------------------------
    def validate(self, schema: Schema, *, require_all: bool = True) -> None:
        """Validate the event against ``schema``.

        Raises :class:`EventError` when the event uses unknown attributes,
        carries values outside their domains, or (with ``require_all``) omits
        a schema attribute.  The tree matcher requires complete events — every
        level of the profile tree probes one attribute — so ``require_all``
        defaults to ``True``.
        """
        by_name = schema._by_name
        for name, value in self.values.items():
            attribute = by_name.get(name)
            if attribute is None:
                raise EventError(f"event attribute {name!r} is not part of the schema")
            if value not in attribute.domain:
                raise EventError(
                    f"event value {value!r} is outside the domain of attribute {name!r}"
                )
        # Every carried name is a distinct schema attribute by now, so the
        # event is complete exactly when it carries as many as the schema.
        if require_all and len(self.values) != len(by_name):
            missing = [name for name in schema.names if name not in self.values]
            raise EventError(f"event is missing schema attributes {missing}")

    def restricted_to(self, names: list[str]) -> "Event":
        """Return a copy carrying only the attributes in ``names``."""
        kept = {n: v for n, v in self.values.items() if n in names}
        return Event(kept, timestamp=self.timestamp, source=self.source)

    def __str__(self) -> str:  # pragma: no cover - display helper
        pairs = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"event({pairs})"


def as_event(event: Event | Mapping[str, object]) -> Event:
    """Return ``event``, wrapping a plain mapping into an :class:`Event`."""
    if isinstance(event, Event):
        return event
    return Event(dict(event))


def column_counts(events: Sequence[Event], schema: Schema) -> dict[str, Counter] | None:
    """Admit a batch column by column: the per-attribute value counts, or ``None``.

    The columnar shortcut of a ``for event in events: event.validate(schema)``
    loop.  One column is extracted per schema attribute and counted with a
    :class:`collections.Counter`, and each *distinct* value is checked
    against its domain once, so a batch costs one membership check per
    distinct value instead of one per occurrence.  The answer is either

    * a ``{attribute name: Counter}`` mapping in schema order — every event
      carries exactly the schema's attributes and every value lies in its
      domain — or
    * ``None``: not provably so.  The caller then runs the per-event
      :meth:`Event.validate` loop, which owns the :class:`EventError` (its
      message, and which event of the batch it names).

    ``None`` covers everything the shortcut cannot vouch for: a partial
    event or an unknown attribute name (some event lacks a schema column,
    or the summed event lengths exceed ``len(events) * len(schema)``), a
    value outside its domain, an unhashable value (no counter can key it;
    the per-event loop reports it as outside its domain) or any other
    exception raised on the way, and a column whose values are not all of
    one exact ``type`` — a counter keys by equality (``1 == 1.0 == True``)
    while domain membership does not, so distinct values may only stand in
    for their occurrences within a single type.  An empty batch also
    answers ``None``; its per-event loop is free.  Nothing is mutated
    either way.
    """
    counts: dict[str, Counter] = {}
    try:
        carried = [event.values for event in events]
        if sum(map(len, carried)) != len(carried) * len(schema):
            return None
        for attribute in schema:
            name = attribute.name
            column = [values[name] for values in carried]
            if len(set(map(type, column))) != 1:
                return None
            counted = Counter(column)
            domain = attribute.domain
            for value in counted:
                if value not in domain:
                    return None
            counts[name] = counted
    except Exception:
        # A missing schema column (KeyError), a value no counter can hash
        # (TypeError), or whatever a value's own ``__hash__`` / ``__eq__``
        # or a domain's ``__contains__`` raises: nothing has been mutated,
        # and the per-event loop reports it at the event it belongs to.
        return None
    return counts
