"""Predicate algebra for profiles.

A profile is a set of predicates over attributes (Section 3 of the paper).
The paper's prototype supports equality tests and don't-care values; range
and inequality tests are part of the general model ("inequality tests can be
translated to range tests").  This module provides the full predicate
algebra used by the library:

* :class:`Equals` — ``attribute = value``;
* :class:`RangePredicate` — ``attribute in [low, high]`` with open or closed
  endpoints, covering ``<``, ``<=``, ``>`` and ``>=`` via the convenience
  constructors;
* :class:`OneOf` — set containment over discrete domains;
* :class:`NotEquals` — inequality, represented for continuous domains as the
  complement range pair;
* :class:`DontCare` — the ``*`` of the paper: the attribute is not
  constrained.

Every predicate can report the subset of the attribute domain it accepts as
a list of :class:`~repro.core.intervals.Interval` (for ordered domains) or a
set of values (for discrete domains); the profile-tree builder uses this to
derive the at most ``2p - 1`` sub-ranges per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.domains import DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import PredicateError
from repro.core.intervals import Interval

__all__ = [
    "Predicate",
    "Equals",
    "RangePredicate",
    "OneOf",
    "NotEquals",
    "DontCare",
    "DONT_CARE",
]


class Predicate:
    """Abstract base class of all predicates."""

    #: ``True`` for the don't-care predicate only.
    is_dont_care: bool = False

    def matches(self, value: object) -> bool:
        """Return ``True`` when the event ``value`` satisfies the predicate."""
        raise NotImplementedError

    def accepted_intervals(self, domain: Domain) -> list[Interval]:
        """Return the accepted subset of an ordered ``domain`` as intervals.

        For :class:`DiscreteDomain` attributes the intervals refer to indexes
        into the domain's natural order.
        """
        raise NotImplementedError

    def accepted_values(self, domain: Domain) -> list:
        """Return accepted values for a finite ``domain`` (discrete/integer)."""
        raise NotImplementedError

    def validate(self, domain: Domain) -> None:
        """Raise :class:`PredicateError` if incompatible with ``domain``."""

    def describe(self) -> str:
        """Return a short human-readable description."""
        raise NotImplementedError


@dataclass(frozen=True)
class Equals(Predicate):
    """Equality test ``attribute = value``."""

    value: object

    def matches(self, value: object) -> bool:
        return value == self.value

    def accepted_intervals(self, domain: Domain) -> list[Interval]:
        if isinstance(domain, DiscreteDomain):
            return [Interval.point(domain.index_of(self.value))]
        return [Interval.point(float(self.value))]  # type: ignore[arg-type]

    def accepted_values(self, domain: Domain) -> list:
        if isinstance(domain, DiscreteDomain):
            return [self.value] if self.value in domain else []
        if isinstance(domain, IntegerDomain):
            return [self.value] if self.value in domain else []
        raise PredicateError("accepted_values requires a finite domain")

    def validate(self, domain: Domain) -> None:
        if self.value not in domain:
            raise PredicateError(
                f"equality value {self.value!r} is outside the attribute domain"
            )

    def describe(self) -> str:
        return f"= {self.value!r}"


@dataclass(frozen=True)
class RangePredicate(Predicate):
    """Range test ``attribute in <interval>``.

    The convenience constructors cover the comparison operators the paper
    mentions (``<=``, ``>=``, ``<``, ``>``) by clamping the open side to the
    attribute domain when the predicate is attached to a profile.
    """

    interval: Interval

    # Sentinels for "unbounded" sides, resolved against the domain on use.
    _UNBOUNDED_LOW = float("-inf")
    _UNBOUNDED_HIGH = float("inf")

    @classmethod
    def between(
        cls,
        low: float,
        high: float,
        *,
        low_closed: bool = True,
        high_closed: bool = True,
    ) -> "RangePredicate":
        """Return the predicate ``low <op> attribute <op> high``."""
        return cls(Interval(low, high, low_closed, high_closed))

    @classmethod
    def at_least(cls, low: float) -> "RangePredicate":
        """Return ``attribute >= low`` (upper bound clamped to the domain)."""
        return cls(Interval(low, cls._UNBOUNDED_HIGH, True, True))

    @classmethod
    def greater_than(cls, low: float) -> "RangePredicate":
        """Return ``attribute > low``."""
        return cls(Interval(low, cls._UNBOUNDED_HIGH, False, True))

    @classmethod
    def at_most(cls, high: float) -> "RangePredicate":
        """Return ``attribute <= high`` (lower bound clamped to the domain)."""
        return cls(Interval(cls._UNBOUNDED_LOW, high, True, True))

    @classmethod
    def less_than(cls, high: float) -> "RangePredicate":
        """Return ``attribute < high``."""
        return cls(Interval(cls._UNBOUNDED_LOW, high, True, False))

    def matches(self, value: object) -> bool:
        """Accept an ``int`` or ``float`` (never a ``bool``) inside the interval.

        The value is compared exactly, as the slab index compares it: an
        ``int`` beyond the ``float`` range or above ``2**53`` is not
        rounded, and NaN matches no range.
        """
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        return self.interval.contains(value)

    def _clamped(self, domain: Domain) -> Interval | None:
        if isinstance(domain, DiscreteDomain):
            raise PredicateError("range predicates require an ordered domain")
        return domain.clamp(self.interval)

    def accepted_intervals(self, domain: Domain) -> list[Interval]:
        clamped = self._clamped(domain)
        return [clamped] if clamped is not None else []

    def accepted_values(self, domain: Domain) -> list:
        if not isinstance(domain, IntegerDomain):
            raise PredicateError("accepted_values requires a finite domain")
        clamped = self._clamped(domain)
        if clamped is None:
            return []
        return [v for v in domain.values() if clamped.contains(v)]

    def validate(self, domain: Domain) -> None:
        if isinstance(domain, DiscreteDomain):
            raise PredicateError(
                "range predicates are not supported on unordered discrete domains"
            )
        if self._clamped(domain) is None:
            raise PredicateError(
                f"range {self.interval} does not intersect the attribute domain"
            )

    def describe(self) -> str:
        return f"in {self.interval}"


@dataclass(frozen=True)
class OneOf(Predicate):
    """Set containment ``attribute in {v1, v2, ...}`` over finite domains."""

    values: tuple

    def __init__(self, values: Iterable) -> None:
        object.__setattr__(self, "values", tuple(dict.fromkeys(values)))
        if not self.values:
            raise PredicateError("OneOf needs at least one value")

    def matches(self, value: object) -> bool:
        return value in self.values

    def accepted_intervals(self, domain: Domain) -> list[Interval]:
        if isinstance(domain, DiscreteDomain):
            return [Interval.point(domain.index_of(v)) for v in self.values if v in domain]
        return [Interval.point(float(v)) for v in self.values]

    def accepted_values(self, domain: Domain) -> list:
        return [v for v in self.values if v in domain]

    def validate(self, domain: Domain) -> None:
        missing = [v for v in self.values if v not in domain]
        if missing:
            raise PredicateError(f"values {missing!r} are outside the attribute domain")

    def describe(self) -> str:
        return "in {" + ", ".join(repr(v) for v in self.values) + "}"


@dataclass(frozen=True)
class NotEquals(Predicate):
    """Inequality test ``attribute != value``.

    As the paper notes, inequality tests translate to range tests; the
    accepted set is the complement of the excluded point within the domain.
    """

    value: object

    def matches(self, value: object) -> bool:
        return value != self.value

    def accepted_intervals(self, domain: Domain) -> list[Interval]:
        if isinstance(domain, DiscreteDomain):
            return [
                Interval.point(i)
                for i, v in enumerate(domain.values())
                if v != self.value
            ]
        full = domain.full_interval()
        point = float(self.value)  # type: ignore[arg-type]
        pieces: list[Interval] = []
        if point > full.low:
            pieces.append(Interval(full.low, point, full.low_closed, False))
        if point < full.high:
            pieces.append(Interval(point, full.high, False, full.high_closed))
        if not pieces:
            # Domain is the single excluded point: nothing is accepted.
            return []
        return pieces

    def accepted_values(self, domain: Domain) -> list:
        if isinstance(domain, DiscreteDomain):
            return [v for v in domain.values() if v != self.value]
        if isinstance(domain, IntegerDomain):
            return [v for v in domain.values() if v != self.value]
        raise PredicateError("accepted_values requires a finite domain")

    def validate(self, domain: Domain) -> None:
        if self.value not in domain:
            raise PredicateError(
                f"inequality value {self.value!r} is outside the attribute domain"
            )

    def describe(self) -> str:
        return f"!= {self.value!r}"


class DontCare(Predicate):
    """The ``*`` predicate: the profile does not constrain the attribute."""

    is_dont_care = True

    def matches(self, value: object) -> bool:
        return True

    def accepted_intervals(self, domain: Domain) -> list[Interval]:
        return [domain.full_interval()]

    def accepted_values(self, domain: Domain) -> list:
        if isinstance(domain, DiscreteDomain):
            return list(domain.values())
        if isinstance(domain, IntegerDomain):
            return list(domain.values())
        raise PredicateError("accepted_values requires a finite domain")

    def describe(self) -> str:
        return "*"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "DontCare()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DontCare)

    def __hash__(self) -> int:
        return hash("DontCare")


#: Shared singleton instance for convenience.
DONT_CARE = DontCare()
