"""Attribute domains.

The paper considers a firm set ``A`` of attributes ``a_j`` whose values
belong to given domains ``D_j`` with a *domain size* ``d_j``.  Two kinds of
domains appear in the paper's scenarios:

* continuous real intervals (temperature in ``[-30, 50]`` degrees Celsius,
  humidity in ``[0, 100]`` percent, ...), and
* finite discrete domains (stock symbols, integer sensor ids, the small
  alphabetic domain of the paper's Example 5).

Both are modelled here behind the common :class:`Domain` interface.  The
domain size is the interval length for continuous domains and the number of
elements for discrete domains; it feeds the attribute-selectivity measures
A1 and A2 of the paper (``s_att = d_0 / d`` and ``s_att = d_0 * P_e(D_0) / d``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.errors import DomainError
from repro.core.intervals import Interval

__all__ = [
    "Domain",
    "ContinuousDomain",
    "IntegerDomain",
    "DiscreteDomain",
]


class Domain:
    """Abstract base class for attribute domains.

    A domain knows three things:

    * membership (``value in domain``),
    * its *size* ``d`` (a measure used by the selectivity measures), and
    * how to measure the size of a sub-interval or subset of itself.
    """

    #: ``True`` when the domain consists of finitely many enumerable values.
    is_discrete: bool = False

    @property
    def size(self) -> float:
        """Return the domain size ``d_j`` used by the selectivity measures."""
        raise NotImplementedError

    def __contains__(self, value: object) -> bool:
        raise NotImplementedError

    def full_interval(self) -> Interval:
        """Return an interval covering the whole domain."""
        raise NotImplementedError

    def measure(self, interval: Interval) -> float:
        """Return the size of ``interval`` restricted to this domain."""
        raise NotImplementedError

    def clamp(self, interval: Interval) -> Interval | None:
        """Intersect ``interval`` with the domain, or ``None`` when empty."""
        return self.full_interval().intersect(interval)

    def validate_value(self, value: object) -> None:
        """Raise :class:`DomainError` when ``value`` is not in the domain."""
        if value not in self:
            raise DomainError(f"value {value!r} is outside domain {self!r}")


@dataclass(frozen=True)
class ContinuousDomain(Domain):
    """A closed real interval ``[low, high]``.

    The domain size is the interval length ``high - low``, which matches the
    paper's Example 3 where the temperature domain ``[-30, 50]`` has size 80.
    """

    low: float
    high: float

    is_discrete = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise DomainError("continuous domain bounds must be finite")
        if self.low >= self.high:
            raise DomainError(
                f"continuous domain requires low < high, got [{self.low}, {self.high}]"
            )

    @property
    def size(self) -> float:
        return float(self.high - self.low)

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        # Exact: float() would overflow on a huge int, and NaN compares false.
        return self.low <= value <= self.high

    def full_interval(self) -> Interval:
        return Interval.closed(self.low, self.high)

    def measure(self, interval: Interval) -> float:
        clipped = self.full_interval().intersect(interval)
        if clipped is None:
            return 0.0
        return float(clipped.high - clipped.low)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ContinuousDomain([{self.low}, {self.high}])"


@dataclass(frozen=True)
class IntegerDomain(Domain):
    """A finite set of consecutive integers ``{low, low + 1, ..., high}``."""

    low: int
    high: int

    is_discrete = True

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise DomainError(
                f"integer domain requires low <= high, got [{self.low}, {self.high}]"
            )

    @property
    def size(self) -> float:
        return float(self.high - self.low + 1)

    def __contains__(self, value: object) -> bool:
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        return self.low <= value <= self.high

    def full_interval(self) -> Interval:
        return Interval.closed(self.low, self.high)

    def values(self) -> range:
        """Return the domain values in their natural ascending order."""
        return range(self.low, self.high + 1)

    def measure(self, interval: Interval) -> float:
        clipped = self.full_interval().intersect(interval)
        if clipped is None:
            return 0.0
        lo = math.ceil(clipped.low) if clipped.low_closed else math.floor(clipped.low) + 1
        hi = math.floor(clipped.high) if clipped.high_closed else math.ceil(clipped.high) - 1
        return float(max(0, hi - lo + 1))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"IntegerDomain([{self.low}, {self.high}])"


@dataclass(frozen=True)
class DiscreteDomain(Domain):
    """A finite, explicitly ordered set of values.

    The order of ``ordered_values`` defines the *natural order* of the domain
    used by natural-order search; the paper's Example 5 uses the alphabetic
    domain ``{a, b, c, d, e, f}``.  Values may be any hashable, comparable
    objects (strings, numbers, tuples).
    """

    ordered_values: tuple = field(default_factory=tuple)

    is_discrete = True

    def __init__(self, values: Iterable) -> None:
        ordered = tuple(values)
        if not ordered:
            raise DomainError("discrete domain needs at least one value")
        if len(set(ordered)) != len(ordered):
            raise DomainError("discrete domain values must be unique")
        object.__setattr__(self, "ordered_values", ordered)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(ordered)})

    @property
    def size(self) -> float:
        return float(len(self.ordered_values))

    def __contains__(self, value: object) -> bool:
        try:
            return value in self._index  # type: ignore[attr-defined]
        except TypeError:
            # An unhashable value (a list, a dict) is no member of any
            # finite domain; asking must not raise.
            return False

    def index_of(self, value: object) -> int:
        """Return the position of ``value`` in the natural order."""
        try:
            return self._index[value]  # type: ignore[attr-defined]
        except KeyError as exc:
            raise DomainError(f"value {value!r} is outside domain {self!r}") from exc

    def values(self) -> Sequence:
        return self.ordered_values

    def full_interval(self) -> Interval:
        return Interval.closed(0, len(self.ordered_values) - 1)

    def measure(self, interval: Interval) -> float:
        """Measure an interval of *indexes* into the natural order."""
        clipped = self.full_interval().intersect(interval)
        if clipped is None:
            return 0.0
        lo = math.ceil(clipped.low) if clipped.low_closed else math.floor(clipped.low) + 1
        hi = math.floor(clipped.high) if clipped.high_closed else math.ceil(clipped.high) - 1
        return float(max(0, hi - lo + 1))

    def measure_values(self, values: Iterable) -> float:
        """Return the number of ``values`` that belong to the domain."""
        return float(sum(1 for v in values if v in self))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        preview = ", ".join(repr(v) for v in self.ordered_values[:4])
        if len(self.ordered_values) > 4:
            preview += ", ..."
        return f"DiscreteDomain({{{preview}}}, size={len(self.ordered_values)})"
