"""Half-open/closed interval arithmetic.

Profile predicates over continuous and integer attributes are range tests.
Building the profile tree requires decomposing a set of (possibly
overlapping) ranges into the at most ``2p - 1`` disjoint sub-ranges the
paper describes, which in turn needs exact interval intersection, union
boundaries and containment with mixed open/closed endpoints (the paper's
Fig. 1 contains both ``[30, 35)`` and ``[35, 50]``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.errors import DomainError

__all__ = ["Interval", "decompose_intervals"]


@dataclass(frozen=True, order=False)
class Interval:
    """A real interval with independently open or closed endpoints."""

    low: float
    high: float
    low_closed: bool = True
    high_closed: bool = True

    def __post_init__(self) -> None:
        # ``x != x`` is NaN's test without a float conversion, which would
        # overflow on an ``int`` bound past the float range.
        if self.low != self.low or self.high != self.high:
            raise DomainError("interval bounds must not be NaN")
        if self.low > self.high:
            raise DomainError(f"interval low {self.low} exceeds high {self.high}")
        if self.low == self.high and not (self.low_closed and self.high_closed):
            raise DomainError("degenerate interval must be closed on both sides")

    # -- constructors ------------------------------------------------------
    @classmethod
    def closed(cls, low: float, high: float) -> "Interval":
        """Return ``[low, high]``."""
        return cls(low, high, True, True)

    @classmethod
    def open(cls, low: float, high: float) -> "Interval":
        """Return ``(low, high)``."""
        return cls(low, high, False, False)

    @classmethod
    def closed_open(cls, low: float, high: float) -> "Interval":
        """Return ``[low, high)`` as used by the paper's Fig. 1 edges."""
        return cls(low, high, True, False)

    @classmethod
    def open_closed(cls, low: float, high: float) -> "Interval":
        """Return ``(low, high]``."""
        return cls(low, high, False, True)

    @classmethod
    def point(cls, value: float) -> "Interval":
        """Return the degenerate interval ``[value, value]``."""
        return cls(value, value, True, True)

    # -- predicates --------------------------------------------------------
    @property
    def is_point(self) -> bool:
        return self.low == self.high

    @property
    def length(self) -> float:
        return float(self.high - self.low)

    def contains(self, value: float) -> bool:
        """Return ``True`` when ``value`` lies inside the interval.

        The comparisons are exact (an ``int`` is never rounded to a
        ``float``), and NaN lies inside no interval.
        """
        if not self.low <= value <= self.high:
            return False
        if value == self.low and not self.low_closed:
            return False
        if value == self.high and not self.high_closed:
            return False
        return True

    __contains__ = contains

    def contains_interval(self, other: "Interval") -> bool:
        """Return ``True`` when ``other`` is entirely inside ``self``."""
        if other.low < self.low or other.high > self.high:
            return False
        if other.low == self.low and other.low_closed and not self.low_closed:
            return False
        if other.high == self.high and other.high_closed and not self.high_closed:
            return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        """Return ``True`` when the two intervals share at least one point."""
        return self.intersect(other) is not None

    # -- set operations ----------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval | None":
        """Return the intersection of two intervals, or ``None`` when empty.

        When both ends come from one operand the intersection *is* that
        operand, and it is returned as it is: clamping an interval that
        already lies inside a domain builds nothing.
        """
        if self.low > other.low or (self.low == other.low and not self.low_closed):
            low_side = self
        else:
            low_side = other
        if self.high < other.high or (self.high == other.high and not self.high_closed):
            high_side = self
        else:
            high_side = other
        if low_side is high_side:
            return low_side
        low, low_closed = low_side.low, low_side.low_closed
        high, high_closed = high_side.high, high_side.high_closed
        if low > high:
            return None
        if low == high and not (low_closed and high_closed):
            return None
        return Interval(low, high, low_closed, high_closed)

    def midpoint(self) -> float:
        """Return a representative value inside the interval."""
        if self.is_point:
            return self.low
        return (self.low + self.high) / 2.0

    # -- ordering and display ----------------------------------------------
    def sort_key(self) -> tuple:
        """Natural ascending order key (by lower bound, closed before open)."""
        return (self.low, 0 if self.low_closed else 1, self.high, 0 if self.high_closed else 1)

    def __str__(self) -> str:
        left = "[" if self.low_closed else "("
        right = "]" if self.high_closed else ")"
        return f"{left}{_fmt(self.low)}, {_fmt(self.high)}{right}"

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Interval({self})"


def _fmt(value: float) -> str:
    # An ``int`` prints as itself: ``float()`` would overflow past the
    # float range.
    if isinstance(value, int):
        return str(value)
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def sweep_intervals(intervals: Iterable[Interval]) -> Iterator[tuple[Interval, set[int]]]:
    """Yield the covered elementary sub-ranges of ``intervals`` in one sweep.

    Each endpoint becomes a *cut* ``(value, offset)`` — offset 0 is "just
    before value", offset 1 "just after" — which keeps the open/closed
    bookkeeping exact without epsilon arithmetic: an interval spans from
    the cut before its first accepted value to the cut after its last.
    Walking the sorted cuts while carrying the set of open input indexes
    yields every region between consecutive cuts that at least one input
    covers, together with its owners, in O(p log p + output) — no region
    is ever probed against an input.  Consecutive regions always differ in
    their owners (something starts or ends at every cut), so the result is
    already the minimal decomposition.

    The yielded owner set is the sweep's live state: copy it before
    advancing the iterator.
    """
    starts: dict[tuple[float, int], list[int]] = {}
    stops: dict[tuple[float, int], list[int]] = {}
    for index, iv in enumerate(intervals):
        starts.setdefault((iv.low, 0 if iv.low_closed else 1), []).append(index)
        stops.setdefault((iv.high, 1 if iv.high_closed else 0), []).append(index)
    cuts = sorted(starts.keys() | stops.keys())
    active: set[int] = set()
    for cut, following in zip(cuts, cuts[1:]):
        active.difference_update(stops.get(cut, ()))
        active.update(starts.get(cut, ()))
        if active:
            yield Interval(cut[0], following[0], cut[1] == 0, following[1] == 1), active


def decompose_intervals(intervals: Iterable[Interval]) -> list[Interval]:
    """Decompose overlapping intervals into disjoint elementary sub-ranges.

    Given the at most ``p`` ranges a profile set defines for one attribute,
    this returns the at most ``2p - 1`` non-overlapping sub-ranges that cover
    exactly the union of the inputs, such that each input interval equals a
    union of returned sub-ranges.  The result is ordered naturally
    (ascending lower bounds).

    This is the sub-range construction used by the tree algorithm of the
    paper (Section 3): e.g. profiles with ranges ``a1 >= 35`` and
    ``a1 >= 30`` produce the sub-ranges ``[30, 35)`` and ``[35, 50]`` seen in
    Fig. 1.
    """
    return [piece for piece, _ in sweep_intervals(intervals)]
