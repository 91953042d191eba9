"""Per-(attribute, operator) index buckets.

Each bucket maps one event value to the set of *predicate entries* it
satisfies, where an entry is one distinct ``(attribute, predicate)`` pair
shared by every profile that subscribes to it (the Le Subscribe /
predicate-counting factoring the :mod:`repro.matching.counting` baseline
gestures at, made into a first-class data structure):

* :class:`HashBucket` — ``Equals`` / ``OneOf`` entries.  One hash probe per
  event resolves *exactly* the equality entries registered on the observed
  value; a ``OneOf`` entry is registered once per accepted value.
* :class:`IntervalBucket` — range entries (``RangePredicate``).  The raw,
  possibly overlapping intervals are decomposed into *slabs*: every distinct
  endpoint becomes a point slab and every open gap between two consecutive
  endpoints becomes a gap slab.  Each slab stores the tuple of entries whose
  interval covers it, so a single :func:`bisect.bisect_left` probe returns
  every satisfied range entry with exact open/closed endpoint semantics and
  no per-entry comparison.
``NotEquals`` and any predicate kind without a natural index fall back to
a linear scan (one evaluation per distinct entry, like the counting
baseline's general index); the
:class:`~repro.matching.index.planner.IndexPlanner` also demotes hash and
range entries to that scan path when its cost model says a probe would not
pay off.  The scan path lives inside the matcher — it needs no bucket
structure.

Buckets deal in opaque integer entry ids; the matcher owns the mapping from
entry id to subscribing profiles.

Both bucket kinds support *incremental maintenance* so subscription churn
never rebuilds a bucket from scratch:

* :meth:`HashBucket.add_entry` / :meth:`HashBucket.discard_entry` edit one
  value's entry tuple;
* :meth:`IntervalBucket.add` splices any new endpoints into the sorted
  boundary list (a :func:`bisect.insort`-style edit that splits the
  enclosing gap slab into gap/point/gap) and then adds the entry to every
  covered slab; :meth:`IntervalBucket.remove` deletes the entry from its
  covered slabs but normally leaves the boundaries in place — a stale
  boundary is semantically invisible (its point cover equals the merged
  neighbouring gap covers).  The bucket tracks per-endpoint reference
  counts, and once more than :data:`STALE_COMPACTION_FRACTION` of the
  boundaries are dead, :meth:`IntervalBucket.remove` compacts in place —
  dropping the dead boundaries and merging their (provably equal) slab
  covers — so heavy churn cannot grow the slab structure without bound
  between full rebuilds (a planner-driven replan still compacts too).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.intervals import Interval

__all__ = ["HashBucket", "IntervalBucket", "STALE_COMPACTION_FRACTION"]

#: When removals leave more than this fraction of an interval bucket's
#: boundaries without any live referencing endpoint, :meth:`IntervalBucket.remove`
#: compacts the slab structure in place instead of waiting for a replan.
STALE_COMPACTION_FRACTION = 0.5


class HashBucket:
    """Hash index over equality-style entries of one attribute."""

    __slots__ = ("_table",)

    #: A hash probe costs one comparison, like the counting baseline's
    #: equality fast path.
    probe_cost = 1

    def __init__(self, table: Mapping[object, Iterable[int]]) -> None:
        self._table: dict[object, tuple[int, ...]] = {
            value: tuple(entry_ids) for value, entry_ids in table.items()
        }

    def lookup(self, value: object) -> tuple[int, ...]:
        """Return the entry ids satisfied by ``value``."""
        return self._table.get(value, ())

    @property
    def table(self) -> Mapping[object, tuple[int, ...]]:
        """Live value-to-entry-ids mapping (the matcher's hot loop probes
        this directly to skip a method call; treat it as read-only)."""
        return self._table

    def add_entry(self, value: object, entry_id: int) -> None:
        """Register ``entry_id`` under ``value`` (incremental maintenance)."""
        existing = self._table.get(value)
        self._table[value] = (entry_id,) if existing is None else existing + (entry_id,)

    def discard_entry(self, value: object, entry_id: int) -> None:
        """Unregister ``entry_id`` from ``value``; drops empty value rows."""
        existing = self._table.get(value)
        if existing is None or entry_id not in existing:
            return
        remaining = tuple(e for e in existing if e != entry_id)
        if remaining:
            self._table[value] = remaining
        else:
            del self._table[value]

    def __len__(self) -> int:
        return len(self._table)

    def items(self) -> Iterator[tuple[object, tuple[int, ...]]]:
        """Iterate over ``(value, entry_ids)`` pairs (for cost estimation)."""
        return iter(self._table.items())


class IntervalBucket:
    """Sorted slab index over the range entries of one attribute.

    The constructor decomposes the input intervals into point slabs (one per
    distinct endpoint) and gap slabs (the open interval between consecutive
    endpoints).  Duplicate boundaries collapse into a single point slab, and
    open/closed endpoints are honoured exactly: an entry's interval covers
    its endpoint's point slab only when that side is closed.
    """

    __slots__ = (
        "_boundaries",
        "_point_cover",
        "_gap_cover",
        "_endpoint_refs",
        "_stale_boundaries",
        "probe_cost",
    )

    def __init__(self, items: Sequence[tuple[Interval, int]]) -> None:
        boundaries = sorted({b for interval, _ in items for b in (interval.low, interval.high)})
        self._boundaries = boundaries
        #: Live endpoint reference counts per boundary value; a boundary
        #: whose count drops to zero is *stale* (see ``remove``).
        refs: dict[float, int] = {}
        for interval, _ in items:
            refs[interval.low] = refs.get(interval.low, 0) + 1
            refs[interval.high] = refs.get(interval.high, 0) + 1
        self._endpoint_refs = refs
        self._stale_boundaries = 0
        # One sweep over the slab sequence gap_0, point_0, gap_1, ...,
        # point_{n-1}, gap_n (slab position 2j for gap j, 2i+1 for point i)
        # builds every cover in O(k log k): each interval covers a single
        # contiguous slab range determined by its endpoints' openness, so a
        # start/stop event diff plus an insertion-ordered active set gives
        # the exact cover without any per-slab containment probing.
        boundary_index = {value: index for index, value in enumerate(boundaries)}
        slab_count = 2 * len(boundaries) + 1
        starts: list[list[int]] = [[] for _ in range(slab_count + 1)]
        stops: list[list[int]] = [[] for _ in range(slab_count + 1)]
        for interval, entry_id in items:
            low_index = boundary_index[interval.low]
            high_index = boundary_index[interval.high]
            first = 2 * low_index + 1 if interval.low_closed else 2 * low_index + 2
            last = 2 * high_index + 1 if interval.high_closed else 2 * high_index
            starts[first].append(entry_id)
            stops[last + 1].append(entry_id)
        active: dict[int, None] = {}
        covers: list[tuple[int, ...]] = []
        for position in range(slab_count):
            for entry_id in stops[position]:
                del active[entry_id]
            for entry_id in starts[position]:
                active[entry_id] = None
            covers.append(tuple(sorted(active)))
        self._gap_cover = covers[0::2]
        self._point_cover = covers[1::2]
        #: Comparisons charged per bisect probe: the depth of the binary
        #: search over the boundary list.
        self.probe_cost = max(1, len(boundaries).bit_length())

    def lookup(self, value: object) -> tuple[int, ...]:
        """Return the entry ids whose interval contains ``value``."""
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return ()
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        if position < len(boundaries) and boundaries[position] == value:
            return self._point_cover[position]
        return self._gap_cover[position]

    # -- incremental maintenance ----------------------------------------------
    def _ensure_boundary(self, value: float) -> bool:
        """Splice ``value`` into the boundary list if it is not one yet.

        Inserting a boundary splits its enclosing gap slab into
        gap/point/gap.  The new point slab and both gap halves inherit the
        old gap's cover: the value was strictly inside the open gap, so
        exactly the intervals covering the gap cover it.  Returns whether
        the boundary was freshly inserted.
        """
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        if position < len(boundaries) and boundaries[position] == value:
            return False
        boundaries.insert(position, value)
        split_cover = self._gap_cover[position]
        self._point_cover.insert(position, split_cover)
        self._gap_cover.insert(position + 1, split_cover)
        self.probe_cost = max(1, len(boundaries).bit_length())
        return True

    def _register_endpoint(self, value: float) -> None:
        """Ensure ``value`` is a boundary and count one live endpoint on it.

        Bumping a pre-existing boundary whose reference count had dropped
        to zero revives a stale boundary.
        """
        inserted = self._ensure_boundary(value)
        refs = self._endpoint_refs
        count = refs.get(value, 0)
        refs[value] = count + 1
        if not inserted and count == 0:
            self._stale_boundaries -= 1

    def _slab_span(self, interval: Interval) -> tuple[int, int]:
        """Return the first/last covered slab positions of ``interval``.

        Positions follow the sweep numbering of the constructor: ``2j`` is
        gap ``j`` and ``2i + 1`` is point ``i``.  Both endpoints must
        already be boundaries.
        """
        boundaries = self._boundaries
        low_index = bisect_left(boundaries, interval.low)
        high_index = bisect_left(boundaries, interval.high)
        first = 2 * low_index + 1 if interval.low_closed else 2 * low_index + 2
        last = 2 * high_index + 1 if interval.high_closed else 2 * high_index
        return first, last

    def add(self, interval: Interval, entry_id: int) -> None:
        """Add one range entry in place (incremental maintenance)."""
        self._register_endpoint(interval.low)
        self._register_endpoint(interval.high)
        first, last = self._slab_span(interval)
        point_cover, gap_cover = self._point_cover, self._gap_cover
        for position in range(first, last + 1):
            index, is_point = divmod(position, 2)
            cover = point_cover[index] if is_point else gap_cover[index]
            updated = tuple(sorted(cover + (entry_id,)))
            if is_point:
                point_cover[index] = updated
            else:
                gap_cover[index] = updated

    def remove(self, interval: Interval, entry_id: int) -> None:
        """Remove one range entry from its covered slabs.

        The entry's endpoints usually stay in the boundary list (a stale
        boundary is semantically invisible); once more than
        :data:`STALE_COMPACTION_FRACTION` of the boundaries are stale the
        slab structure is compacted in place, so heavy churn keeps the
        probe depth and slab count proportional to the *live* entries.
        """
        first, last = self._slab_span(interval)
        point_cover, gap_cover = self._point_cover, self._gap_cover
        for position in range(first, last + 1):
            index, is_point = divmod(position, 2)
            cover = point_cover[index] if is_point else gap_cover[index]
            updated = tuple(e for e in cover if e != entry_id)
            if is_point:
                point_cover[index] = updated
            else:
                gap_cover[index] = updated
        refs = self._endpoint_refs
        for value in (interval.low, interval.high):
            count = refs.get(value, 0) - 1
            if count > 0:
                refs[value] = count
            elif count == 0:
                refs[value] = 0
                self._stale_boundaries += 1
        if self._stale_boundaries > STALE_COMPACTION_FRACTION * len(self._boundaries):
            self._compact()

    def _compact(self) -> None:
        """Drop every stale boundary and merge its slabs in place.

        A stale boundary carries no live endpoint, so every live interval
        covering any of its three adjacent slabs (gap, point, gap) covers
        all of them — the covers are equal and collapse into one gap slab
        without changing any lookup result.
        """
        refs = self._endpoint_refs
        boundaries = self._boundaries
        point_cover, gap_cover = self._point_cover, self._gap_cover
        kept_boundaries: list[float] = []
        kept_points: list[tuple[int, ...]] = []
        kept_gaps: list[tuple[int, ...]] = [gap_cover[0]]
        for index, value in enumerate(boundaries):
            if refs.get(value, 0) > 0:
                kept_boundaries.append(value)
                kept_points.append(point_cover[index])
                kept_gaps.append(gap_cover[index + 1])
            else:
                # Stale: its point cover equals both neighbouring gap
                # covers, so skipping the boundary keeps the (identical)
                # gap already recorded.
                refs.pop(value, None)
        self._boundaries = kept_boundaries
        self._point_cover = kept_points
        self._gap_cover = kept_gaps
        self._stale_boundaries = 0
        self.probe_cost = max(1, len(kept_boundaries).bit_length())

    def __len__(self) -> int:
        return len(self._boundaries)

    @property
    def entry_count(self) -> int:
        """Number of live range entries: each holds two endpoint references."""
        return sum(self._endpoint_refs.values()) // 2

    def slabs(self) -> Iterator[tuple[Interval | None, tuple[int, ...]]]:
        """Iterate over ``(slab_interval, entry_ids)`` pairs.

        Point slabs yield degenerate intervals; interior gap slabs yield
        open intervals.  The two unbounded outer gaps yield ``None`` (their
        cover is empty by construction).
        """
        boundaries = self._boundaries
        for gap_index, cover in enumerate(self._gap_cover):
            if gap_index == 0 or gap_index == len(boundaries):
                yield None, cover
            else:
                low, high = boundaries[gap_index - 1], boundaries[gap_index]
                if low < high:
                    yield Interval(low, high, False, False), cover
                else:  # pragma: no cover - duplicate boundaries collapse
                    yield None, cover
        for value, cover in zip(boundaries, self._point_cover):
            if math.isinf(value):
                yield None, cover
            else:
                yield Interval.point(value), cover
