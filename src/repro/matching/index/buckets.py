"""Per-(attribute, operator) index buckets.

Each bucket maps one event value to the *predicate entries* it satisfies,
where an entry is one distinct ``(attribute, predicate)`` pair shared by
every profile that subscribes to it (the Le Subscribe / predicate-counting
factoring the :mod:`repro.matching.counting` baseline gestures at, made
into a first-class data structure):

* :class:`HashBucket` — ``Equals`` / ``OneOf`` entries.  One hash probe per
  event resolves *exactly* the equality entries registered on the observed
  value; a ``OneOf`` entry is registered once per accepted value.
* :class:`IntervalBucket` — range entries (``RangePredicate``).  The raw,
  possibly overlapping intervals are decomposed into *slabs*: every distinct
  endpoint becomes a point slab and every open gap between two consecutive
  endpoints becomes a gap slab, so a single :func:`bisect.bisect_left`
  probe finds the one slab a value lies in, with exact open/closed endpoint
  semantics and no per-entry comparison.

``NotEquals`` and any predicate kind without a natural index fall back to
a linear scan (one evaluation per distinct entry, like the counting
baseline's general index).  The scan path lives inside the matcher — it
needs no bucket structure.  When the
:class:`~repro.matching.index.planner.IndexPlanner` decides that probing a
bucket would not pay off, the matcher charges that bucket's entries as
scanned but still reads its answer from the bucket.

What a bucket stores per key
----------------------------
Every entry carries a *mask*: the bitmask of its subscribing profiles
(see :mod:`repro.matching.index.matcher`).  A profile has at most one
predicate per attribute, so the masks of one attribute's entries are
disjoint, and the OR of any set of them is their XOR.  A bucket therefore
keeps, per key — a hash value or a slab — exactly ``(count, mask)``: how
many live entries the key satisfies (the operations a probe charges) and
the XOR of their masks, the probe's answer with nothing left to combine.
No key holds its entries' ids, and both buckets count their live entries
in ``entry_count``.

Every edit is exact and local.  The build sweep XORs an entry's mask in
where its slab span starts and out where it stops; adding or removing an
entry moves each of its keys' counts by one and XORs its mask into them;
a subscriber joining or leaving an existing entry XORs its one bit into
the same keys (``flip``).  Both buckets take the same three edits —
``add``, ``remove`` and ``flip`` — so subscription churn never rebuilds a
bucket from scratch.

A bucket holds only its live entries.  A hash value leaves with its last
entry.  :meth:`IntervalBucket.add` splices a new endpoint into the sorted
boundary list (a :func:`bisect.insort`-style edit that splits the
enclosing gap slab into gap/point/gap, three copies of one slab), and
:meth:`IntervalBucket.remove` deletes a boundary as soon as its last
endpoint leaves, together with its point slab and the gap above it: no
live interval ends there, so both equal the gap below.  The boundaries
are always the live entries' endpoints, and a churned bucket equals one
built afresh from its live entries.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from repro.core.intervals import Interval

__all__ = ["HashBucket", "IntervalBucket"]

#: :meth:`IntervalBucket.lookup` of a value no range accepts by type.
_NO_SLAB = (-1, 0, 0)


class HashBucket:
    """Hash index over the equality-style entries of one attribute.

    Built from ``(values, entry_mask)`` pairs: per entry, the values it is
    registered under and its subscriber mask.  Per value it keeps the
    number of entries registered there and the XOR of their masks.
    """

    __slots__ = ("counts", "masks", "entry_count")

    #: A hash probe costs one comparison, like the counting baseline's
    #: equality fast path.
    probe_cost = 1

    def __init__(self, items: Iterable[tuple[Iterable[object], int]]) -> None:
        #: Live value-to-entry-count and value-to-mask mappings, with the
        #: same keys.  The matcher's probe reads both directly, and its
        #: commonest edit, a subscriber joining or leaving an ``Equals``
        #: entry, XORs its bit into :attr:`masks` in place; any other edit
        #: goes through :meth:`add` / :meth:`remove` / :meth:`flip`.
        self.counts: dict[object, int] = {}
        self.masks: dict[object, int] = {}
        #: Number of live entries (a ``OneOf`` entry counts once).
        self.entry_count = 0
        for values, mask in items:
            self.add(values, mask)

    def lookup(self, value: object) -> tuple[int, int]:
        """Return ``(count, mask)`` of the entries registered under ``value``."""
        return self.counts.get(value, 0), self.masks.get(value, 0)

    def add(self, values: Iterable[object], mask: int) -> None:
        """Add one entry with subscriber ``mask`` under each of ``values``."""
        counts, masks = self.counts, self.masks
        for value in values:
            count = counts.get(value, 0)
            counts[value] = count + 1
            masks[value] = masks[value] ^ mask if count else mask
        self.entry_count += 1

    def flip(self, values: Iterable[object], bit: int) -> None:
        """XOR ``bit`` into the live entry registered under ``values``: one
        subscriber joining or leaving it (counts do not move)."""
        masks = self.masks
        for value in values:
            masks[value] ^= bit

    def remove(self, values: Iterable[object], mask: int) -> None:
        """Remove one entry, whose subscriber mask is ``mask``; a value
        leaves with its last entry."""
        counts, masks = self.counts, self.masks
        for value in values:
            count = counts[value] - 1
            if count:
                counts[value] = count
                masks[value] ^= mask
            else:
                del counts[value], masks[value]
        self.entry_count -= 1

    def __len__(self) -> int:
        return len(self.counts)


class IntervalBucket:
    """Sorted slab index over the range entries of one attribute.

    Built from ``(interval, entry_mask)`` pairs.  The constructor
    decomposes the intervals into point slabs (one per distinct endpoint)
    and gap slabs (the open interval between consecutive endpoints).
    Duplicate boundaries collapse into a single point slab, and
    open/closed endpoints are honoured exactly: an entry's interval covers
    its endpoint's point slab only when that side is closed.

    Slabs are numbered in sweep order — gap 0, point 0, gap 1, ...,
    point n-1, gap n — so slab ``2j`` is gap ``j`` (between boundaries
    ``j - 1`` and ``j``) and slab ``2i + 1`` is point ``i``; every
    interval covers one contiguous run of slab numbers.  Per slab the
    bucket keeps two ints, in two parallel lists: the number of covering
    entries and the XOR of their masks.
    """

    __slots__ = ("_boundaries", "_counts", "_masks", "_endpoint_refs", "entry_count", "probe_cost")

    def __init__(self, items: Sequence[tuple[Interval, int]]) -> None:
        boundaries = sorted({b for interval, _ in items for b in (interval.low, interval.high)})
        self._boundaries = boundaries
        #: Live endpoints per boundary value; its keys are the boundaries.
        refs: dict[float, int] = {}
        for interval, _ in items:
            refs[interval.low] = refs.get(interval.low, 0) + 1
            refs[interval.high] = refs.get(interval.high, 0) + 1
        self._endpoint_refs = refs
        #: Number of live range entries.
        self.entry_count = len(items)
        # One sweep over the slabs builds every slab in O(k + slabs): each
        # interval covers a contiguous slab run determined by its
        # endpoints' openness, so it adds one to the count and XORs its
        # mask in where the run starts, and undoes both just past where it
        # stops; the running sums are the slabs.  The run can end at most
        # at the last point slab, so "just past" is always a slab.
        boundary_index = {value: index for index, value in enumerate(boundaries)}
        slab_count = 2 * len(boundaries) + 1
        counts = [0] * slab_count
        masks = [0] * slab_count
        for interval, mask in items:
            low_index = boundary_index[interval.low]
            high_index = boundary_index[interval.high]
            first = 2 * low_index + 1 if interval.low_closed else 2 * low_index + 2
            stop = 2 * high_index + 2 if interval.high_closed else 2 * high_index + 1
            counts[first] += 1
            masks[first] ^= mask
            counts[stop] -= 1
            masks[stop] ^= mask
        running_count = running_mask = 0
        for slab in range(slab_count):
            running_count += counts[slab]
            running_mask ^= masks[slab]
            counts[slab] = running_count
            masks[slab] = running_mask
        self._counts = counts
        self._masks = masks
        #: Comparisons charged per bisect probe: the depth of the binary
        #: search over the boundary list.
        self.probe_cost = max(1, len(boundaries).bit_length())

    def lookup(self, value: object) -> tuple[int, int, int]:
        """Return ``(slab, count, mask)`` of the slab ``value`` lies in.

        ``count`` is the number of entries whose interval contains
        ``value`` and ``mask`` the XOR of their masks.  A value no range
        accepts by type (anything but an ``int`` or ``float``, and every
        ``bool``) lies in no slab: ``(-1, 0, 0)``.
        """
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return _NO_SLAB
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        if position < len(boundaries) and boundaries[position] == value:
            slab = 2 * position + 1
        else:
            slab = 2 * position
        return slab, self._counts[slab], self._masks[slab]

    # -- incremental maintenance ----------------------------------------------
    def _register_endpoint(self, value: float) -> None:
        """Count one live endpoint on ``value``, splicing it into the
        boundary list if it is not a boundary yet.

        Inserting a boundary splits its enclosing gap slab into
        gap/point/gap.  The new point slab and both gap halves copy the old
        gap: the value was strictly inside the open gap, so exactly the
        intervals covering the gap cover it.
        """
        refs = self._endpoint_refs
        count = refs.get(value, 0)
        refs[value] = count + 1
        if count:
            return
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        boundaries.insert(position, value)
        gap = 2 * position
        for column in (self._counts, self._masks):
            column[gap:gap] = (column[gap], column[gap])
        self.probe_cost = max(1, len(boundaries).bit_length())

    def _release_endpoint(self, value: float) -> None:
        """Drop one live endpoint from ``value``, deleting the boundary
        with its last one.

        No live interval then ends at the boundary, so each covers its
        point slab and the gaps on both sides alike: the point slab and the
        gap above it go, and the gap below stands for all three.
        """
        refs = self._endpoint_refs
        count = refs[value] - 1
        if count:
            refs[value] = count
            return
        del refs[value]
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        del boundaries[position]
        point = 2 * position + 1
        del self._counts[point : point + 2], self._masks[point : point + 2]
        self.probe_cost = max(1, len(boundaries).bit_length())

    def _slab_span(self, interval: Interval) -> tuple[int, int]:
        """Return the first covered slab of ``interval`` and the slab just
        past its last one.  Both endpoints must already be boundaries."""
        boundaries = self._boundaries
        low_index = bisect_left(boundaries, interval.low)
        high_index = bisect_left(boundaries, interval.high)
        first = 2 * low_index + 1 if interval.low_closed else 2 * low_index + 2
        stop = 2 * high_index + 2 if interval.high_closed else 2 * high_index + 1
        return first, stop

    def _edit(self, interval: Interval, step: int, mask: int) -> None:
        """Add ``step`` to the count and XOR ``mask`` into the mask of every
        slab ``interval`` covers."""
        first, stop = self._slab_span(interval)
        if step:
            counts = self._counts
            counts[first:stop] = [count + step for count in counts[first:stop]]
        masks = self._masks
        masks[first:stop] = [slab ^ mask for slab in masks[first:stop]]

    def add(self, interval: Interval, mask: int) -> None:
        """Add one range entry with subscriber ``mask`` in place."""
        self._register_endpoint(interval.low)
        self._register_endpoint(interval.high)
        self._edit(interval, 1, mask)
        self.entry_count += 1

    def flip(self, interval: Interval, bit: int) -> None:
        """XOR ``bit`` over the slabs of the live entry on ``interval``: one
        subscriber joining or leaving it (counts do not move)."""
        self._edit(interval, 0, bit)

    def remove(self, interval: Interval, mask: int) -> None:
        """Remove one range entry, whose subscriber mask is ``mask``, and
        every boundary that held only its endpoints."""
        self._edit(interval, -1, mask)
        self._release_endpoint(interval.low)
        self._release_endpoint(interval.high)
        self.entry_count -= 1

    def __len__(self) -> int:
        return len(self._boundaries)

    @property
    def boundaries(self) -> Sequence[float]:
        """The sorted slab boundaries: the live entries' endpoints (read-only)."""
        return self._boundaries

    @property
    def counts(self) -> Sequence[int]:
        """Every slab's entry count, by slab number (read-only): gap ``j``
        at ``2j``, point ``i`` at ``2i + 1``."""
        return self._counts

    @property
    def masks(self) -> Sequence[int]:
        """Every slab's mask, by slab number (read-only), as :attr:`counts`."""
        return self._masks

    def slabs(self) -> Iterator[tuple[Interval | None, int, int]]:
        """Iterate over ``(slab_interval, count, mask)`` triples, every gap
        slab first and then every point slab.

        Point slabs yield degenerate intervals; interior gap slabs yield
        open intervals.  The two unbounded outer gaps yield ``None`` (they
        are covered by no entry), and so do points at an infinite boundary.
        """
        boundaries = self._boundaries
        counts, masks = self._counts, self._masks
        for gap_index in range(len(boundaries) + 1):
            slab = 2 * gap_index
            if gap_index == 0 or gap_index == len(boundaries):
                yield None, counts[slab], masks[slab]
            else:
                low, high = boundaries[gap_index - 1], boundaries[gap_index]
                if low < high:
                    yield Interval(low, high, False, False), counts[slab], masks[slab]
                else:  # pragma: no cover - duplicate boundaries collapse
                    yield None, counts[slab], masks[slab]
        for index, value in enumerate(boundaries):
            slab = 2 * index + 1
            # Compared, not ``math.isinf``: an ``int`` boundary past the
            # float range would overflow.
            if not -math.inf < value < math.inf:
                yield None, counts[slab], masks[slab]
            else:
                yield Interval.point(value), counts[slab], masks[slab]
