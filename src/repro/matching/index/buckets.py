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

What a bucket stores per value
------------------------------
Every entry carries a *mask*: the bitmask of its subscribing profiles
(see :mod:`repro.matching.index.matcher`).  A profile has at most one
predicate per attribute, so the masks of one attribute's entries are
disjoint, and the OR of any set of them is their XOR.  A bucket therefore
keeps, per hash value and per slab, the XOR of the masks of the entries
it satisfies — the probe's answer, with nothing left to combine:

* a hash value stores its tuple of entry ids and that mask;
* a slab stores only ``(count, mask)``: how many entries cover it (the
  operations a probe charges) and the XOR of their masks.  No slab holds
  its entries' ids.

Every edit of that XOR is exact and local.  The build sweep XORs an
entry's mask in where its slab span starts and out where it stops; adding
or removing an entry moves each covered slab's count by one and XORs the
entry's mask over its span; a subscriber joining or leaving an existing
entry XORs its one bit over the same span (:meth:`IntervalBucket.flip`),
or into each hash value the entry is registered under
(:attr:`HashBucket.masks`).

Both bucket kinds support *incremental maintenance* so subscription churn
never rebuilds a bucket from scratch:

* :meth:`HashBucket.add_entry` / :meth:`HashBucket.discard_entry` edit one
  value's entry tuple and mask;
* :meth:`IntervalBucket.add` splices any new endpoints into the sorted
  boundary list (a :func:`bisect.insort`-style edit that splits the
  enclosing gap slab into gap/point/gap, three copies of one slab) and then
  adds the entry to every covered slab; :meth:`IntervalBucket.remove`
  removes it from its covered slabs but normally leaves the boundaries in
  place — a stale boundary is semantically invisible (its point slab equals
  the merged neighbouring gap slabs).  The bucket tracks per-endpoint
  reference counts, and once more than :data:`STALE_COMPACTION_FRACTION`
  of the boundaries are dead, :meth:`IntervalBucket.remove` compacts in
  place — dropping the dead boundaries and keeping one of their (provably
  equal) slabs — so heavy churn cannot grow the slab structure without
  bound, and no replan needs to rebuild the bucket.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.intervals import Interval

__all__ = ["HashBucket", "IntervalBucket", "STALE_COMPACTION_FRACTION"]

#: When removals leave more than this fraction of an interval bucket's
#: boundaries without any live referencing endpoint, :meth:`IntervalBucket.remove`
#: compacts the slab structure in place.
STALE_COMPACTION_FRACTION = 0.5

#: :meth:`IntervalBucket.lookup` of a value no range accepts by type.
_NO_SLAB = (-1, 0, 0)


class HashBucket:
    """Hash index over equality-style entries of one attribute.

    Built from ``{value: [(entry_id, entry_mask), ...]}``: per value, the
    entries registered under it and each entry's subscriber mask.
    """

    __slots__ = ("table", "masks")

    #: A hash probe costs one comparison, like the counting baseline's
    #: equality fast path.
    probe_cost = 1

    def __init__(self, table: Mapping[object, Iterable[tuple[int, int]]]) -> None:
        #: Live value-to-entry-ids mapping.  The matcher's probe reads it
        #: directly; treat it as read-only outside :meth:`add_entry` /
        #: :meth:`discard_entry`.
        self.table: dict[object, tuple[int, ...]] = {}
        #: Live value-to-mask mapping, with the same keys as :attr:`table`.
        #: The matcher's probe reads it directly, and a subscriber joining
        #: or leaving an existing entry XORs its bit into each of the
        #: entry's values here; any other edit goes through
        #: :meth:`add_entry` / :meth:`discard_entry`.
        self.masks: dict[object, int] = {}
        for value, entries in table.items():
            entry_ids = []
            mask = 0
            for entry_id, entry_mask in entries:
                entry_ids.append(entry_id)
                mask ^= entry_mask
            self.table[value] = tuple(entry_ids)
            self.masks[value] = mask

    def lookup(self, value: object) -> tuple[tuple[int, ...], int]:
        """Return the entry ids satisfied by ``value`` and their mask."""
        return self.table.get(value, ()), self.masks.get(value, 0)

    def add_entry(self, value: object, entry_id: int, mask: int) -> None:
        """Register ``entry_id`` with subscriber ``mask`` under ``value``."""
        existing = self.table.get(value)
        if existing is None:
            self.table[value] = (entry_id,)
            self.masks[value] = mask
        else:
            self.table[value] = existing + (entry_id,)
            self.masks[value] ^= mask

    def discard_entry(self, value: object, entry_id: int, mask: int) -> None:
        """Unregister ``entry_id``, whose subscriber mask is ``mask``, from
        ``value``; drops empty value rows."""
        existing = self.table.get(value)
        if existing is None or entry_id not in existing:
            return
        remaining = tuple(e for e in existing if e != entry_id)
        if remaining:
            self.table[value] = remaining
            self.masks[value] ^= mask
        else:
            del self.table[value]
            del self.masks[value]

    def __len__(self) -> int:
        return len(self.table)

    def items(self) -> Iterator[tuple[object, tuple[int, ...]]]:
        """Iterate over ``(value, entry_ids)`` pairs (for cost estimation)."""
        return iter(self.table.items())


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

    __slots__ = (
        "_boundaries",
        "_counts",
        "_masks",
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
    def _ensure_boundary(self, value: float) -> bool:
        """Splice ``value`` into the boundary list if it is not one yet.

        Inserting a boundary splits its enclosing gap slab into
        gap/point/gap.  The new point slab and both gap halves copy the old
        gap: the value was strictly inside the open gap, so exactly the
        intervals covering the gap cover it.  Returns whether the boundary
        was freshly inserted.
        """
        boundaries = self._boundaries
        position = bisect_left(boundaries, value)
        if position < len(boundaries) and boundaries[position] == value:
            return False
        boundaries.insert(position, value)
        gap = 2 * position
        for column in (self._counts, self._masks):
            column[gap:gap] = (column[gap], column[gap])
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

    def flip(self, interval: Interval, bit: int) -> None:
        """XOR ``bit`` over the slabs of the live entry on ``interval``: one
        subscriber joining or leaving it (counts do not move)."""
        self._edit(interval, 0, bit)

    def remove(self, interval: Interval, mask: int) -> None:
        """Remove one range entry, whose subscriber mask is ``mask``.

        The entry's endpoints usually stay in the boundary list (a stale
        boundary is semantically invisible); once more than
        :data:`STALE_COMPACTION_FRACTION` of the boundaries are stale the
        slab structure is compacted in place, so heavy churn keeps the
        probe depth and slab count proportional to the *live* entries.
        """
        self._edit(interval, -1, mask)
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
        all of them — the slabs are equal and collapse into one gap slab
        without changing any lookup result.
        """
        refs = self._endpoint_refs
        counts, masks = self._counts, self._masks
        kept_boundaries: list[float] = []
        kept_counts = [counts[0]]
        kept_masks = [masks[0]]
        for index, value in enumerate(self._boundaries):
            if refs.get(value, 0) > 0:
                kept_boundaries.append(value)
                point = 2 * index + 1
                kept_counts += counts[point : point + 2]
                kept_masks += masks[point : point + 2]
            else:
                # Stale: its point slab equals both neighbouring gaps, so
                # skipping the boundary keeps the (identical) gap already
                # recorded.
                refs.pop(value, None)
        self._boundaries = kept_boundaries
        self._counts = kept_counts
        self._masks = kept_masks
        self._stale_boundaries = 0
        self.probe_cost = max(1, len(kept_boundaries).bit_length())

    def __len__(self) -> int:
        return len(self._boundaries)

    @property
    def entry_count(self) -> int:
        """Number of live range entries: each holds two endpoint references."""
        return sum(self._endpoint_refs.values()) // 2

    @property
    def boundaries(self) -> Sequence[float]:
        """The sorted slab boundaries, stale ones included (read-only)."""
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
