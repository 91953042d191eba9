"""Columnar batch-matching kernel for the predicate-index matcher.

:func:`match_batch_columnar` filters a whole batch of events while
resolving every *distinct* ``(attribute, value)`` probe only once.  Both
this kernel and the per-event loop of
:meth:`~repro.matching.index.matcher.PredicateIndexMatcher.match` resolve a
value with the attribute's one probe, ``_AttributeState.probe`` (bucket
lookups, the hit's and slab's stored masks, the residual entries).  The
per-event loop pays it once per event; real batches carry massive value
redundancy (a 1500-event stock-ticker batch observes ~40 distinct
symbols), so the kernel keeps a per-batch memo per probed attribute:

* **Probe dedup.**  The first event carrying a value probes it once into
  ``(operations, keep)``: the operations the per-event loop charges any
  event carrying the value, and the bitmask of profiles that survive the
  attribute — ``probe mask | free mask`` (see
  :mod:`repro.matching.index.matcher` for the bitmask layout).  Every later
  event carrying the value costs one dict lookup, a class check and one
  ``&``; an equal value of another class (``True`` after ``1``) probes
  again, since a range accepts ``1`` but no ``bool``.  A value the memo
  cannot hash (a list) is probed for every event that carries it, so the
  batch returns, or raises, what the per-event loop does.
* **Exact early rejection.**  ``keep == 0`` happens exactly when every
  live profile constrains the attribute and the probe hits nothing — the
  per-event loop's rejection — so the event stops there with the same
  charged operations.
* **Shared results.**  Events with the same surviving mask, operations and
  attribute count produce equal results; :class:`MatchResult` is an
  immutable value object, so one instance serves them all.  Its ids come
  from the matcher's one read-out, which :meth:`match` uses too: a mask
  is decoded once for the matcher's life, and its id tuple is built once
  and shared by every result of the mask, across batches, until one of
  its dense ids gets a new owner (see "Dense-id bitmasks" in
  :mod:`repro.matching.index.matcher`).

Results are identical to per-event :meth:`match` — same matched ids, same
order, same operation accounting (operations are *charged* per event as
if each event had probed alone; the dedup shrinks the work actually
*executed*, reported separately via :class:`KernelStats`: each distinct
probe's operations once, less the entries covering a slab that an earlier
distinct value of the batch already resolved — the probe returns the
value's slab number so the kernel can tell).  The dedup is per slab:
slabs that hold equal counts and masks, as the three slabs of a freshly
split gap do, are distinct slabs and each is counted when first
resolved.

:meth:`PredicateIndexMatcher.match_batch` routes batches of at least
:data:`MIN_COLUMNAR_BATCH` events here; smaller batches keep the
per-event fast path whose fixed overhead is lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.matching.interfaces import MatchResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, annotations only
    from repro.core.events import Event
    from repro.matching.index.matcher import PredicateIndexMatcher

__all__ = ["MIN_COLUMNAR_BATCH", "KernelStats", "match_batch_columnar"]

#: Batches below this size keep the per-event fast path: the kernel's
#: per-batch memo setup only amortises once a batch carries enough value
#: redundancy to dedupe.
MIN_COLUMNAR_BATCH = 16

#: Sentinel for "event does not carry the attribute" (values may be None).
_MISSING = object()


@dataclass
class KernelStats:
    """Executed-work accounting of one columnar run (optional).

    ``charged_operations`` is what the per-event cost model bills — the
    sum of the returned ``MatchResult.operations``, identical to the
    per-event loop by construction.  ``executed_operations`` is the same
    model counted once per distinct probe, so ``charged / executed`` is
    the deterministic batch-dedup factor the benchmarks gate on.
    """

    events: int = 0
    charged_operations: int = 0
    #: The charged model counted once per distinct probe, not a count of
    #: Python comparisons: each distinct (attribute, value) probe of the
    #: batch counted once, less the entries covering an indexed slab an
    #: earlier distinct value already resolved.  A scanned entry counts
    #: on every distinct probe, though its bucket resolves it.
    executed_operations: int = 0
    #: Distinct probes resolved (memo misses) vs probes the per-event
    #: loop would have issued.
    distinct_probes: int = 0

    @property
    def dedup_factor(self) -> float:
        """Return charged/executed operations (>= 1.0 means dedup won)."""
        if self.executed_operations <= 0:
            return 1.0
        return self.charged_operations / self.executed_operations

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Fold another accounting into this one (in place) and return it.

        Used by the routing overlay to aggregate executed-work stats
        across its links' matchers.
        """
        self.events += other.events
        self.charged_operations += other.charged_operations
        self.executed_operations += other.executed_operations
        self.distinct_probes += other.distinct_probes
        return self


def match_batch_columnar(
    matcher: "PredicateIndexMatcher",
    events: Iterable["Event"],
    *,
    stats: KernelStats | None = None,
) -> list[MatchResult]:
    """Filter a batch of events with per-batch probe dedup (see the module doc).

    Semantically identical to mapping :meth:`PredicateIndexMatcher.match`
    over ``events`` — same matched ids in the same order, same per-event
    operation counts, same partial-event and early-rejection behaviour
    (events with equal outcomes share a single immutable result object),
    because each distinct value goes through the same
    ``_AttributeState.probe`` that :meth:`~PredicateIndexMatcher.match`
    calls.  Pass a :class:`KernelStats` to observe the executed-work
    accounting.
    """
    events = events if isinstance(events, list) else list(events)
    if not events:
        return []
    #: Per probed attribute: its state, the batch's value memo
    #: ``{value: (operations, keep mask, value class)}`` (a hit of another
    #: class probes again, see the module doc) and the numbers of the
    #: slabs already resolved this batch.
    columns = [(attribute, state, {}, set()) for attribute, state in matcher._probe_states]
    live = matcher._live
    profile_ids = matcher._profile_ids
    shared: dict[tuple[int, int, int], MatchResult] = {}
    results: list[MatchResult] = []
    charged = 0
    distinct = 0
    executed = 0
    for event in events:
        values = event.values
        matched = live
        operations = 0
        for attribute, state, memo, seen_slabs in columns:
            value = values.get(attribute, _MISSING)
            if value is _MISSING:
                matched &= state.free
                continue
            try:
                probe = memo.get(value)
            except TypeError:
                probe = None  # unhashable: probed below and never memoised
            if probe is None or probe[2] is not value.__class__:
                cost, mask, slab = state.probe(value)
                probe = (cost, mask | state.free, value.__class__)
                try:
                    memo[value] = probe
                except TypeError:
                    pass
                distinct += 1
                executed += cost
                if slab >= 0:
                    # Range-heavy columns map many distinct values onto
                    # few slabs; the bucket cannot change during a batch,
                    # so a slab number names one slab throughout.
                    if slab in seen_slabs:
                        executed -= state.interval_bucket.counts[slab]
                    else:
                        seen_slabs.add(slab)
            operations += probe[0]
            keep = probe[1]
            if not keep:
                # Every live profile constrains the attribute and none is
                # satisfied: the per-event loop rejects here.
                matched = 0
                break
            matched &= keep
        charged += operations
        key = (matched, operations, len(values))
        result = shared.get(key)
        if result is None:
            result = shared[key] = MatchResult(profile_ids(matched), operations, len(values))
        results.append(result)
    if stats is not None:
        stats.events += len(events)
        stats.charged_operations += charged
        stats.distinct_probes += distinct
        stats.executed_operations += executed
    return results
