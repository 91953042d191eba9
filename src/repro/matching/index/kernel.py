"""Columnar batch-matching kernel for the predicate-index matcher.

:func:`match_batch_columnar` filters a whole batch of events while
resolving every *distinct* ``(attribute, value)`` probe only once.  Both
this kernel and the per-event loop of
:meth:`~repro.matching.index.matcher.PredicateIndexMatcher.match` resolve a
value with the attribute's one probe, ``_AttributeState.probe`` (bucket
lookup, cover mask, scan evaluations).  The per-event loop pays it once per
event; real batches carry massive value redundancy (a 1500-event
stock-ticker batch observes ~40 distinct symbols), so the kernel keeps a
per-batch memo per probed attribute:

* **Probe dedup.**  The first event carrying a value probes it once into
  ``(operations, keep)``: the operations the per-event loop charges any
  event carrying the value, and the bitmask of profiles that survive the
  attribute — ``probe mask | free mask`` (see
  :mod:`repro.matching.index.matcher` for the bitmask layout).  Every later
  event carrying the value costs one dict lookup, a class check and one
  ``&``; an equal value of another class (``True`` after ``1``) probes
  again, since a range accepts ``1`` but no ``bool``.
* **Exact early rejection.**  ``keep == 0`` happens exactly when every
  live profile constrains the attribute and the probe hits nothing — the
  per-event loop's rejection — so the event stops there with the same
  charged operations.
* **Shared results.**  Events with the same surviving mask, operations and
  attribute count produce equal results; :class:`MatchResult` is an
  immutable value object, so one instance (and one id read-out) serves
  them all.

Results are identical to per-event :meth:`match` — same matched ids, same
order, same operation accounting (operations are *charged* per event as
if each event had probed alone; the dedup shrinks the work actually
*executed*, reported separately via :class:`KernelStats`: each distinct
probe's operations once, less the entries of a slab cover that an earlier
distinct value of the batch already resolved — the probe returns its
cover so the kernel can tell).

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
    per-event loop by construction.  ``executed_operations`` counts each
    distinct probe once (the work the kernel actually performs after
    dedup), so ``charged / executed`` is the deterministic batch-dedup
    factor the benchmarks gate on.
    """

    events: int = 0
    charged_operations: int = 0
    #: Comparison operations actually executed: each distinct
    #: (attribute, value) probe of the batch counted once, and the
    #: entries of an interval-slab cover shared by several distinct
    #: values counted once per cover.
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

        Used by the service layer to aggregate executed-work stats across
        matcher instances retired by adaptive replanning.
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
    #: class probes again, see the module doc) and the slab covers
    #: already resolved this batch.
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
        for attribute, state, memo, seen_covers in columns:
            value = values.get(attribute, _MISSING)
            if value is _MISSING:
                matched &= state.free
                continue
            probe = memo.get(value)
            if probe is None or probe[2] is not value.__class__:
                cost, mask, cover = state.probe(value)
                probe = memo[value] = (cost, mask | state.free, value.__class__)
                distinct += 1
                executed += cost
                if cover:
                    # Range-heavy columns map many distinct values onto
                    # few slab covers, and the cover-mask cache resolves
                    # each once; the bucket cannot change during a batch,
                    # so the cover's id names it.
                    if id(cover) in seen_covers:
                        executed -= len(cover)
                    else:
                        seen_covers.add(id(cover))
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
            result = shared[key] = MatchResult(
                profile_ids(matched), operations, visited_levels=len(values)
            )
        results.append(result)
    if stats is not None:
        stats.events += len(events)
        stats.charged_operations += charged
        stats.distinct_probes += distinct
        stats.executed_operations += executed
    return results
