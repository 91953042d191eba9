"""Predicate-index matching engine.

This subsystem generalises the predicate-counting idea (Le Subscribe,
Fabret et al. — see :mod:`repro.matching.counting`) into a planned,
per-(attribute, operator) index:

Bucket layout
-------------
Every distinct ``(attribute, predicate)`` pair becomes one *entry* shared
by all subscribing profiles.  Per attribute the entries are split by
operator into:

* a **hash bucket** (``Equals``, ``OneOf``) — per event value the number
  of entries registered there and the XOR of their subscriber masks; one
  dict probe per event resolves exactly the satisfied equality entries,
* an **interval bucket** (``RangePredicate``) — the overlapping ranges are
  decomposed into sorted *slabs* (point slabs at each distinct endpoint,
  open gap slabs between them), each carrying the number of entries that
  cover it and the XOR of their subscriber masks; one ``bisect`` probe
  over the slab boundaries resolves every satisfied range entry with exact
  open/closed-bound semantics,
* a **scan fallback** (``NotEquals`` and anything without a natural index)
  — entry objects inside the matcher, evaluated one by one like the
  counting baseline's general index.

The :class:`IndexPlanner` compares, per attribute, the expected cost of a
probe (``probe + E[hits]`` under the event distribution ``P_e``, mirroring
the ``E(X) + R_0`` decomposition of the paper's Eq. 2) against the cost of
scanning all entries, and charges a structure as scanned when the probe
would not pay off; the matcher still reads that structure's answer from
its bucket, so a verdict sets the charge, never the result.  It also
ranks attributes by rejection
power (Measures A1/A2 of :mod:`repro.selectivity`) so the matcher probes
the most selective attribute first and can stop as soon as a
fully-constrained attribute yields no hit.

:class:`PredicateIndexMatcher` then satisfies profiles by intersecting
index hits — never by evaluating profiles one at a time — and offers a
batch API (:meth:`PredicateIndexMatcher.match_batch`) that amortises
per-event dispatch for the service layer and the benchmarks.

The matcher works on a **dense-id bitmask core**: integer profile ids from
an allocator with a free list, and every set of profiles — an entry's
subscribers, an attribute's unconstraining profiles, an event's matches —
one Python ``int`` with bit *d* for dense id *d*; an event's matches are
one AND per probed attribute.  It maintains its buckets
**incrementally**: ``add_profile`` / ``remove_profile`` apply postings
deltas — splicing a slab endpoint in when its first entry arrives and out
when its last one leaves, and flipping the profile's bit in the affected
masks — instead of rebuilding, with planner recosting deferred to the
next plan query.  A bucket holds only its live entries, so a churned
index equals one built afresh over the same live profiles.  See :mod:`repro.matching.index.matcher`
for the layout.

Columnar batch execution
------------------------
Batches of at least :data:`~repro.matching.index.kernel.MIN_COLUMNAR_BATCH`
events entering :meth:`PredicateIndexMatcher.match_batch` run through the
**columnar kernel** (:mod:`repro.matching.index.kernel`) instead of the
per-event loop: every distinct ``(attribute, value)`` probe is resolved
once per batch into the mask of profiles surviving the attribute, so each
later event carrying the value costs one lookup and one AND.  The kernel
and the per-event loop share one per-attribute probe (the matcher's
``_AttributeState.probe``), so the pricing rule is written once.  Results are
bit-identical to sequential :meth:`match` calls, including the per-event
operation accounting; only the *executed* work shrinks (observable via
:class:`~repro.matching.index.kernel.KernelStats`).  Below the cutover the
per-event fast path is kept, since its fixed overhead is lower for tiny
batches.  Everything is pure Python; there is no optional dependency.
"""

from repro.matching.index import kernel
from repro.matching.index.buckets import HashBucket, IntervalBucket
from repro.matching.index.kernel import KernelStats, match_batch_columnar
from repro.matching.index.matcher import PredicateIndexMatcher
from repro.matching.index.planner import AttributePlan, IndexPlan, IndexPlanner

# ``kernel.MIN_COLUMNAR_BATCH`` is deliberately NOT re-exported as a
# package attribute: the hot path reads it off the kernel module at call
# time, so only patching it *there* has any effect — a package-level value
# copy would make ``monkeypatch.setattr`` a silent no-op.  Reach it via the
# ``kernel`` submodule.
__all__ = [
    "AttributePlan",
    "HashBucket",
    "IndexPlan",
    "IndexPlanner",
    "IntervalBucket",
    "KernelStats",
    "PredicateIndexMatcher",
    "kernel",
    "match_batch_columnar",
]
