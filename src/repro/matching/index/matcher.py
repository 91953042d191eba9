"""The predicate-index matcher (dense-id counting core).

:class:`PredicateIndexMatcher` decomposes every profile predicate into the
per-(attribute, operator) buckets of :mod:`repro.matching.index.buckets`
and satisfies profiles by *counting over index hits*: each distinct
``(attribute, predicate)`` pair is one entry shared by all subscribing
profiles; per event and attribute a single probe returns the satisfied
entries, their subscribers' counters are incremented, and the profiles
whose counter reaches their constrained-attribute count match.

Dense-id layout
---------------
The hot loop never touches profile-id strings.  Every profile is assigned a
**dense integer id** by an allocator with a free list (``_id_of`` /
``_pid_of`` / ``_free_ids``), so subscription churn recycles ids instead of
growing the id space.  Everything per-profile is an array indexed by dense
id:

* ``_required[dense]`` — number of constrained attributes (the match
  threshold);
* ``_order_pos[dense]`` — monotone insertion stamp used to report matches
  in profile-set insertion order;
* ``_counts[dense]`` — the per-event hit counter, a preallocated list of
  ints (a plain list beats ``bytearray``/``array('I')`` here: CPython
  specialises list subscripts, and unboxed arrays re-box every value on
  read).

Posting lists are flattened into contiguous slabs of dense ids, built
lazily per distinct entry-id tuple and memoised in a per-attribute cache
that maintenance simply drops.  Per event the counter is reset by walking
the *touched* dense ids — never by reallocating — so :meth:`match` /
:meth:`match_batch` allocate nothing per event beyond the result object.

Incremental maintenance
-----------------------
:meth:`add_profile` / :meth:`remove_profile` apply **postings deltas**: the
profile's entries are spliced into (or out of) the hash, slab and scan
buckets in place (slab buckets splice endpoints via ``bisect.insort``-style
edits, see :class:`~repro.matching.index.buckets.IntervalBucket`), which
makes the cost of one churn operation proportional to the profile's own
predicates — not to the total predicate population.  Strategy decisions
(index-vs-scan per attribute, the probe order) are *not* recomputed per
churn op; maintenance merely raises a deferred-replan flag and the planner
recosts lazily the next time :attr:`plan` (or an estimated cost) is asked
for.  A full :meth:`replan` rebuild also compacts ids and stale slab
boundaries.

Maintenance must go through the matcher's own methods; mutating the wrapped
:class:`~repro.core.profiles.ProfileSet` directly desynchronises the index.

Operation accounting follows the suite's convention (one comparison per
probe step and per satisfied/scanned entry; counter bookkeeping is free —
see ``CountingMatcher`` and the baselines benchmark for the caveat this
implies).  The matcher is not reentrant: the counter and touched list are
shared scratch state, so concurrent :meth:`match` calls on one instance
are not supported.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.errors import MatchingError
from repro.core.events import Event
from repro.core.predicates import Equals, OneOf, Predicate, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.distributions.base import Distribution
from repro.matching.index import kernel
from repro.matching.index.buckets import HashBucket, IntervalBucket
from repro.matching.index.planner import AttributePlan, IndexPlan, IndexPlanner
from repro.matching.interfaces import MatchResult

__all__ = ["PredicateIndexMatcher"]

#: Entry kinds: hash bucket (Equals/OneOf), slab bucket (ranges), scan.
_HASH, _RANGE, _SCAN = 0, 1, 2


def _classify(predicate: Predicate) -> int:
    if isinstance(predicate, (Equals, OneOf)):
        return _HASH
    if isinstance(predicate, RangePredicate):
        return _RANGE
    return _SCAN


class _Entry:
    """One distinct ``(attribute, predicate)`` pair and its subscribers."""

    __slots__ = ("entry_id", "predicate", "kind", "postings")

    def __init__(self, entry_id: int, predicate: Predicate, kind: int) -> None:
        self.entry_id = entry_id
        self.predicate = predicate
        self.kind = kind
        #: Dense ids of the subscribing profiles (unordered).
        self.postings: list[int] = []


class _AttributeState:
    """Mutable per-attribute index state.

    ``posting_cache`` maps an entry-id tuple (a hash-bucket hit or a slab
    cover) to its flattened ``(dense-id tuple, entry count)`` posting slab.
    ``np_posting_cache`` memoises the same slabs (plus per-scan-entry
    postings, keyed by the bare entry id) as contiguous numpy arrays for
    the columnar batch kernel (:mod:`repro.matching.index.kernel`).
    Maintenance rebinds both caches to ``{}``; the hot loops re-flatten
    each distinct tuple once on its next probe.
    """

    __slots__ = (
        "entries",
        "entry_by_id",
        "next_entry_id",
        "hash_bucket",
        "hash_table",
        "interval_bucket",
        "range_entry_count",
        "scan_entries",
        "use_index",
        "use_hash",
        "use_interval",
        "view_hash",
        "view_interval",
        "view_scan",
        "constraining",
        "reject_fast",
        "posting_cache",
        "np_posting_cache",
    )

    def __init__(self) -> None:
        self.entries: dict[Predicate, _Entry] = {}
        self.entry_by_id: dict[int, _Entry] = {}
        self.next_entry_id = 0
        self.hash_bucket: HashBucket | None = None
        #: Mirror of ``hash_bucket.table`` (same dict object) so the hot
        #: loop probes it without a method call; ``None`` with the bucket.
        self.hash_table: Mapping[object, tuple[int, ...]] | None = None
        self.interval_bucket: IntervalBucket | None = None
        self.range_entry_count = 0
        self.scan_entries: list[_Entry] = []
        self.use_index = False
        #: Per-structure verdicts (see :class:`AttributePlan`): a binary
        #: planner couples both to ``use_index``; a hybrid planner may
        #: route the hash side through its bucket while the interval side
        #: scans, or vice versa.
        self.use_hash = False
        self.use_interval = False
        #: Hot-loop probe view: when the planner picks an indexed strategy
        #: for a structure these expose its bucket plus the residual scan
        #: entries; a demoted structure's entries join ``view_scan``
        #: instead, so the one loop shape serves every strategy mix
        #: without a per-event branch.
        self.view_hash: Mapping[object, tuple[int, ...]] | None = None
        self.view_interval: IntervalBucket | None = None
        self.view_scan: Iterable[_Entry] = self.scan_entries
        #: Number of live profiles constraining the attribute (each profile
        #: carries at most one predicate per attribute, so this equals the
        #: distinct-profile count).
        self.constraining = 0
        #: ``True`` when *every* live profile constrains the attribute, so
        #: a zero-hit probe rejects the event outright; refreshed by the
        #: matcher whenever the live-profile count or ``constraining``
        #: changes (see ``_refresh_reject_flags``).
        self.reject_fast = False
        self.posting_cache: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
        self.np_posting_cache: dict[object, object] = {}

    def refresh_view(self) -> None:
        """Recompile the probe view after a strategy or bucket change.

        In the homogeneous cases ``view_scan`` aliases live containers
        (``scan_entries`` or the ``entries`` dict view), so posting edits
        need no refresh — only bucket creation/teardown and strategy
        flips do.  A *mixed* plan (one structure indexed, the other
        demoted to scan) materialises the demoted entries into a list;
        entry creation/removal re-lands here, so the list stays exact.
        """
        self.view_hash = self.hash_table if self.use_hash else None
        self.view_interval = self.interval_bucket if self.use_interval else None
        if self.use_hash and self.use_interval:
            self.view_scan = self.scan_entries
        elif not self.use_hash and not self.use_interval:
            self.view_hash = None
            self.view_interval = None
            self.view_scan = self.entries.values()
        else:
            demoted = _RANGE if self.use_hash else _HASH
            self.view_scan = [
                entry
                for entry in self.entries.values()
                if entry.kind == _SCAN or entry.kind == demoted
            ]

    def flatten(self, entry_ids: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """Flatten and memoise the posting slab of an entry-id tuple.

        The slab is a tuple of dense ids rather than an ``array('I')``:
        iterating an unboxed array re-boxes every id above the small-int
        cache on every event, which measures slower than reusing the int
        objects a tuple keeps alive.
        """
        flat: list[int] = []
        by_id = self.entry_by_id
        for entry_id in entry_ids:
            flat.extend(by_id[entry_id].postings)
        posting = (tuple(flat), len(entry_ids))
        self.posting_cache[entry_ids] = posting
        return posting


class PredicateIndexMatcher:
    """Counting matcher over per-attribute predicate indexes."""

    def __init__(
        self,
        profiles: ProfileSet,
        *,
        planner: IndexPlanner | None = None,
        min_columnar_batch: int | None = None,
    ) -> None:
        self.profiles = profiles
        self._planner = planner if planner is not None else IndexPlanner()
        if min_columnar_batch is not None and min_columnar_batch < 0:
            raise MatchingError("min_columnar_batch must be non-negative")
        #: Columnar-kernel cutover override; ``None`` tracks the module
        #: default :data:`~repro.matching.index.kernel.MIN_COLUMNAR_BATCH`.
        self._min_columnar_batch = min_columnar_batch
        #: Executed-work accounting accumulated over every columnar batch
        #: this matcher instance has run (survives incremental maintenance
        #: and in-place :meth:`replan` rebuilds).
        self.kernel_stats = kernel.KernelStats()
        self._rebuild()

    # -- dense-id allocation ----------------------------------------------------
    def _allocate_id(self, profile_id: str) -> int:
        if self._free_ids:
            dense = self._free_ids.pop()
            self._pid_of[dense] = profile_id
            self._order_pos[dense] = self._order_counter
        else:
            dense = len(self._pid_of)
            self._pid_of.append(profile_id)
            self._required.append(0)
            self._order_pos.append(self._order_counter)
            self._counts.append(0)
        self._order_counter += 1
        self._id_of[profile_id] = dense
        return dense

    # -- index maintenance ------------------------------------------------------
    def _rebuild(self) -> None:
        """Batch-(re)build every structure from the profile set.

        Used at construction and by :meth:`replan`; ordinary churn goes
        through the postings-delta path instead.  The batch path builds the
        slab buckets with the O(k log k) endpoint sweep and compacts the
        dense-id space and any stale slab boundaries.
        """
        self._states: dict[str, _AttributeState] = {}
        self._id_of: dict[str, int] = {}
        self._pid_of: list[str | None] = []
        self._free_ids: list[int] = []
        self._required: list[int] = []
        self._order_pos: list[int] = []
        self._order_counter = 0
        self._counts: list[int] = []
        self._touched: list[int] = []
        self._always_match_ids: list[int] = []
        self._probe_order: tuple[str, ...] = ()
        self._probe_states: tuple[tuple[str, _AttributeState], ...] = ()
        self._probed: set[str] = set()
        self._replan_pending = True

        for profile in self.profiles:
            dense = self._allocate_id(profile.profile_id)
            constrained = 0
            for attribute, predicate in profile.predicates.items():
                if predicate.is_dont_care:
                    continue
                constrained += 1
                state = self._states.get(attribute)
                if state is None:
                    state = self._states[attribute] = _AttributeState()
                entry = state.entries.get(predicate)
                if entry is None:
                    entry = _Entry(state.next_entry_id, predicate, _classify(predicate))
                    state.next_entry_id += 1
                    state.entries[predicate] = entry
                    state.entry_by_id[entry.entry_id] = entry
                    if entry.kind == _SCAN:
                        state.scan_entries.append(entry)
                entry.postings.append(dense)
                state.constraining += 1
            self._set_required(dense, constrained)

        for state in self._states.values():
            hash_items: dict[object, list[int]] = {}
            interval_items = []
            for predicate, entry in state.entries.items():
                if entry.kind == _HASH:
                    if isinstance(predicate, Equals):
                        hash_items.setdefault(predicate.value, []).append(entry.entry_id)
                    else:
                        for value in predicate.values:
                            hash_items.setdefault(value, []).append(entry.entry_id)
                elif entry.kind == _RANGE:
                    interval_items.append((predicate.interval, entry.entry_id))
            state.hash_bucket = HashBucket(hash_items) if hash_items else None
            state.hash_table = state.hash_bucket.table if hash_items else None
            state.interval_bucket = IntervalBucket(interval_items) if interval_items else None
            state.range_entry_count = len(interval_items)
        self._recompute_plan()

    def _set_required(self, dense: int, constrained: int) -> None:
        self._required[dense] = constrained
        if constrained == 0:
            self._always_match_ids.append(dense)

    def _create_entry(self, state: _AttributeState, predicate: Predicate) -> _Entry:
        entry = _Entry(state.next_entry_id, predicate, _classify(predicate))
        state.next_entry_id += 1
        state.entries[predicate] = entry
        state.entry_by_id[entry.entry_id] = entry
        if entry.kind == _HASH:
            bucket = state.hash_bucket
            if bucket is None:
                bucket = state.hash_bucket = HashBucket({})
                state.hash_table = bucket.table
            if isinstance(predicate, Equals):
                bucket.add_entry(predicate.value, entry.entry_id)
            else:
                for value in predicate.values:
                    bucket.add_entry(value, entry.entry_id)
        elif entry.kind == _RANGE:
            bucket = state.interval_bucket
            if bucket is None:
                bucket = state.interval_bucket = IntervalBucket([])
            bucket.add(predicate.interval, entry.entry_id)
            state.range_entry_count += 1
        else:
            state.scan_entries.append(entry)
        state.refresh_view()
        return entry

    def _drop_entry(self, state: _AttributeState, predicate: Predicate, entry: _Entry) -> None:
        del state.entries[predicate]
        del state.entry_by_id[entry.entry_id]
        if entry.kind == _HASH:
            bucket = state.hash_bucket
            if isinstance(predicate, Equals):
                bucket.discard_entry(predicate.value, entry.entry_id)
            else:
                for value in predicate.values:
                    bucket.discard_entry(value, entry.entry_id)
            if len(bucket) == 0:
                state.hash_bucket = None
                state.hash_table = None
        elif entry.kind == _RANGE:
            state.interval_bucket.remove(predicate.interval, entry.entry_id)
            state.range_entry_count -= 1
            if state.range_entry_count == 0:
                # Dropping the empty bucket sheds its stale boundaries.
                state.interval_bucket = None
        else:
            state.scan_entries.remove(entry)
        state.refresh_view()

    def _insert_profile(self, profile: Profile) -> None:
        """Apply the postings delta of one added profile."""
        dense = self._allocate_id(profile.profile_id)
        constrained = 0
        new_attributes: list[str] = []
        for attribute, predicate in profile.predicates.items():
            if predicate.is_dont_care:
                continue
            constrained += 1
            state = self._states.get(attribute)
            if state is None:
                state = self._states[attribute] = _AttributeState()
            if attribute not in self._probed:
                # Probing the new attribute is required for correctness
                # immediately; its *position* is refined at the next replan.
                self._probed.add(attribute)
                self._probe_order = self._probe_order + (attribute,)
                self._probe_states = self._probe_states + ((attribute, state),)
                new_attributes.append(attribute)
            entry = state.entries.get(predicate)
            if entry is None:
                entry = self._create_entry(state, predicate)
            entry.postings.append(dense)
            state.constraining += 1
            state.posting_cache = {}
            state.np_posting_cache = {}
        self._set_required(dense, constrained)
        schema = self.profiles.schema
        for attribute in new_attributes:
            state = self._states[attribute]
            plan = self._planner.plan_attribute(
                attribute,
                schema.domain(attribute),
                hash_bucket=state.hash_bucket,
                interval_bucket=state.interval_bucket,
                scan_entry_count=len(state.scan_entries),
            )
            self._adopt_attribute_plan(state, plan)
        self._replan_pending = True

    @staticmethod
    def _adopt_attribute_plan(state: _AttributeState, plan: AttributePlan) -> None:
        """Install one attribute's strategy verdicts and recompile its view."""
        state.use_index = plan.use_index
        state.use_hash = bool(plan.use_hash)
        state.use_interval = bool(plan.use_interval)
        state.refresh_view()

    def add_profile(self, profile: Profile) -> None:
        """Register an additional profile via postings deltas.

        Cost is proportional to the profile's own predicates (plus slab
        splicing for any new range endpoints), never to the total predicate
        population; strategy recosting is deferred (see the module doc).
        """
        self.profiles.add(profile)
        self._insert_profile(profile)
        self._refresh_reject_flags()

    def add_profiles(self, profiles: Iterable[Profile]) -> None:
        """Register a batch of profiles.

        Small batches (churn) apply per-profile postings deltas; a batch
        comparable in size to the live population falls back to one full
        :meth:`_rebuild`, whose O(k log k) slab sweep beats k incremental
        endpoint splices when the ranges overlap heavily (bulk loads of
        overlapping ranges otherwise degrade to per-slab cover rebuilds).
        """
        batch = list(profiles)
        if len(batch) * 4 >= len(self.profiles) + len(batch):
            try:
                for profile in batch:
                    self.profiles.add(profile)
            finally:
                # Rebuild even on a mid-batch failure (e.g. a duplicate id)
                # so the index always describes the profile set exactly.
                self._rebuild()
            return
        try:
            for profile in batch:
                self.profiles.add(profile)
                self._insert_profile(profile)
        finally:
            # Refresh even on a mid-batch failure: the successfully
            # inserted prefix must not be shadowed by stale reject flags.
            self._refresh_reject_flags()

    def _refresh_reject_flags(self) -> None:
        """Re-derive every attribute's early-reject flag.

        O(#attributes) — the live-profile count enters every flag, so any
        churn op refreshes them all.
        """
        live = len(self._id_of)
        if live:
            for state in self._states.values():
                state.reject_fast = state.constraining == live
        else:
            for state in self._states.values():
                state.reject_fast = False

    def remove_profile(self, profile_id: str) -> None:
        """Unregister a profile via postings deltas.

        Raises :class:`~repro.core.errors.MatchingError` for an unknown
        profile id (the cross-matcher contract).
        """
        dense = self._id_of.get(profile_id)
        if dense is None:
            raise MatchingError(f"unknown profile id {profile_id!r}")
        profile = self.profiles.remove(profile_id)
        for attribute, predicate in profile.predicates.items():
            if predicate.is_dont_care:
                continue
            state = self._states[attribute]
            entry = state.entries[predicate]
            entry.postings.remove(dense)
            if not entry.postings:
                self._drop_entry(state, predicate, entry)
            state.constraining -= 1
            state.posting_cache = {}
            state.np_posting_cache = {}
        del self._id_of[profile_id]
        self._pid_of[dense] = None
        if self._required[dense] == 0:
            self._always_match_ids.remove(dense)
        self._required[dense] = 0
        self._free_ids.append(dense)
        self._refresh_reject_flags()
        self._replan_pending = True

    # -- planning introspection -------------------------------------------------
    def _recompute_plan(self) -> None:
        """Recost every attribute and adopt fresh strategy decisions.

        This is the deferred half of maintenance: churn only marks the plan
        stale, and the first subsequent :attr:`plan` / cost query lands
        here.  Attributes whose entries all churned away are pruned.
        """
        planner = self._planner
        schema = self.profiles.schema
        plans: dict[str, AttributePlan] = {}
        for attribute, state in list(self._states.items()):
            if not state.entries:
                del self._states[attribute]
                continue
            plan = planner.plan_attribute(
                attribute,
                schema.domain(attribute),
                hash_bucket=state.hash_bucket,
                interval_bucket=state.interval_bucket,
                scan_entry_count=len(state.scan_entries),
            )
            plans[attribute] = plan
            self._adopt_attribute_plan(state, plan)
        states = self._states
        self._probe_order = tuple(
            name for name in planner.probe_order(self.profiles) if name in states
        )
        self._probed = set(self._probe_order)
        #: Precompiled (attribute, state) pairs — the hot loop iterates
        #: these so it never chases the states dict per event.
        self._probe_states = tuple((name, states[name]) for name in self._probe_order)
        self._plan = IndexPlan(attributes=plans, probe_order=self._probe_order)
        self._refresh_reject_flags()
        self._replan_pending = False

    @property
    def plan(self) -> IndexPlan:
        """Return the planner's per-attribute decisions (recosted if stale)."""
        if self._replan_pending:
            self._recompute_plan()
        return self._plan

    @property
    def replan_pending(self) -> bool:
        """Return ``True`` while maintenance deltas await a lazy recost."""
        return self._replan_pending

    @property
    def planner(self) -> IndexPlanner:
        return self._planner

    def replan(self, event_distributions: Mapping[str, Distribution]) -> None:
        """Rebuild the indexes with distribution-aware planning.

        The full rebuild also compacts the dense-id space and any slab
        boundaries left stale by incremental removals.
        """
        self._planner = IndexPlanner(
            event_distributions,
            attribute_measure=self._planner.attribute_measure,
            hybrid=self._planner.hybrid,
        )
        self._rebuild()

    def estimated_cost(
        self, event_distributions: Mapping[str, Distribution] | None = None
    ) -> float:
        """Return the expected comparisons/event of the *current* plan.

        With ``event_distributions`` the current strategy choices are
        re-costed under the given distributions (used by the adaptive
        engine to judge whether replanning would pay off); without, the
        plan's own estimate is returned.  Costing always goes through
        :meth:`IndexPlanner.plan_attribute`, so both sides of a replan
        comparison use one cost model.
        """
        plan = self.plan
        if event_distributions is None:
            return plan.estimated_operations_per_event
        return plan.cost_under(self.recost_plans(event_distributions))

    def recost_plans(
        self, event_distributions: Mapping[str, Distribution]
    ) -> dict[str, AttributePlan]:
        """Re-cost the existing buckets under new distributions.

        Returns what a fresh plan over the *current* bucket contents would
        decide per attribute — without rebuilding any index structure, so
        the adaptive engine can estimate a replan's payoff cheaply and only
        build the replanned matcher when it actually applies.
        """
        planner = IndexPlanner(
            event_distributions,
            attribute_measure=self._planner.attribute_measure,
            hybrid=self._planner.hybrid,
        )
        schema = self.profiles.schema
        return {
            attribute: planner.plan_attribute(
                attribute,
                schema.domain(attribute),
                hash_bucket=state.hash_bucket,
                interval_bucket=state.interval_bucket,
                scan_entry_count=len(state.scan_entries),
            )
            for attribute, state in self._states.items()
            if state.entries
        }

    # -- matching ---------------------------------------------------------------
    def match(self, event: Event) -> MatchResult:
        """Filter one event by counting satisfied entries per profile.

        The loop allocates nothing per event: hits are counted into the
        preallocated dense counter and reset by walking the touched list.
        """
        counts = self._counts
        touched = self._touched
        if touched:
            # A previous match aborted mid-way (a predicate comparison
            # raised): heal the shared scratch state before counting.
            for dense in touched:
                counts[dense] = 0
            del touched[:]
        operations = 0
        values = event.values
        for attribute, state in self._probe_states:
            try:
                value = values[attribute]
            except KeyError:
                # Partial event: the attribute is simply unconstrainable.
                continue
            hits = 0
            hash_table = state.view_hash
            if hash_table is not None:
                operations += 1
                entry_ids = hash_table.get(value)
                if entry_ids:
                    posting = state.posting_cache.get(entry_ids)
                    if posting is None:
                        posting = state.flatten(entry_ids)
                    ids, comparisons = posting
                    operations += comparisons
                    hits = len(ids)
                    for dense in ids:
                        count = counts[dense]
                        if count == 0:
                            touched.append(dense)
                        counts[dense] = count + 1
            interval_bucket = state.view_interval
            if interval_bucket is not None:
                operations += interval_bucket.probe_cost
                cover = interval_bucket.lookup(value)
                if cover:
                    posting = state.posting_cache.get(cover)
                    if posting is None:
                        posting = state.flatten(cover)
                    ids, comparisons = posting
                    operations += comparisons
                    hits += len(ids)
                    for dense in ids:
                        count = counts[dense]
                        if count == 0:
                            touched.append(dense)
                        counts[dense] = count + 1
            # In index mode this scans the residual (NotEquals-style)
            # entries only; in scan mode view_scan is every entry of the
            # attribute (the planner judged a probe more expensive than
            # evaluating each predicate once).
            for entry in state.view_scan:
                operations += 1
                if entry.predicate.matches(value):
                    postings = entry.postings
                    hits += len(postings)
                    for dense in postings:
                        count = counts[dense]
                        if count == 0:
                            touched.append(dense)
                        counts[dense] = count + 1
            # Early rejection is sound only when *every* live profile
            # constrains the attribute (precomputed per state): a zero-hit
            # probe then proves that no profile can match.
            if hits == 0 and state.reject_fast:
                if touched:
                    for dense in touched:
                        counts[dense] = 0
                    del touched[:]
                return MatchResult(tuple(), operations, visited_levels=len(values))

        if touched:
            required = self._required
            matched = [dense for dense in touched if counts[dense] == required[dense]]
            for dense in touched:
                counts[dense] = 0
            del touched[:]
        else:
            matched = []
        if self._always_match_ids:
            matched.extend(self._always_match_ids)
        matched.sort(key=self._order_pos.__getitem__)
        pid_of = self._pid_of
        return MatchResult(
            tuple([pid_of[dense] for dense in matched]),
            operations,
            visited_levels=len(values),
        )

    def match_batch(self, events: Iterable[Event]) -> list[MatchResult]:
        """Filter a sequence of events, batch-size-aware.

        Batches of at least :attr:`min_columnar_batch` events (the
        constructor knob, defaulting to
        :data:`~repro.matching.index.kernel.MIN_COLUMNAR_BATCH`; the
        adaptive service threads
        :attr:`~repro.service.adaptive.AdaptationPolicy.min_columnar_batch`
        through here) run through the columnar batch kernel
        (:func:`~repro.matching.index.kernel.match_batch_columnar`):
        cache-aware scheduling, per-column probe dedup and — with numpy
        available — vectorized slab counting.  Smaller batches keep the
        per-event loop, whose fixed overhead is lower.  Both paths return
        exactly what sequential :meth:`match` calls would.
        """
        events = events if isinstance(events, list) else list(events)
        if len(events) >= self.min_columnar_batch:
            return kernel.match_batch_columnar(self, events, stats=self.kernel_stats)
        match = self.match
        return [match(event) for event in events]

    @property
    def min_columnar_batch(self) -> int:
        """Return the effective columnar-kernel cutover of this matcher."""
        if self._min_columnar_batch is not None:
            return self._min_columnar_batch
        return kernel.MIN_COLUMNAR_BATCH
