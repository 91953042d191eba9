"""The predicate-index matcher (dense-id bitmask core).

:class:`PredicateIndexMatcher` decomposes every profile predicate into the
per-(attribute, operator) buckets of :mod:`repro.matching.index.buckets`
and satisfies profiles by *intersecting index hits*: each distinct
``(attribute, predicate)`` pair is one entry shared by all subscribing
profiles; per event and attribute a single probe returns the satisfied
entries, and a profile matches when, on every attribute it constrains,
one of its entries is satisfied.

Dense-id bitmasks
-----------------
The hot loop never touches profile-id strings.  Every profile is assigned a
**dense integer id** by an allocator with a free list (``_id_of`` /
``_pid_of`` / ``_free_ids``), so subscription churn recycles ids instead of
growing the id space, and ``_order_pos[dense]`` keeps a monotone insertion
stamp that reports matches in profile-set insertion order (dense-id order
is insertion order until the first recycled id).

A set of profiles is one Python ``int`` whose bit *d* stands for dense id
*d*:

* ``_live`` — every live profile;
* ``_Entry.mask`` — the subscribers of one entry;
* ``_AttributeState.free`` — the live profiles that do **not** constrain
  the attribute (don't-care there, including the always-match profiles);
* ``_AttributeState.cover_masks`` — the OR of the entry masks of one
  hash-bucket hit or slab cover, memoised per entry-id tuple; maintenance
  rebinds the cache to ``{}``.

A probe of ``(attribute, value)`` resolves to the OR of its satisfied
entry masks, and an event's matches are the AND, over the probed
attributes, of ``probe mask | free mask`` (an attribute the event does
not carry contributes ``free`` alone).  A profile carries at most one
predicate per attribute, so the entry masks OR-ed by one probe are
disjoint.  Matched ids are read out of the final mask in dense-id order
and, once churn has recycled an id, sorted by ``_order_pos``.

The probe is written once, as ``_AttributeState.probe``:
:meth:`~PredicateIndexMatcher.match` calls it per event and attribute,
and the columnar kernel (:mod:`repro.matching.index.kernel`) once per
distinct value of a batch, so both charge the same operations.

The compiled scan
-----------------
What the probe scans — the residual entries, and the entries of a
structure the plan does not index — is compiled by
``_AttributeState.refresh_view`` whenever a plan is adopted or an entry
is created or dropped.  An exact :class:`RangePredicate` compiles to a
``(low, high, low_closed, high_closed, entry)`` tuple, which the probe
compares inline: one type check per probe, then a few comparisons per
range, instead of a ``matches`` and an ``Interval.contains`` call per
range.  Any other scanned kind keeps its
``matches``.  The probe charges the scanned count in one addition and
reads each ``entry.mask`` live, so a subscribe or cancel that only edits
masks recompiles nothing.  Every path applies one containment rule: a
range accepts an ``int`` or ``float`` (never a ``bool``), compared
exactly, and no NaN.

Incremental maintenance
-----------------------
:meth:`add_profile` / :meth:`remove_profile` apply **postings deltas**: the
profile's entries are spliced into (or out of) the hash, slab and scan
buckets in place (slab buckets splice endpoints via ``bisect.insort``-style
edits, see :class:`~repro.matching.index.buckets.IntervalBucket`) and its
bit is set in (or cleared from) the entry masks and every attribute's free
mask, which makes the cost of one churn operation proportional to the
profile's own predicates plus one mask edit per attribute — not to the
total predicate population.  Strategy decisions (index-vs-scan per
attribute, the probe order) are *not* recomputed per churn op; maintenance
merely raises a deferred-replan flag and the planner recosts lazily the
next time :attr:`plan` (or an estimated cost) is asked for.  A full
:meth:`replan` rebuild also compacts ids and stale slab boundaries.

Maintenance must go through the matcher's own methods; mutating the wrapped
:class:`~repro.core.profiles.ProfileSet` directly desynchronises the index.

Operation accounting follows the suite's convention (one comparison per
probe step and per satisfied/scanned entry; the mask arithmetic is free —
see ``CountingMatcher`` and the baselines benchmark for the caveat this
implies).  Early rejection is exact: when every live profile constrains an
attribute (its free mask is empty) and the probe hits nothing, no profile
can match and the event stops there.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.errors import MatchingError
from repro.core.events import Event
from repro.core.predicates import Equals, OneOf, Predicate, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Schema
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

    __slots__ = ("entry_id", "predicate", "kind", "mask")

    def __init__(self, entry_id: int, predicate: Predicate, kind: int) -> None:
        self.entry_id = entry_id
        self.predicate = predicate
        self.kind = kind
        #: Bitmask of the subscribing profiles' dense ids.
        self.mask = 0


class _AttributeState:
    """Mutable per-attribute index state and the one per-attribute probe.

    Every rule that prices or resolves one attribute lives here, so the
    per-event :meth:`PredicateIndexMatcher.match` loop and the columnar
    kernel (:mod:`repro.matching.index.kernel`) share it: :meth:`probe`
    resolves one value, :meth:`plan` costs the attribute's buckets,
    :meth:`adopt` installs a plan's verdicts and :meth:`new_entry`
    registers a predicate.

    ``free`` is the bitmask of live profiles that do not constrain the
    attribute.  ``cover_masks`` maps an entry-id tuple (a hash-bucket hit
    or a slab cover) to the OR of its entries' masks, keyed by the tuple's
    ``id()``: a slab cover can list hundreds of entries, and hashing the
    tuple on every probe would cost more than the mask lookup saves.  The
    buckets own the tuples and only replace them during maintenance,
    which rebinds the cache to ``{}``, so a cached id always names the
    live tuple it was computed for; :meth:`probe` rebuilds each tuple's
    mask once on its next probe.
    """

    __slots__ = (
        "entries",
        "entry_by_id",
        "next_entry_id",
        "hash_bucket",
        "interval_bucket",
        "range_entry_count",
        "scan_entries",
        "use_hash",
        "use_interval",
        "view_hash",
        "view_interval",
        "scan_ranges",
        "scan_other",
        "scan_count",
        "free",
        "cover_masks",
    )

    def __init__(self, free: int = 0) -> None:
        self.entries: dict[Predicate, _Entry] = {}
        self.entry_by_id: dict[int, _Entry] = {}
        self.next_entry_id = 0
        self.hash_bucket: HashBucket | None = None
        self.interval_bucket: IntervalBucket | None = None
        self.range_entry_count = 0
        self.scan_entries: list[_Entry] = []
        #: Per-structure verdicts (see :class:`AttributePlan`): a binary
        #: planner couples both to its ``use_index``; a hybrid planner may
        #: route the hash side through its bucket while the interval side
        #: scans, or vice versa.
        self.use_hash = False
        self.use_interval = False
        #: Probe view, compiled by :meth:`refresh_view` (see "The
        #: compiled scan" in the module doc).
        self.view_hash: Mapping[object, tuple[int, ...]] | None = None
        self.view_interval: IntervalBucket | None = None
        self.scan_ranges: tuple[tuple[float, float, bool, bool, _Entry], ...] = ()
        self.scan_other: tuple[_Entry, ...] = ()
        self.scan_count = 0
        #: Live profiles not constraining the attribute.  Empty means every
        #: live profile constrains it, so a zero-hit probe rejects the
        #: event outright.
        self.free = free
        self.cover_masks: dict[int, int] = {}

    def new_entry(self, predicate: Predicate) -> _Entry:
        """Register a new entry for ``predicate`` (bucket edits are the caller's)."""
        entry = _Entry(self.next_entry_id, predicate, _classify(predicate))
        self.next_entry_id += 1
        self.entries[predicate] = entry
        self.entry_by_id[entry.entry_id] = entry
        if entry.kind == _SCAN:
            self.scan_entries.append(entry)
        return entry

    def plan(self, planner: IndexPlanner, attribute: str, schema: Schema) -> AttributePlan:
        """Cost this attribute's current buckets with ``planner``."""
        return planner.plan_attribute(
            attribute,
            schema.domain(attribute),
            hash_bucket=self.hash_bucket,
            interval_bucket=self.interval_bucket,
            scan_entry_count=len(self.scan_entries),
        )

    def adopt(self, plan: AttributePlan) -> None:
        """Install one plan's strategy verdicts and recompile the view."""
        self.use_hash = bool(plan.use_hash)
        self.use_interval = bool(plan.use_interval)
        self.refresh_view()

    def refresh_view(self) -> None:
        """Recompile the probe view after a strategy change or an entry's
        creation or drop (:meth:`adopt`, ``_create_entry``, ``_drop_entry``).

        The scanned entries are the residual ones (``NotEquals``-style)
        plus those of a structure the plan does not index.  The compiled
        tuples hold entries, not masks, so a mask-only edit needs no
        refresh.
        """
        hash_bucket = self.hash_bucket if self.use_hash else None
        self.view_hash = hash_bucket.table if hash_bucket is not None else None
        self.view_interval = self.interval_bucket if self.use_interval else None
        scanned: Iterable[_Entry]
        if self.use_hash and self.use_interval:
            scanned = self.scan_entries
        elif self.use_hash or self.use_interval:
            indexed = _HASH if self.use_hash else _RANGE
            scanned = [entry for entry in self.entries.values() if entry.kind != indexed]
        else:
            scanned = self.entries.values()
        ranges = []
        other = []
        for entry in scanned:
            if type(entry.predicate) is RangePredicate:
                iv = entry.predicate.interval
                ranges.append((iv.low, iv.high, iv.low_closed, iv.high_closed, entry))
            else:
                other.append(entry)
        self.scan_ranges = tuple(ranges)
        self.scan_other = tuple(other)
        self.scan_count = len(ranges) + len(other)

    def cover_mask(self, entry_ids: tuple[int, ...]) -> int:
        """Return (and memoise) the OR of the entry masks of ``entry_ids``."""
        mask = 0
        by_id = self.entry_by_id
        for entry_id in entry_ids:
            mask |= by_id[entry_id].mask
        self.cover_masks[id(entry_ids)] = mask
        return mask

    def probe(self, value: object) -> tuple[int, int, tuple[int, ...]]:
        """Resolve one event value against the attribute's probe view.

        Returns ``(operations, mask, cover)``.  ``operations`` is the
        suite's accounting for one event carrying ``value``: one for the
        hash lookup plus one per hit, the bisect depth plus one per entry
        of the slab cover, and one per scanned entry.  ``mask`` is the OR
        of the satisfied hash hit, slab cover and scan entries.  ``cover``
        is the slab cover itself (``()`` without one), so the batch kernel
        can count a cover shared by several values once.
        """
        operations = 0
        mask = 0
        cover: tuple[int, ...] = ()
        hash_table = self.view_hash
        if hash_table is not None:
            operations += 1
            entry_ids = hash_table.get(value)
            if entry_ids:
                operations += len(entry_ids)
                mask = self.cover_masks.get(id(entry_ids)) or self.cover_mask(entry_ids)
        interval_bucket = self.view_interval
        if interval_bucket is not None:
            operations += interval_bucket.probe_cost
            cover = interval_bucket.lookup(value)
            if cover:
                operations += len(cover)
                mask |= self.cover_masks.get(id(cover)) or self.cover_mask(cover)
        # The compiled scan: one operation per scanned entry.  A range
        # accepts what RangePredicate.matches accepts, so NaN matches none.
        operations += self.scan_count
        ranges = self.scan_ranges
        if ranges and isinstance(value, (int, float)) and not isinstance(value, bool):
            for low, high, low_closed, high_closed, entry in ranges:
                if (
                    low < value < high
                    or (low_closed and value == low)
                    or (high_closed and value == high)
                ):
                    mask |= entry.mask
        for entry in self.scan_other:
            if entry.predicate.matches(value):
                mask |= entry.mask
        return operations, mask, cover


def _hash_values(predicate: Equals | OneOf) -> Iterable[object]:
    """Return the values a hash entry is registered under."""
    return (predicate.value,) if isinstance(predicate, Equals) else predicate.values


def _mask_of(dense_ids: list[int], width: int) -> int:
    """Return the bitmask of ``dense_ids`` (all below ``width``).

    Built through a bytearray in O(width + len(dense_ids)); OR-ing one bit
    at a time would copy the growing int once per id.
    """
    buffer = bytearray((width + 7) >> 3)
    for dense in dense_ids:
        buffer[dense >> 3] |= 1 << (dense & 7)
    return int.from_bytes(buffer, "little")


#: Set-bit offsets of every byte value, for the dense-mask read-out.
_BYTE_BITS = tuple(tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256))


def _dense_ids(mask: int) -> list[int]:
    """Return the dense ids set in ``mask``, ascending.

    Sparse masks clear their top bit once per id, linear in matches (each
    step copies the shrinking int); dense masks are scanned byte by byte,
    linear in the id space.  Measured on CPython 3.11, the first costs
    about ``1 + width / 10 000`` units per set bit and the second
    ``width / 800`` units in all, so the cheaper one runs.
    """
    ids: list[int] = []
    width = mask.bit_length()
    if mask.bit_count() * (width + 10_000) < width * 800:
        while mask:
            top = mask.bit_length() - 1
            ids.append(top)
            mask ^= 1 << top
        ids.reverse()
        return ids
    base = -8
    for byte in mask.to_bytes((width + 7) >> 3, "little"):
        base += 8
        if byte:
            for bit in _BYTE_BITS[byte]:
                ids.append(base + bit)
    return ids


class PredicateIndexMatcher:
    """Counting matcher over per-attribute predicate indexes."""

    def __init__(
        self,
        profiles: ProfileSet,
        *,
        planner: IndexPlanner | None = None,
    ) -> None:
        self.profiles = profiles
        self._planner = planner if planner is not None else IndexPlanner()
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
            self._recycled = True
        else:
            dense = len(self._pid_of)
            self._pid_of.append(profile_id)
            self._order_pos.append(self._order_counter)
        self._order_counter += 1
        self._id_of[profile_id] = dense
        return dense

    # -- index maintenance ------------------------------------------------------
    def _rebuild(self) -> None:
        """Batch-(re)build every structure from the profile set.

        Used at construction and by :meth:`replan`; ordinary churn goes
        through the postings-delta path instead.  The batch path builds the
        slab buckets with the O(k log k) endpoint sweep, every mask in one
        pass over its ids, and compacts the dense-id space and any stale
        slab boundaries.
        """
        self._states: dict[str, _AttributeState] = {}
        self._id_of: dict[str, int] = {}
        self._pid_of: list[str | None] = []
        self._free_ids: list[int] = []
        self._order_pos: list[int] = []
        self._order_counter = 0
        #: Whether a recycled dense id broke the match between dense-id
        #: order and insertion order (read-outs then sort by ``_order_pos``).
        self._recycled = False
        self._probe_order: tuple[str, ...] = ()
        self._probe_states: tuple[tuple[str, _AttributeState], ...] = ()
        self._probed: set[str] = set()
        self._replan_pending = True

        postings: dict[_Entry, list[int]] = {}
        constrainers: dict[_AttributeState, list[int]] = {}
        for profile in self.profiles:
            dense = self._allocate_id(profile.profile_id)
            for attribute, predicate in profile.predicates.items():
                if predicate.is_dont_care:
                    continue
                state = self._states.get(attribute)
                if state is None:
                    state = self._states[attribute] = _AttributeState()
                    constrainers[state] = []
                entry = state.entries.get(predicate)
                if entry is None:
                    entry = state.new_entry(predicate)
                    postings[entry] = []
                postings[entry].append(dense)
                constrainers[state].append(dense)
        width = len(self._pid_of)
        #: Bitmask of every live profile's dense id.
        self._live = (1 << width) - 1
        for entry, ids in postings.items():
            entry.mask = _mask_of(ids, width)
        for state, ids in constrainers.items():
            state.free = self._live ^ _mask_of(ids, width)

        for state in self._states.values():
            hash_items: dict[object, list[int]] = {}
            interval_items = []
            for predicate, entry in state.entries.items():
                if entry.kind == _HASH:
                    for value in _hash_values(predicate):
                        hash_items.setdefault(value, []).append(entry.entry_id)
                elif entry.kind == _RANGE:
                    interval_items.append((predicate.interval, entry.entry_id))
            state.hash_bucket = HashBucket(hash_items) if hash_items else None
            state.interval_bucket = IntervalBucket(interval_items) if interval_items else None
            state.range_entry_count = len(interval_items)
        self._recompute_plan()

    def _create_entry(self, state: _AttributeState, predicate: Predicate) -> _Entry:
        entry = state.new_entry(predicate)
        if entry.kind == _HASH:
            bucket = state.hash_bucket
            if bucket is None:
                bucket = state.hash_bucket = HashBucket({})
            for value in _hash_values(predicate):
                bucket.add_entry(value, entry.entry_id)
        elif entry.kind == _RANGE:
            bucket = state.interval_bucket
            if bucket is None:
                bucket = state.interval_bucket = IntervalBucket([])
            bucket.add(predicate.interval, entry.entry_id)
            state.range_entry_count += 1
        state.refresh_view()
        return entry

    def _drop_entry(self, state: _AttributeState, predicate: Predicate, entry: _Entry) -> None:
        del state.entries[predicate]
        del state.entry_by_id[entry.entry_id]
        if entry.kind == _HASH:
            bucket = state.hash_bucket
            for value in _hash_values(predicate):
                bucket.discard_entry(value, entry.entry_id)
            if len(bucket) == 0:
                state.hash_bucket = None
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
        bit = 1 << dense
        states = self._states
        constrained: list[_AttributeState] = []
        new_attributes: list[str] = []
        for attribute, predicate in profile.predicates.items():
            if predicate.is_dont_care:
                continue
            state = states.get(attribute)
            if state is None:
                # Every profile already live leaves the new attribute free.
                state = states[attribute] = _AttributeState(self._live)
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
            entry.mask |= bit
            state.cover_masks = {}
            constrained.append(state)
        for state in states.values():
            if state not in constrained:
                state.free |= bit
        self._live |= bit
        for attribute in new_attributes:
            state = states[attribute]
            state.adopt(state.plan(self._planner, attribute, self.profiles.schema))
        self._replan_pending = True

    def add_profile(self, profile: Profile) -> None:
        """Register an additional profile via postings deltas.

        Cost is proportional to the profile's own predicates (plus slab
        splicing for any new range endpoints), never to the total predicate
        population; strategy recosting is deferred (see the module doc).
        """
        self.profiles.add(profile)
        self._insert_profile(profile)

    def _add_admitted(self, profile: Profile) -> None:
        """Register a profile the caller has already validated.

        The broker's subscription registry validates every profile it
        accepts; this skips the profile set's second schema check.
        """
        self.profiles._admit(profile)
        self._insert_profile(profile)

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
        for profile in batch:
            self.profiles.add(profile)
            self._insert_profile(profile)

    def remove_profile(self, profile_id: str) -> None:
        """Unregister a profile via postings deltas.

        Raises :class:`~repro.core.errors.MatchingError` for an unknown
        profile id (the cross-matcher contract).
        """
        dense = self._id_of.get(profile_id)
        if dense is None:
            raise MatchingError(f"unknown profile id {profile_id!r}")
        profile = self.profiles.remove(profile_id)
        bit = 1 << dense
        states = self._states
        for attribute, predicate in profile.predicates.items():
            if predicate.is_dont_care:
                continue
            state = states[attribute]
            entry = state.entries[predicate]
            entry.mask ^= bit
            if not entry.mask:
                self._drop_entry(state, predicate, entry)
            state.cover_masks = {}
        keep = ~bit
        for state in states.values():
            state.free &= keep
        self._live ^= bit
        del self._id_of[profile_id]
        self._pid_of[dense] = None
        self._free_ids.append(dense)
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
            plan = plans[attribute] = state.plan(planner, attribute, schema)
            state.adopt(plan)
        states = self._states
        self._probe_order = tuple(
            name for name in planner.probe_order(schema, self._constraints()) if name in states
        )
        self._probed = set(self._probe_order)
        #: Precompiled (attribute, state) pairs — the hot loop iterates
        #: these so it never chases the states dict per event.
        self._probe_states = tuple((name, states[name]) for name in self._probe_order)
        self._plan = IndexPlan(attributes=plans, probe_order=self._probe_order)
        self._replan_pending = False

    def _constraints(self) -> dict[str, tuple[Iterable[Predicate], bool]]:
        """Return what the planner's attribute measures read of the profiles.

        Per schema attribute: its distinct live predicates (the entries)
        and whether some live profile leaves it unconstrained (a non-empty
        free mask).  Nothing per profile, and nothing kept.
        """
        any_live = bool(self._live)
        constraints: dict[str, tuple[Iterable[Predicate], bool]] = {}
        for name in self.profiles.schema.names:
            state = self._states.get(name)
            if state is None:
                constraints[name] = ((), any_live)
            else:
                constraints[name] = (state.entries, bool(state.free))
        return constraints

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
            attribute: state.plan(planner, attribute, schema)
            for attribute, state in self._states.items()
            if state.entries
        }

    # -- matching ---------------------------------------------------------------
    def match(self, event: Event) -> MatchResult:
        """Filter one event by intersecting per-attribute hit masks."""
        operations = 0
        values = event.values
        matched = self._live
        for attribute, state in self._probe_states:
            try:
                value = values[attribute]
            except KeyError:
                # Partial event: only profiles free on the attribute survive.
                matched &= state.free
                continue
            cost, mask, _ = state.probe(value)
            operations += cost
            keep = mask | state.free
            if not keep:
                # Every live profile constrains the attribute and none is
                # satisfied: no profile can match.
                return MatchResult((), operations, visited_levels=len(values))
            matched &= keep
        return MatchResult(self._profile_ids(matched), operations, visited_levels=len(values))

    def _profile_ids(self, mask: int) -> tuple[str, ...]:
        """Return the profile ids of ``mask`` in profile-set insertion order."""
        if not mask:
            return ()
        matched = _dense_ids(mask)
        if self._recycled:
            matched.sort(key=self._order_pos.__getitem__)
        pid_of = self._pid_of
        return tuple([pid_of[dense] for dense in matched])

    def match_batch(self, events: Iterable[Event]) -> list[MatchResult]:
        """Filter a sequence of events, batch-size-aware.

        Batches of at least
        :data:`~repro.matching.index.kernel.MIN_COLUMNAR_BATCH` events (read
        at call time) run through the columnar batch kernel
        (:func:`~repro.matching.index.kernel.match_batch_columnar`), which
        probes each distinct ``(attribute, value)`` pair once per batch.
        Smaller batches keep the per-event loop, whose fixed overhead is
        lower.  Both paths return exactly what sequential :meth:`match`
        calls would.
        """
        events = events if isinstance(events, list) else list(events)
        if len(events) >= kernel.MIN_COLUMNAR_BATCH:
            return kernel.match_batch_columnar(self, events, stats=self.kernel_stats)
        match = self.match
        return [match(event) for event in events]
