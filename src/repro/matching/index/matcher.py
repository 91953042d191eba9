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
* each hash value's and each slab's mask in the buckets — the XOR of the
  masks of the entries it satisfies.  A profile carries at most one
  predicate per attribute, so one attribute's entry masks are disjoint
  and that XOR is their OR: the probe reads a hash hit's or a slab's mask
  as it is stored, and every edit is one XOR (see
  :mod:`repro.matching.index.buckets`).

A probe of ``(attribute, value)`` resolves to the OR of its satisfied
entry masks, and an event's matches are the AND, over the probed
attributes, of ``probe mask | free mask`` (an attribute the event does
not carry contributes ``free`` alone).

The read-out turns that final mask into profile ids, and
:meth:`~PredicateIndexMatcher.match` and the kernel share it.  A mask
with one bit is read directly.  A mask with more bits is decoded by
``_dense_ids`` once and kept: the memo ``_readouts`` maps it to its
dense ids, an :func:`operator.itemgetter` over them, the tuple of
profile ids it last read and the epoch (``_epoch``) that tuple was read
under.  A read in the current epoch returns the stored tuple, so every
result of one mask shares it; a read in a stale epoch reads the ids'
current owners out of ``_pid_of`` again and re-stamps the entry.  Dense
ids are bit positions, so a mask's ids never go stale, only their
owners, and the epoch moves whenever a bit may get a new owner: when
``_allocate_id`` pops a recycled id, and in ``_rebuild``, which
reassigns every id (a bulk :meth:`~PredicateIndexMatcher.add_profiles`).
A :meth:`~PredicateIndexMatcher.replan` keeps every id and moves
nothing.  A cancel moves nothing:
its bit leaves ``_live``, every entry mask and every free mask, so no
later read produces a mask that holds it until the id is reused.  A
fresh id moves nothing either: its bit lies above every memoised mask.
Once churn has recycled an id, dense-id order is no longer insertion
order, and the read-out sorts the memoised ids by ``_order_pos`` first.
The memo is emptied when it reaches the size of the index at that
moment — live profiles plus slabs plus hash values — so it stays
proportional to the index it reads.

The probe is written once, as ``_AttributeState.probe``:
:meth:`~PredicateIndexMatcher.match` calls it per event and attribute,
and the columnar kernel (:mod:`repro.matching.index.kernel`) once per
distinct value of a batch, so both charge the same operations.

The scanned structures
----------------------
Every equality entry sits in the attribute's
:class:`~repro.matching.index.buckets.HashBucket` and every range entry
in its :class:`~repro.matching.index.buckets.IntervalBucket`, whatever
the plan decides, so a per-structure verdict sets only what a probe is
charged.  The probe always reads the value's hash mask and its slab's
mask, and calls ``matches`` on the residual (``NotEquals``-style)
entries alone.  An indexed structure is charged its lookup and hits; a
scanned one one operation per entry, counted into
``_AttributeState.scan_charge`` whenever a plan is adopted or an entry
is created or dropped.  A scanned range reports slab number ``-1``, so
the kernel counts it as executed like any scanned entry.  Masks are read
live, so a subscribe or cancel that only edits masks recounts nothing.
A value the hash bucket cannot hash (a list) raises ``TypeError`` on
either verdict.  One containment rule holds: a range accepts an ``int``
or ``float`` (never a ``bool``), compared exactly, and no NaN.

Incremental maintenance
-----------------------
:meth:`add_profile` / :meth:`remove_profile` apply **postings deltas**: the
profile's entries are spliced into (or out of) the hash, slab and scan
buckets in place (slab buckets splice endpoints via ``bisect.insort``-style
edits, see :class:`~repro.matching.index.buckets.IntervalBucket`) and its
bit is set in (or cleared from) the entry masks, the bucket masks over
each entry's values or slab span, and every attribute's free mask, which
makes the cost of one churn operation proportional to the profile's own
predicates and the slabs they span plus one mask edit per attribute — not
to the total predicate population.  Strategy decisions (index-vs-scan per
attribute, the probe order) are *not* recomputed per churn op; maintenance
merely raises a deferred-replan flag and the planner recosts lazily the
next time :attr:`plan` (or an estimated cost) is asked for, and a
:meth:`replan` re-plans the same buckets under a new planner.  Stale slab
boundaries are compacted by the interval bucket itself, and the probe
order is ranked off the same live buckets (``IndexPlanner.rejection_scores``).

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

from operator import itemgetter
from typing import Callable, Iterable, Mapping

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
    attribute.  The buckets keep every hash value's and slab's mask up to
    date (:meth:`flip` for a subscriber joining or leaving an existing
    entry), so :meth:`probe` combines no entry masks but the residual ones.
    """

    __slots__ = (
        "entries",
        "next_entry_id",
        "hash_bucket",
        "interval_bucket",
        "range_entry_count",
        "residual",
        "use_hash",
        "use_interval",
        "scan_charge",
        "free",
    )

    def __init__(self, free: int = 0) -> None:
        self.entries: dict[Predicate, _Entry] = {}
        self.next_entry_id = 0
        self.hash_bucket: HashBucket | None = None
        self.interval_bucket: IntervalBucket | None = None
        self.range_entry_count = 0
        #: The entries no bucket holds (``NotEquals``-style): the probe
        #: calls their ``matches``.
        self.residual: tuple[_Entry, ...] = ()
        #: Per-structure verdicts (see :class:`AttributePlan`): the hash
        #: side may be charged as indexed while the interval side is
        #: charged as scanned, or vice versa.
        self.use_hash = False
        self.use_interval = False
        #: Operations a probe is charged for the scanned entries, set by
        #: :meth:`recharge` (see "The scanned structures" in the module doc).
        self.scan_charge = 0
        #: Live profiles not constraining the attribute.  Empty means every
        #: live profile constrains it, so a zero-hit probe rejects the
        #: event outright.
        self.free = free

    def new_entry(self, predicate: Predicate) -> _Entry:
        """Register a new entry for ``predicate`` (bucket edits are the caller's)."""
        entry = _Entry(self.next_entry_id, predicate, _classify(predicate))
        self.next_entry_id += 1
        self.entries[predicate] = entry
        if entry.kind == _SCAN:
            self.residual += (entry,)
        return entry

    def plan(self, planner: IndexPlanner, attribute: str, schema: Schema) -> AttributePlan:
        """Cost this attribute's current buckets with ``planner``."""
        return planner.plan_attribute(
            attribute,
            schema.domain(attribute),
            hash_bucket=self.hash_bucket,
            interval_bucket=self.interval_bucket,
            scan_entry_count=len(self.residual),
        )

    def adopt(self, plan: AttributePlan) -> None:
        """Install one plan's strategy verdicts and their scan charge."""
        self.use_hash = bool(plan.use_hash)
        self.use_interval = bool(plan.use_interval)
        self.recharge()

    def recharge(self) -> None:
        """Recount :attr:`scan_charge` after a verdict change or an entry's
        creation or drop (:meth:`adopt`, ``_create_entry``, ``_drop_entry``):
        one operation per residual entry and per entry of a structure the
        plan does not index.  A mask-only edit changes no count."""
        scanned = len(self.residual)
        if not self.use_interval:
            scanned += self.range_entry_count
        if not self.use_hash:
            scanned += len(self.entries) - self.range_entry_count - len(self.residual)
        self.scan_charge = scanned

    def flip(self, entry: _Entry, bit: int) -> None:
        """XOR ``bit`` into the bucket masks of the live ``entry``: one
        subscriber joining or leaving it (``entry.mask`` is the caller's).

        A hash entry flips each value it is registered under — one dict
        XOR for an ``Equals`` — and a range entry every slab of its span.
        A residual entry has no bucket mask: the probe reads its mask live.
        """
        kind = entry.kind
        if kind == _HASH:
            masks = self.hash_bucket.masks
            predicate = entry.predicate
            if isinstance(predicate, Equals):
                masks[predicate.value] ^= bit
            else:
                for value in predicate.values:
                    masks[value] ^= bit
        elif kind == _RANGE:
            self.interval_bucket.flip(entry.predicate.interval, bit)

    def probe(self, value: object) -> tuple[int, int, int]:
        """Resolve one event value against the attribute's buckets.

        Returns ``(operations, mask, slab)``.  ``operations`` is the
        suite's accounting for one event carrying ``value``: for an
        indexed hash side one for the lookup plus one per hit, for an
        indexed interval side the bisect depth plus one per entry covering
        the slab, and :attr:`scan_charge` for the scanned entries.
        ``mask`` is the OR of the hash hit's mask, the slab's mask and the
        satisfied residual entries' masks.  ``slab`` is the slab number of
        ``value`` when the interval side is indexed (``-1`` otherwise), so
        the batch kernel can count a slab shared by several values once.
        """
        operations = self.scan_charge
        mask = 0
        slab = -1
        hash_bucket = self.hash_bucket
        if hash_bucket is not None:
            entry_ids = hash_bucket.table.get(value)
            if entry_ids:
                mask = hash_bucket.masks[value]
                if self.use_hash:
                    operations += 1 + len(entry_ids)
            elif self.use_hash:
                operations += 1
        interval_bucket = self.interval_bucket
        if interval_bucket is not None:
            found, count, slab_mask = interval_bucket.lookup(value)
            mask |= slab_mask
            if self.use_interval:
                slab = found
                operations += interval_bucket.probe_cost + count
        for entry in self.residual:
            if entry.predicate.matches(value):
                mask |= entry.mask
        return operations, mask, slab


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
        #: this matcher instance has run (survives incremental maintenance,
        #: :meth:`replan` and a bulk :meth:`add_profiles`).
        self.kernel_stats = kernel.KernelStats()
        #: The read-out memo: a multi-bit mask's dense ids, a getter of
        #: their owners, the profile-id tuple last read and the epoch it
        #: was read under (see "Dense-id bitmasks" in the module doc).  It
        #: holds at most ``_readout_bound`` masks and outlives every
        #: rebuild.
        self._readouts: dict[int, tuple[tuple[int, ...], Callable, tuple[str, ...], int]] = {}
        self._readout_bound = 0
        #: Moves whenever a dense id gets a new owner.
        self._epoch = 0
        self._rebuild()

    # -- dense-id allocation ----------------------------------------------------
    def _allocate_id(self, profile_id: str) -> int:
        if self._free_ids:
            dense = self._free_ids.pop()
            self._pid_of[dense] = profile_id
            self._order_pos[dense] = self._order_counter
            self._recycled = True
            self._epoch += 1
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

        Used at construction and by a bulk :meth:`add_profiles`; ordinary
        churn goes through the postings-delta path instead, and
        :meth:`replan` re-plans the live buckets.  The batch path builds
        the slab buckets with the O(k log k) endpoint sweep and every mask
        in one pass over its ids, and numbers the dense ids afresh.
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
        self._epoch += 1

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
            hash_items: dict[object, list[tuple[int, int]]] = {}
            interval_items = []
            for predicate, entry in state.entries.items():
                if entry.kind == _HASH:
                    for value in _hash_values(predicate):
                        hash_items.setdefault(value, []).append((entry.entry_id, entry.mask))
                elif entry.kind == _RANGE:
                    interval_items.append((predicate.interval, entry.mask))
            state.hash_bucket = HashBucket(hash_items) if hash_items else None
            state.interval_bucket = IntervalBucket(interval_items) if interval_items else None
            state.range_entry_count = len(interval_items)
        self._recompute_plan()

    def _create_entry(self, state: _AttributeState, predicate: Predicate, bit: int) -> None:
        """Register ``predicate``'s entry with its first subscriber ``bit``."""
        entry = state.new_entry(predicate)
        entry.mask = bit
        if entry.kind == _HASH:
            bucket = state.hash_bucket
            if bucket is None:
                bucket = state.hash_bucket = HashBucket({})
            for value in _hash_values(predicate):
                bucket.add_entry(value, entry.entry_id, bit)
        elif entry.kind == _RANGE:
            bucket = state.interval_bucket
            if bucket is None:
                bucket = state.interval_bucket = IntervalBucket([])
            bucket.add(predicate.interval, bit)
            state.range_entry_count += 1
        state.recharge()

    def _drop_entry(
        self, state: _AttributeState, predicate: Predicate, entry: _Entry, bit: int
    ) -> None:
        """Unregister ``entry`` after its last subscriber ``bit`` left."""
        del state.entries[predicate]
        if entry.kind == _HASH:
            bucket = state.hash_bucket
            for value in _hash_values(predicate):
                bucket.discard_entry(value, entry.entry_id, bit)
            if len(bucket) == 0:
                state.hash_bucket = None
        elif entry.kind == _RANGE:
            state.interval_bucket.remove(predicate.interval, bit)
            state.range_entry_count -= 1
            if state.range_entry_count == 0:
                # Dropping the empty bucket sheds its stale boundaries.
                state.interval_bucket = None
        else:
            state.residual = tuple(other for other in state.residual if other is not entry)
        state.recharge()

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
                self._create_entry(state, predicate, bit)
            else:
                entry.mask |= bit
                if predicate.__class__ is Equals:
                    # ``flip``'s commonest case, inline: one dict XOR.
                    state.hash_bucket.masks[predicate.value] ^= bit
                else:
                    state.flip(entry, bit)
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
        overlapping ranges otherwise degrade to per-slab edits per profile).
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
                self._drop_entry(state, predicate, entry, bit)
            elif predicate.__class__ is Equals:
                state.hash_bucket.masks[predicate.value] ^= bit
            else:
                state.flip(entry, bit)
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
        # An attribute no live profile constrains has no state, and is free
        # while any profile is live.
        indexes = dict.fromkeys(schema.names, (None, None, (), bool(self._live)))
        for name, state in states.items():
            residual = [entry.predicate for entry in state.residual]
            indexes[name] = (state.hash_bucket, state.interval_bucket, residual, bool(state.free))
        self._probe_order = tuple(
            name for name in planner.probe_order(schema, indexes) if name in states
        )
        self._probed = set(self._probe_order)
        #: Precompiled (attribute, state) pairs — the hot loop iterates
        #: these so it never chases the states dict per event.
        self._probe_states = tuple((name, states[name]) for name in self._probe_order)
        self._plan = IndexPlan(attributes=plans, probe_order=self._probe_order)
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
        """Re-plan the live buckets with distribution-aware planning.

        The buckets, entries and dense ids do not depend on the plan, so
        they are kept as they are: only the verdicts, the scan charges and
        the probe order change.
        """
        self._planner = IndexPlanner(
            event_distributions,
            attribute_measure=self._planner.attribute_measure,
        )
        self._recompute_plan()

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
                return MatchResult((), operations, len(values))
            matched &= keep
        return MatchResult(self._profile_ids(matched), operations, len(values))

    def _profile_ids(self, mask: int) -> tuple[str, ...]:
        """Return the profile ids of ``mask`` in profile-set insertion order."""
        readout = self._readouts.get(mask)
        if readout is None:
            if not mask & (mask - 1):
                # No bit or one bit: nothing to decode or to sort.
                return (self._pid_of[mask.bit_length() - 1],) if mask else ()
            ids, getter = self._decode(mask)
        elif readout[3] == self._epoch:
            return readout[2]
        else:
            ids, getter = readout[0], readout[1]
        if self._recycled:
            pid_of = self._pid_of
            order = sorted(ids, key=self._order_pos.__getitem__)
            profile_ids = tuple([pid_of[dense] for dense in order])
        else:
            profile_ids = getter(self._pid_of)
        self._readouts[mask] = (ids, getter, profile_ids, self._epoch)
        return profile_ids

    def _decode(self, mask: int) -> tuple[tuple[int, ...], Callable]:
        """Decode a multi-bit ``mask``: its dense ids and a getter of their owners.

        Makes room in the read-out memo for the caller's new entry.
        """
        readouts = self._readouts
        if len(readouts) >= self._readout_bound:
            self._readout_bound = self._index_size()
            if len(readouts) >= self._readout_bound:
                readouts.clear()
        ids = tuple(_dense_ids(mask))
        return ids, itemgetter(*ids)

    def _index_size(self) -> int:
        """Return the live profiles plus every bucket's slabs and hash values."""
        size = len(self._id_of)
        for state in self._states.values():
            if state.hash_bucket is not None:
                size += len(state.hash_bucket)
            if state.interval_bucket is not None:
                size += len(state.interval_bucket.counts)
        return size

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
