"""Incremental covering table for one overlay link.

A broker keeps, per neighbouring link, the set of profiles whose
subscribers live somewhere behind that link.  Forwarding every profile
upstream would make routing tables grow with the whole network, so the
table maintains the Siena-style *covering reduction* incrementally: a
profile is **active** when no other stored profile covers it (active
profiles are what the broker forwards further and matches events
against), and **inactive** when an active coverer subsumes it — the
entry is retained, not dropped, so that removing the coverer can
*uncover* it again without any help from the subscriber's home broker.

Unlike :func:`~repro.service.routing.covering.minimal_cover`, which
recomputes the reduction from scratch in O(n²), every operation here
touches only the entries actually affected:

* ``add`` scans the active set once — stopping at the first coverer —
  and deactivates exactly the active entries the newcomer covers;
* ``remove`` of an inactive entry touches one reverse-index bucket;
* ``remove`` of an active entry re-homes only the entries it covered
  (the ``covers`` reverse index makes them O(1) to find).

Deactivated entries keep their ``forwarded`` flag, so the overlay knows
whether an uncovered profile must be (re-)propagated downstream or is
already known there.  The deterministic counters (``cover_checks``,
``cover_hits``, per-operation ``touched``) are what the churn-cost tests
and the routing benchmark gate on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import RoutingError
from repro.core.profiles import Profile
from repro.core.schema import Schema
from repro.service.routing.covering import profile_covers

__all__ = ["AddOutcome", "CoveringTable", "RemoveOutcome", "TableEntry"]


@dataclass
class TableEntry:
    """One stored profile plus its covering bookkeeping."""

    profile: Profile
    #: Arrival order; ties between mutually covering profiles go to the
    #: earlier arrival, mirroring ``minimal_cover``'s order stability.
    sequence: int
    #: ``True`` while no other stored profile covers this one.
    active: bool = True
    #: Whether the owning broker propagated this profile downstream.  A
    #: covered-on-arrival entry was never forwarded; an entry covered
    #: *later* usually was, and needs no re-propagation when uncovered.
    forwarded: bool = False
    #: Profile id of the active entry covering this one (inactive only).
    covered_by: str | None = None


@dataclass(frozen=True)
class AddOutcome:
    """Result of inserting one profile."""

    #: ``True`` when the profile joined the active (forwarded) set.
    active: bool
    #: Previously active entries the newcomer covered (now inactive).
    newly_covered: tuple[Profile, ...] = ()
    #: Entries examined by this operation.
    touched: int = 0


@dataclass(frozen=True)
class RemoveOutcome:
    """Result of removing one profile."""

    was_active: bool
    #: Whether the removed entry had been propagated downstream (the
    #: overlay forwards the removal only in that case).
    was_forwarded: bool
    #: Entries this removal reactivated; those with ``forwarded=False``
    #: must now be propagated downstream for the first time.
    uncovered: tuple[TableEntry, ...] = ()
    #: Entries examined by this operation — O(affected covers), never
    #: O(table): removing an entry that covers nothing touches nothing.
    touched: int = 0


class CoveringTable:
    """Covering-reduced profile set with incremental maintenance."""

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._entries: dict[str, TableEntry] = {}
        #: Reverse index: active profile id -> ids of entries it covers.
        self._covers: dict[str, set[str]] = {}
        self._sequence = 0
        #: Total ``profile_covers`` evaluations (deterministic).
        self.cover_checks = 0
        #: Insertions absorbed by an existing coverer (never forwarded).
        self.cover_hits = 0

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, profile_id: str) -> bool:
        return profile_id in self._entries

    @property
    def active_count(self) -> int:
        return sum(1 for entry in self._entries.values() if entry.active)

    def entry(self, profile_id: str) -> TableEntry:
        try:
            return self._entries[profile_id]
        except KeyError as exc:
            raise RoutingError(f"unknown profile id {profile_id!r}") from exc

    def active_profiles(self) -> list[Profile]:
        """Return the covering-reduced set, in arrival order."""
        return [e.profile for e in self._entries.values() if e.active]

    def profiles(self) -> list[Profile]:
        """Return every stored profile (active and covered)."""
        return [e.profile for e in self._entries.values()]

    @property
    def inserts(self) -> int:
        """Return how many profiles were ever inserted (removals included)."""
        return self._sequence

    @property
    def cover_hit_rate(self) -> float:
        """Fraction of insertions absorbed by an existing coverer."""
        inserted = self._sequence
        return self.cover_hits / inserted if inserted else 0.0

    # -- maintenance -------------------------------------------------------------
    def add(self, profile: Profile) -> AddOutcome:
        """Insert ``profile``, keeping the covering reduction incremental."""
        pid = profile.profile_id
        if pid in self._entries:
            raise RoutingError(f"duplicate profile id {pid!r} in covering table")
        self._sequence += 1
        entry = TableEntry(profile=profile, sequence=self._sequence)
        touched = 0
        # First pass: is the newcomer covered?  Earlier arrivals win ties
        # between mutually covering profiles (order stability).
        actives = [e for e in self._entries.values() if e.active]
        for other in actives:
            touched += 1
            self.cover_checks += 1
            if profile_covers(other.profile, profile, self._schema):
                self.cover_hits += 1
                entry.active = False
                entry.covered_by = other.profile.profile_id
                self._covers.setdefault(other.profile.profile_id, set()).add(pid)
                self._entries[pid] = entry
                return AddOutcome(active=False, touched=touched)
        # Second pass: deactivate the active entries the newcomer covers.
        newly_covered: list[Profile] = []
        bucket = self._covers.setdefault(pid, set())
        for other in actives:
            touched += 1
            self.cover_checks += 1
            if profile_covers(profile, other.profile, self._schema):
                other_id = other.profile.profile_id
                other.active = False
                other.covered_by = pid
                bucket.add(other_id)
                # Re-home the entries the demoted profile covered: the
                # covering relation is transitive on match sets, so the
                # newcomer covers them too.
                for dep_id in self._covers.pop(other_id, set()):
                    self._entries[dep_id].covered_by = pid
                    bucket.add(dep_id)
                newly_covered.append(other.profile)
        self._entries[pid] = entry
        return AddOutcome(
            active=True, newly_covered=tuple(newly_covered), touched=touched
        )

    def remove(self, profile_id: str) -> RemoveOutcome:
        """Remove ``profile_id``, reactivating the entries it covered.

        Cost is proportional to the removed entry's own cover set (plus
        one coverer scan per freed entry), never to the table size; an
        isolated entry's removal touches no other entry at all.
        """
        entry = self._entries.pop(profile_id, None)
        if entry is None:
            raise RoutingError(f"unknown profile id {profile_id!r}")
        if not entry.active:
            # One reverse-index bucket update; no other entry moves.
            assert entry.covered_by is not None
            self._covers[entry.covered_by].discard(profile_id)
            return RemoveOutcome(was_active=False, was_forwarded=entry.forwarded)
        freed_ids = self._covers.pop(profile_id, set())
        touched = 0
        uncovered: list[TableEntry] = []
        # Arrival order keeps the reduction deterministic: an earlier
        # freed entry that gets reactivated can absorb a later one.
        freed = sorted((self._entries[fid] for fid in freed_ids), key=lambda e: e.sequence)
        for orphan in freed:
            touched += 1
            new_coverer = None
            for other in self._entries.values():
                if not other.active or other is orphan:
                    continue
                self.cover_checks += 1
                if profile_covers(other.profile, orphan.profile, self._schema):
                    new_coverer = other
                    break
            if new_coverer is not None:
                orphan.covered_by = new_coverer.profile.profile_id
                self._covers.setdefault(new_coverer.profile.profile_id, set()).add(
                    orphan.profile.profile_id
                )
            else:
                orphan.active = True
                orphan.covered_by = None
                uncovered.append(orphan)
        return RemoveOutcome(
            was_active=True,
            was_forwarded=entry.forwarded,
            uncovered=tuple(uncovered),
            touched=touched,
        )
