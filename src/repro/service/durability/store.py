"""The pluggable subscription store: journal, snapshot, replay.

A :class:`SubscriptionStore` makes a broker's subscription state durable
by journaling every life-cycle operation — subscribe, modify, pause,
resume, retarget, cancel — as an append-only sequence of
:class:`StoreRecord`\\ s, periodically folding the journal into a
snapshot (log compaction) so recovery never replays unbounded history.

The write path rides the broker's existing incremental-maintenance
seam: the broker applies the operation to its live engine first and
journals it before returning, so **an operation is durable exactly when
its call returns** (subject to the backend's sync policy; ``flush()``
and ``close()`` are always durable points).  Recovery materialises
snapshot + tail into an ordered list of :class:`SubscriptionEntry`
objects that ``FilterService(store=...)`` replays into any engine
family through the registry, resuming durable handles by id.

Two backends ship: :class:`InMemorySubscriptionStore` (tests, and the
protocol's reference semantics) and the crash-safe JSONL write-ahead log
(:class:`~repro.service.durability.wal.JsonlWalStore`), the one
on-disk format.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.core.errors import StoreCorruptionError, StoreError
from repro.core.profiles import Profile
from repro.service.durability.codec import decode_profile, encode_profile

__all__ = [
    "STORE_OPS",
    "DurabilityStats",
    "InMemorySubscriptionStore",
    "RecoveredState",
    "StoreRecord",
    "SubscriptionEntry",
    "SubscriptionStore",
]

#: Journaled subscription life-cycle operations.
STORE_OPS = ("subscribe", "modify", "pause", "resume", "retarget", "cancel")


@dataclass(frozen=True)
class StoreRecord:
    """One journaled subscription operation (the unit of the WAL)."""

    seq: int
    op: str
    subscription_id: str
    profile: Profile | None = None
    subscriber: str | None = None
    delivery: str | None = None
    #: Endpoint URL of a durable webhook sink (``None`` for in-process
    #: sinks, which cannot be persisted).
    endpoint: str | None = None

    def to_payload(self) -> dict:
        """Return the JSON-safe journal payload of this record."""
        payload: dict = {"seq": self.seq, "op": self.op, "sub": self.subscription_id}
        if self.profile is not None:
            payload["profile"] = encode_profile(self.profile)
        if self.subscriber is not None:
            payload["subscriber"] = self.subscriber
        if self.delivery is not None or self.op == "retarget":
            payload["delivery"] = self.delivery
        if self.endpoint is not None or self.op == "retarget":
            payload["endpoint"] = self.endpoint
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "StoreRecord":
        """Rebuild a record from :meth:`to_payload` output."""
        op = payload.get("op")
        if op not in STORE_OPS:
            raise StoreCorruptionError(f"unknown journal operation {op!r}")
        profile = payload.get("profile")
        return cls(
            seq=int(payload["seq"]),
            op=op,
            subscription_id=payload["sub"],
            profile=decode_profile(profile) if profile is not None else None,
            subscriber=payload.get("subscriber"),
            delivery=payload.get("delivery"),
            endpoint=payload.get("endpoint"),
        )


@dataclass(frozen=True)
class SubscriptionEntry:
    """The materialised durable state of one subscription."""

    subscription_id: str
    profile: Profile
    subscriber: str
    delivery: str | None = None
    endpoint: str | None = None
    paused: bool = False

    def to_payload(self) -> dict:
        payload: dict = {
            "sub": self.subscription_id,
            "profile": encode_profile(self.profile),
            "subscriber": self.subscriber,
            "paused": self.paused,
        }
        if self.delivery is not None:
            payload["delivery"] = self.delivery
        if self.endpoint is not None:
            payload["endpoint"] = self.endpoint
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping) -> "SubscriptionEntry":
        return cls(
            subscription_id=payload["sub"],
            profile=decode_profile(payload["profile"]),
            subscriber=payload["subscriber"],
            delivery=payload.get("delivery"),
            endpoint=payload.get("endpoint"),
            paused=bool(payload.get("paused", False)),
        )


@dataclass(frozen=True)
class RecoveredState:
    """What :meth:`SubscriptionStore.open` hands the boot path."""

    #: Live subscriptions in original subscription order.
    entries: tuple[SubscriptionEntry, ...]
    #: Highest journal sequence number recovered (0 for a fresh store).
    last_seq: int
    #: Tail records replayed on top of the snapshot.
    replayed_records: int
    #: Torn tail records discarded during repair (crash mid-append).
    discarded_records: int


@dataclass(frozen=True)
class DurabilityStats:
    """One snapshot of a store's accounting, surfaced on ``ServiceStats``."""

    #: Backend name (``"memory"``, ``"jsonl"``).
    backend: str = "none"
    #: Highest journal sequence number ever assigned.
    last_seq: int = 0
    #: Records journaled by this process (excludes recovered history).
    appended: int = 0
    #: Journal records sitting after the snapshot (replayed on recovery).
    tail_records: int = 0
    #: Snapshot + log-compaction cycles taken by this process.
    snapshots: int = 0
    #: Records replayed from the store at boot.
    replayed_records: int = 0
    #: Subscriptions recovered at boot.
    recovered_subscriptions: int = 0
    #: Torn tail records discarded during open-time repair.
    discarded_records: int = 0


def materialize(
    snapshot_entries: list[SubscriptionEntry],
    snapshot_seq: int,
    tail: list[StoreRecord],
) -> tuple[dict[str, SubscriptionEntry], int]:
    """Fold tail records onto a snapshot, idempotently.

    Records at or below the snapshot's sequence number — or replayed
    twice (duplicate ``seq``) — are skipped, so feeding the same journal
    through twice converges on the same state.  Returns the entries (in
    subscription order) and the highest sequence number applied.
    """
    entries: dict[str, SubscriptionEntry] = {
        entry.subscription_id: entry for entry in snapshot_entries
    }
    applied_seq = snapshot_seq
    for record in tail:
        if record.seq <= applied_seq:
            continue  # duplicate or pre-snapshot record: replay is idempotent
        applied_seq = record.seq
        _apply(entries, record)
    return entries, applied_seq


def _apply(entries: dict[str, SubscriptionEntry], record: StoreRecord) -> None:
    """Fold one record into ``entries`` in place (unchanged if it raises)."""
    sid = record.subscription_id
    if record.op == "subscribe":
        entries[sid] = SubscriptionEntry(
            subscription_id=sid,
            profile=record.profile,
            subscriber=record.subscriber or "anonymous",
            delivery=record.delivery,
            endpoint=record.endpoint,
        )
        return
    if record.op == "cancel":
        entries.pop(sid, None)
        return
    current = entries.get(sid)
    if current is None:
        raise StoreCorruptionError(
            f"journal applies {record.op!r} to unknown subscription {sid!r}"
        )
    if record.op == "modify":
        entries[sid] = replace(current, profile=record.profile)
    elif record.op in ("pause", "resume"):
        entries[sid] = replace(current, paused=record.op == "pause")
    else:  # retarget: re-pin delivery mode and/or webhook endpoint
        entries[sid] = replace(current, delivery=record.delivery, endpoint=record.endpoint)


class SubscriptionStore:
    """Base class of every durable subscription store.

    Subclasses implement the raw persistence hooks (``_write_record``,
    ``_write_snapshot``, ``_load_raw``, ``_sync``, ``_close_backend``);
    the sequencing, in-memory state mirror, auto-compaction policy and
    accounting live here so all backends behave identically.
    """

    backend = "abstract"

    def __init__(self, *, snapshot_every: int | None = 1000) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise StoreError("snapshot_every must be at least 1 (or None)")
        self._snapshot_every = snapshot_every
        self._entries: dict[str, SubscriptionEntry] = {}
        self._last_seq = 0
        self._snapshot_seq = 0
        self._tail_records = 0
        self._appended = 0
        self._snapshots = 0
        self._replayed_records = 0
        self._recovered = 0
        self._discarded = 0
        self._opened = False
        self._closed = False

    # -- backend hooks ----------------------------------------------------------
    def _write_record(self, record: StoreRecord) -> None:
        raise NotImplementedError

    def _write_snapshot(
        self, entries: list[SubscriptionEntry], last_seq: int
    ) -> None:
        """Persist the snapshot and truncate the journal atomically."""
        raise NotImplementedError

    def _load_raw(
        self,
    ) -> tuple[list[SubscriptionEntry], int, list[StoreRecord], int]:
        """Return (snapshot entries, snapshot seq, tail records, discarded)."""
        raise NotImplementedError

    def _sync(self) -> None:
        """Make everything written so far durable (fsync or equivalent)."""

    def _close_backend(self) -> None:
        """Release backend resources (file handles, connections)."""

    # -- life-cycle -------------------------------------------------------------
    def open(self) -> RecoveredState:
        """Load (repairing a torn tail) and return the recovered state."""
        if self._closed:
            raise StoreError("the subscription store is closed")
        if self._opened:
            raise StoreError("the subscription store is already open")
        snapshot_entries, snapshot_seq, tail, discarded = self._load_raw()
        entries, last_seq = materialize(snapshot_entries, snapshot_seq, tail)
        self._entries = entries
        self._last_seq = last_seq
        self._snapshot_seq = snapshot_seq
        self._tail_records = len(tail)
        self._replayed_records = len(tail)
        self._recovered = len(entries)
        self._discarded = discarded
        self._opened = True
        return RecoveredState(
            entries=tuple(entries.values()),
            last_seq=last_seq,
            replayed_records=len(tail),
            discarded_records=discarded,
        )

    def append(
        self,
        op: str,
        subscription_id: str,
        *,
        profile: Profile | None = None,
        subscriber: str | None = None,
        delivery: str | None = None,
        endpoint: str | None = None,
    ) -> StoreRecord:
        """Journal one operation; returns the sequenced record."""
        self._require_open()
        if op not in STORE_OPS:
            raise StoreError(
                f"unknown store operation {op!r}; expected one of {STORE_OPS}"
            )
        self._last_seq += 1
        record = StoreRecord(
            seq=self._last_seq,
            op=op,
            subscription_id=subscription_id,
            profile=profile,
            subscriber=subscriber,
            delivery=delivery,
            endpoint=endpoint,
        )
        self._write_record(record)
        _apply(self._entries, record)
        self._appended += 1
        self._tail_records += 1
        if self._snapshot_every is not None and self._tail_records >= self._snapshot_every:
            self.compact()
        return record

    def compact(self) -> None:
        """Snapshot the current state and truncate the journal."""
        self._require_open()
        self._write_snapshot(list(self._entries.values()), self._last_seq)
        self._snapshot_seq = self._last_seq
        self._tail_records = 0
        self._snapshots += 1

    def flush(self) -> None:
        """Force everything journaled so far to durable storage."""
        self._require_open()
        self._sync()

    def close(self) -> None:
        """Flush and release the store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._opened:
            self._sync()
        self._close_backend()

    # -- introspection ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def entries(self) -> tuple[SubscriptionEntry, ...]:
        """Return the store's materialised view (subscription order)."""
        return tuple(self._entries.values())

    def stats(self) -> DurabilityStats:
        """Return one snapshot of the store's accounting."""
        return DurabilityStats(
            backend=self.backend,
            last_seq=self._last_seq,
            appended=self._appended,
            tail_records=self._tail_records,
            snapshots=self._snapshots,
            replayed_records=self._replayed_records,
            recovered_subscriptions=self._recovered,
            discarded_records=self._discarded,
        )

    def _require_open(self) -> None:
        if self._closed:
            raise StoreError("the subscription store is closed")
        if not self._opened:
            raise StoreError("the subscription store is not open; call open() first")


class InMemorySubscriptionStore(SubscriptionStore):
    """Reference store: full journal semantics, no persistence.

    Useful in tests (exact protocol semantics without touching disk) and
    as the default when durability is not required but the journaling
    accounting is.  ``reopen()`` returns a fresh store sharing this
    store's buffers — the in-memory analogue of restarting a process on
    the same files — which is what the crash-recovery tests simulate.
    """

    backend = "memory"

    def __init__(self, *, snapshot_every: int | None = 1000) -> None:
        super().__init__(snapshot_every=snapshot_every)
        self._log: list[StoreRecord] = []
        self._snapshot: tuple[list[SubscriptionEntry], int] = ([], 0)

    def _write_record(self, record: StoreRecord) -> None:
        self._log.append(record)

    def _write_snapshot(self, entries: list[SubscriptionEntry], last_seq: int) -> None:
        self._snapshot = (list(entries), last_seq)
        self._log = [r for r in self._log if r.seq > last_seq]

    def _load_raw(self):
        entries, seq = self._snapshot
        return list(entries), seq, list(self._log), 0

    def reopen(self) -> "InMemorySubscriptionStore":
        """Return a fresh (unopened) store over the same buffers."""
        clone = InMemorySubscriptionStore(snapshot_every=self._snapshot_every)
        clone._log = self._log
        clone._snapshot = self._snapshot
        return clone
