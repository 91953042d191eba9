"""The durable subscription store and the crash-safe boot path.

Three layers under test, each against both backends (memory, JSONL WAL):

* **Store semantics** — journal round-trips, the in-place fold of every
  operation into the live view, snapshot + log compaction
  (including mid-churn), duplicate-replay idempotence, torn-tail repair
  versus interior corruption.
* **Boot path** — ``FilterService(store=...)`` replays the journal into
  the engine registry and resumes durable handles by id, with paused
  state, modified profiles and webhook sinks all reconstructed.
* **Equivalence** — a Hypothesis churn script asserts that a service
  restarted mid-stream matches *exactly* like one that never stopped,
  across the tree and index engine families.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import FilterService, WebhookConfig, WebhookSink
from repro.core.domains import IntegerDomain
from repro.core.errors import StoreCorruptionError, StoreError
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import Profile, profile
from repro.core.schema import Attribute, Schema
from repro.service.durability import (
    STORE_OPS,
    InMemorySubscriptionStore,
    JsonlWalStore,
    StoreRecord,
    SubscriptionEntry,
    materialize,
)

PRICES = IntegerDomain(0, 99)

BACKENDS = ("memory", "jsonl")


def price_schema() -> Schema:
    return Schema([Attribute("price", PRICES)])


def price_profile(profile_id: str, low: int, high: int = 99) -> Profile:
    return profile(profile_id, price=RangePredicate.between(low, high))


class StoreFactory:
    """Create/reopen stores of one backend over one persistent location."""

    def __init__(self, backend: str, tmp_path) -> None:
        self.backend = backend
        self._tmp_path = tmp_path
        self._memory: InMemorySubscriptionStore | None = None

    def fresh(self, **kwargs):
        """The first store of a 'process' (location starts empty)."""
        if self.backend == "memory":
            self._memory = InMemorySubscriptionStore(**kwargs)
            return self._memory
        return JsonlWalStore(self._tmp_path / "wal", **kwargs)

    def reopened(self, **kwargs):
        """A store as a restarted process would build it (same location)."""
        if self.backend == "memory":
            assert self._memory is not None, "fresh() must run first"
            self._memory = self._memory.reopen()
            return self._memory
        return self.fresh(**kwargs)


@pytest.fixture(params=BACKENDS)
def store_factory(request, tmp_path) -> StoreFactory:
    return StoreFactory(request.param, tmp_path)


class TestStoreSemantics:
    def test_roundtrip_through_a_restart(self, store_factory):
        store = store_factory.fresh(snapshot_every=None)
        recovered = store.open()
        assert recovered.entries == ()
        assert recovered.last_seq == 0

        store.append("subscribe", "sub-1", profile=price_profile("P1", 10),
                     subscriber="alice", delivery="inline")
        store.append("subscribe", "sub-2", profile=price_profile("P2", 50),
                     subscriber="bob", endpoint="https://example.test/hook",
                     delivery="webhook")
        store.append("pause", "sub-2")
        store.append("modify", "sub-1", profile=price_profile("P1", 20))
        store.append("subscribe", "sub-3", profile=price_profile("P3", 0),
                     subscriber="carol")
        store.append("cancel", "sub-3")
        store.close()

        reopened = store_factory.reopened(snapshot_every=None)
        recovered = reopened.open()
        assert recovered.last_seq == 6
        assert recovered.replayed_records == 6
        assert recovered.discarded_records == 0
        by_id = {entry.subscription_id: entry for entry in recovered.entries}
        assert sorted(by_id) == ["sub-1", "sub-2"]
        assert by_id["sub-1"].profile.predicates["price"].interval.low == 20  # modified
        assert by_id["sub-1"].subscriber == "alice"
        assert not by_id["sub-1"].paused
        assert by_id["sub-2"].paused
        assert by_id["sub-2"].endpoint == "https://example.test/hook"
        assert by_id["sub-2"].delivery == "webhook"
        reopened.close()

    def test_compaction_folds_the_journal_and_survives_restart(self, store_factory):
        store = store_factory.fresh(snapshot_every=4)
        store.open()
        for index in range(1, 7):  # 6 appends, snapshot_every=4 -> 1 compaction
            store.append("subscribe", f"sub-{index}",
                         profile=price_profile(f"P{index}", index),
                         subscriber="alice")
        stats = store.stats()
        assert stats.snapshots == 1
        assert stats.tail_records == 2  # the post-snapshot tail only
        assert stats.last_seq == 6
        store.close()

        reopened = store_factory.reopened(snapshot_every=4)
        recovered = reopened.open()
        # The snapshot absorbed 4 records; recovery replays only the tail.
        assert recovered.replayed_records == 2
        assert recovered.last_seq == 6
        assert len(recovered.entries) == 6
        reopened.close()

    def test_snapshot_mid_churn_preserves_every_transition(self, store_factory):
        """Compaction landing between a pause and its resume (and between
        a modify and a cancel) must not lose or resurrect anything."""
        store = store_factory.fresh(snapshot_every=3)
        store.open()
        store.append("subscribe", "sub-1", profile=price_profile("P1", 10),
                     subscriber="alice")
        store.append("subscribe", "sub-2", profile=price_profile("P2", 20),
                     subscriber="bob")
        store.append("pause", "sub-1")          # compaction fires here
        store.append("modify", "sub-2", profile=price_profile("P2", 25))
        store.append("resume", "sub-1")
        store.append("subscribe", "sub-3", profile=price_profile("P3", 30),
                     subscriber="carol")        # compaction fires again
        store.append("cancel", "sub-2")
        assert store.stats().snapshots == 2
        store.close()

        recovered = store_factory.reopened(snapshot_every=3).open()
        by_id = {entry.subscription_id: entry for entry in recovered.entries}
        assert sorted(by_id) == ["sub-1", "sub-3"]
        assert not by_id["sub-1"].paused  # resumed after the snapshot
        assert recovered.last_seq == 7

    def test_retarget_is_journaled_and_recovered(self, store_factory):
        store = store_factory.fresh(snapshot_every=None)
        store.open()
        store.append("subscribe", "sub-1", profile=price_profile("P1", 10),
                     subscriber="alice", delivery="inline")
        store.append("retarget", "sub-1", delivery="webhook",
                     endpoint="https://example.test/hook")
        store.close()
        recovered = store_factory.reopened(snapshot_every=None).open()
        (entry,) = recovered.entries
        assert entry.delivery == "webhook"
        assert entry.endpoint == "https://example.test/hook"

    def test_lifecycle_errors(self, store_factory):
        store = store_factory.fresh()
        with pytest.raises(StoreError, match="not open"):
            store.append("subscribe", "sub-1", profile=price_profile("P1", 0))
        store.open()
        with pytest.raises(StoreError, match="already open"):
            store.open()
        with pytest.raises(StoreError, match="unknown store operation"):
            store.append("explode", "sub-1")
        store.close()
        store.close()  # idempotent
        with pytest.raises(StoreError, match="closed"):
            store.append("subscribe", "sub-1", profile=price_profile("P1", 0))

    def test_snapshot_every_validated(self, store_factory):
        with pytest.raises(StoreError, match="snapshot_every"):
            store_factory.fresh(snapshot_every=0)


class TestReplayIdempotence:
    def records(self) -> list[StoreRecord]:
        return [
            StoreRecord(seq=1, op="subscribe", subscription_id="sub-1",
                        profile=price_profile("P1", 10), subscriber="alice"),
            StoreRecord(seq=2, op="pause", subscription_id="sub-1"),
            StoreRecord(seq=3, op="subscribe", subscription_id="sub-2",
                        profile=price_profile("P2", 20), subscriber="bob"),
        ]

    def test_duplicate_tail_replay_converges(self):
        records = self.records()
        once, seq_once = materialize([], 0, records)
        twice, seq_twice = materialize([], 0, records + records)
        assert once == twice
        assert seq_once == seq_twice == 3

    def test_records_at_or_below_snapshot_seq_are_skipped(self):
        snapshot = [SubscriptionEntry("sub-1", price_profile("P1", 99), "alice")]
        # seq 1-2 are already folded into the snapshot: replaying them
        # must not clobber the snapshot's (newer) profile state.
        entries, last_seq = materialize(snapshot, 2, self.records())
        assert entries["sub-1"].profile.predicates["price"].interval.low == 99
        assert not entries["sub-1"].paused
        assert "sub-2" in entries
        assert last_seq == 3

    def test_tail_touching_unknown_subscription_is_corruption(self):
        with pytest.raises(StoreCorruptionError, match="unknown subscription"):
            materialize([], 0, [StoreRecord(seq=1, op="pause",
                                            subscription_id="ghost")])

    def test_store_ops_roster_is_stable(self):
        assert STORE_OPS == (
            "subscribe", "modify", "pause", "resume", "retarget", "cancel"
        )


HOOK = "https://example.test/hook"
ALICE = SubscriptionEntry("sub-1", price_profile("P1", 10), "alice", delivery="inline")
BOB = SubscriptionEntry("sub-2", price_profile("P2", 20), "bob", delivery="webhook",
                        endpoint=HOOK, paused=True)

#: One record per journaled operation applied on top of ``ALICE, BOB``,
#: and the live subscriptions it must leave (in subscription order).
FOLD_CASES = {
    "subscribe": (
        ("sub-3", {"profile": price_profile("P3", 30), "subscriber": "carol"}),
        (ALICE, BOB, SubscriptionEntry("sub-3", price_profile("P3", 30), "carol")),
    ),
    "modify": (
        ("sub-1", {"profile": price_profile("P1", 15)}),
        (replace(ALICE, profile=price_profile("P1", 15)), BOB),
    ),
    "pause": (("sub-1", {}), (replace(ALICE, paused=True), BOB)),
    "resume": (("sub-2", {}), (ALICE, replace(BOB, paused=False))),
    "retarget": (
        ("sub-2", {"delivery": "threadpool"}),
        (ALICE, replace(BOB, delivery="threadpool", endpoint=None)),
    ),
    "cancel": (("sub-1", {}), (BOB,)),
}


class TestIncrementalFold:
    """``append`` folds each record into the live view in place.  That
    view must be what a restart rebuilds from the journal
    (``snapshot_every=None``) and what a compaction fired by the very
    same append persists (``snapshot_every=4``)."""

    @pytest.mark.parametrize("snapshot_every", [None, 4], ids=["journal", "snapshot"])
    @pytest.mark.parametrize("op", STORE_OPS)
    def test_live_view_matches_the_recovered_state(self, store_factory, op,
                                                   snapshot_every):
        (sid, kwargs), expected = FOLD_CASES[op]
        store = store_factory.fresh(snapshot_every=snapshot_every)
        store.open()
        store.append("subscribe", "sub-1", profile=ALICE.profile,
                     subscriber="alice", delivery="inline")
        store.append("subscribe", "sub-2", profile=BOB.profile,
                     subscriber="bob", delivery="webhook", endpoint=HOOK)
        store.append("pause", "sub-2")
        store.append(op, sid, **kwargs)  # the 4th append
        assert store.entries() == expected
        assert store.stats().snapshots == (0 if snapshot_every is None else 1)
        store.close()

        recovered = store_factory.reopened(snapshot_every=snapshot_every).open()
        assert recovered.entries == expected
        assert recovered.last_seq == 4
        assert recovered.replayed_records == (4 if snapshot_every is None else 0)


class TestWalRepair:
    """JSONL-specific crash shapes (the only backend with a torn tail)."""

    def seeded_store(self, tmp_path) -> JsonlWalStore:
        store = JsonlWalStore(tmp_path / "wal", snapshot_every=None)
        store.open()
        for index in range(1, 4):
            store.append("subscribe", f"sub-{index}",
                         profile=price_profile(f"P{index}", index),
                         subscriber="alice")
        store.close()
        return store

    def test_torn_final_record_is_repaired(self, tmp_path):
        self.seeded_store(tmp_path)
        wal = tmp_path / "wal" / "wal.jsonl"
        intact = wal.stat().st_size
        with open(wal, "r+b") as handle:
            handle.truncate(intact - 7)  # crash mid-append: torn last line

        reopened = JsonlWalStore(tmp_path / "wal", snapshot_every=None)
        recovered = reopened.open()
        assert recovered.discarded_records == 1
        assert [e.subscription_id for e in recovered.entries] == ["sub-1", "sub-2"]
        # The repair truncated the file: the next open is clean.
        reopened.close()
        second = JsonlWalStore(tmp_path / "wal", snapshot_every=None).open()
        assert second.discarded_records == 0
        assert len(second.entries) == 2

    def test_interior_corruption_is_not_repairable(self, tmp_path):
        self.seeded_store(tmp_path)
        wal = tmp_path / "wal" / "wal.jsonl"
        lines = wal.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = "garbage that is not a CRC-framed record\n"
        wal.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(StoreCorruptionError, match="interior"):
            JsonlWalStore(tmp_path / "wal", snapshot_every=None).open()

    def test_compaction_restarts_the_log_file(self, tmp_path):
        store = JsonlWalStore(tmp_path / "wal", snapshot_every=None)
        store.open()
        for index in range(1, 6):
            store.append("subscribe", f"sub-{index}",
                         profile=price_profile(f"P{index}", index),
                         subscriber="alice")
        store.compact()
        store.close()
        assert (tmp_path / "wal" / "wal.jsonl").stat().st_size == 0
        assert (tmp_path / "wal" / "snapshot.json").exists()
        recovered = JsonlWalStore(tmp_path / "wal").open()
        assert recovered.replayed_records == 0  # all state in the snapshot
        assert len(recovered.entries) == 5


class TestBootPath:
    """``FilterService(store=...)`` restores subscriptions and handles."""

    def service(self, store, **kwargs) -> FilterService:
        return FilterService(price_schema(), engine="index", adaptive=False,
                             store=store, **kwargs)

    def test_restart_restores_state_and_handles(self, store_factory):
        first = self.service(store_factory.fresh(snapshot_every=None))
        kept = first.subscribe(price_profile("P1", 10), subscriber="alice")
        paused = first.subscribe(price_profile("P2", 50), subscriber="bob")
        modified = first.subscribe(price_profile("P3", 90), subscriber="carol")
        cancelled = first.subscribe(price_profile("P4", 0), subscriber="dan")
        paused.pause()
        modified.modify(price_profile("P3", 80))
        cancelled.cancel()
        first.close()

        second = self.service(store_factory.reopened(snapshot_every=None))
        assert sorted(h.subscription_id for h in second.handles()) == [
            kept.subscription_id, paused.subscription_id, modified.subscription_id
        ]
        assert second.handle(paused.subscription_id).is_paused
        assert not second.handle(kept.subscription_id).is_paused

        # Matching reflects the journal: the modified bound, the pause,
        # the cancellation.
        outcome = second.publish(Event({"price": 85}))
        assert sorted(outcome.match_result.matched_profile_ids) == ["P1", "P3"]
        outcome = second.publish(Event({"price": 60}))  # P2 paused, P4 gone
        assert sorted(outcome.match_result.matched_profile_ids) == ["P1"]

        stats = second.stats()
        assert stats.subscriptions == 3
        assert stats.paused_subscriptions == 1
        assert stats.durability is not None
        assert stats.durability.recovered_subscriptions == 3
        assert stats.durability.backend == store_factory.backend
        second.close()

    def test_resumed_handles_stay_live(self, store_factory):
        first = self.service(store_factory.fresh(snapshot_every=None))
        handle = first.subscribe(price_profile("P1", 10), subscriber="alice")
        handle.pause()
        first.close()

        second = self.service(store_factory.reopened(snapshot_every=None))
        resumed = second.handle(handle.subscription_id)
        resumed.resume()
        received = []
        resumed.deliver_to(received.append)
        second.publish(Event({"price": 42}))
        assert [n.event["price"] for n in received] == [42]
        resumed.cancel()
        assert second.stats().subscriptions == 0
        second.close()

    def test_fresh_ids_never_resurrect_replayed_ones(self, store_factory):
        first = self.service(store_factory.fresh(snapshot_every=None))
        a = first.subscribe(price_profile("P1", 1), subscriber="alice")
        b = first.subscribe(price_profile("P2", 2), subscriber="bob")
        a.cancel()
        first.close()

        second = self.service(store_factory.reopened(snapshot_every=None))
        fresh = second.subscribe(price_profile("P9", 9), subscriber="carol")
        assert fresh.subscription_id not in (a.subscription_id, b.subscription_id)
        second.close()

    def test_webhook_sink_is_reconstructed(self, store_factory):
        posts: list[tuple[str, bytes]] = []

        def transport(endpoint, payload, timeout):
            posts.append((endpoint, payload))

        first = self.service(store_factory.fresh(snapshot_every=None))
        first.subscribe(
            price_profile("P1", 10),
            subscriber="alice",
            sink=WebhookSink("https://example.test/hook"),
            delivery="webhook",
        )
        first.close()

        second = self.service(
            store_factory.reopened(snapshot_every=None),
            webhook=WebhookConfig(transport=transport),
        )
        second.publish(Event({"price": 50}))
        second.drain()
        assert [endpoint for endpoint, _ in posts] == ["https://example.test/hook"]
        assert b'"price":50' in posts[0][1] or b'"price": 50' in posts[0][1]
        second.close()

    def test_close_flushes_the_store(self, store_factory):
        """Satellite fix: close() is a durable point even without an
        explicit flush — a reopen sees everything."""
        store = store_factory.fresh(snapshot_every=None)
        service = self.service(store)
        service.subscribe(price_profile("P1", 10), subscriber="alice")
        service.close()
        assert store.closed
        recovered = store_factory.reopened(snapshot_every=None).open()
        assert len(recovered.entries) == 1

    def test_retired_delivery_pin_fails_the_boot(self, store_factory):
        """A journaled pin this version does not offer (here the retired
        ``asyncio`` executor) is refused at boot, naming the subscription,
        not at the first publish that matches it; a journaled
        ``retarget`` makes the same journal boot."""
        store = store_factory.fresh(snapshot_every=None)
        store.open()
        store.append("subscribe", "sub-1", profile=price_profile("P1", 10),
                     subscriber="alice", delivery="asyncio")
        store.close()
        refused = store_factory.reopened(snapshot_every=None)
        with pytest.raises(StoreError, match="'sub-1'.*'asyncio'.*inline, threadpool, webhook"):
            self.service(refused)
        assert refused.closed

        repair = store_factory.reopened(snapshot_every=None)
        repair.open()
        repair.append("retarget", "sub-1")
        repair.close()
        service = self.service(store_factory.reopened(snapshot_every=None))
        received = []
        service.handle("sub-1").deliver_to(received.append)
        service.publish(Event({"price": 50}))
        assert [n.event["price"] for n in received] == [50]
        service.close()

    def test_retarget_to_a_retired_mode_fails_the_boot(self, store_factory):
        """The pin check reads the folded state: a valid subscribe later
        re-pinned to a retired mode is refused as well."""
        store = store_factory.fresh(snapshot_every=None)
        store.open()
        store.append("subscribe", "sub-1", profile=price_profile("P1", 10),
                     subscriber="alice", delivery="inline")
        store.append("retarget", "sub-1", delivery="asyncio")
        store.close()
        refused = store_factory.reopened(snapshot_every=None)
        with pytest.raises(StoreError, match="'sub-1'.*'asyncio'"):
            self.service(refused)
        assert refused.closed

    def test_cancelled_retired_pin_does_not_block_the_boot(self, store_factory):
        """Only live subscriptions are checked: a retired pin whose
        subscription was cancelled is history, not state."""
        store = store_factory.fresh(snapshot_every=None)
        store.open()
        store.append("subscribe", "sub-1", profile=price_profile("P1", 10),
                     subscriber="alice", delivery="asyncio")
        store.append("subscribe", "sub-2", profile=price_profile("P2", 20),
                     subscriber="bob", delivery="threadpool")
        store.append("cancel", "sub-1")
        store.close()
        service = self.service(store_factory.reopened(snapshot_every=None))
        assert [h.subscription_id for h in service.handles()] == ["sub-2"]
        received = []
        service.handle("sub-2").deliver_to(received.append)
        service.publish(Event({"price": 30}))
        service.drain()
        assert [n.event["price"] for n in received] == [30]
        service.close()


ENGINES = ("tree", "index")


def churn_scripts():
    """Scripts of (op, argument) steps over a bounded id space."""
    op = st.sampled_from(["subscribe", "cancel", "pause", "resume", "modify"])
    return st.lists(st.tuples(op, st.integers(0, 5), st.integers(0, 99)),
                    min_size=1, max_size=24)


def apply_script(service: FilterService, script, handles: dict):
    """Run one churn script against a service, tracking live handles."""
    for op, slot, low in script:
        handle = handles.get(slot)
        if op == "subscribe":
            if handle is None:
                handles[slot] = service.subscribe(
                    price_profile(f"P{slot}", low), subscriber=f"user-{slot}"
                )
        elif handle is None:
            continue
        elif op == "cancel":
            handle.cancel()
            handles.pop(slot)
        elif op == "pause":
            if not handle.is_paused:
                handle.pause()
        elif op == "resume":
            if handle.is_paused:
                handle.resume()
        elif op == "modify":
            handle.modify(price_profile(f"P{slot}", low))


class TestReplayEquivalence:
    """A restarted service is indistinguishable from one that never died."""

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=20, deadline=None)
    @given(first=churn_scripts(), second=churn_scripts())
    def test_restart_mid_churn_matches_like_uninterrupted(
        self, tmp_path_factory, engine, first, second
    ):
        tmp_path = tmp_path_factory.mktemp("equiv")
        kwargs = {"engine": engine, "adaptive": False}

        oracle = FilterService(price_schema(), **kwargs)
        oracle_handles: dict = {}
        apply_script(oracle, first, oracle_handles)

        durable = FilterService(
            price_schema(), store=JsonlWalStore(tmp_path / "wal",
                                                snapshot_every=5), **kwargs
        )
        durable_handles: dict = {}
        apply_script(durable, first, durable_handles)
        durable.close()  # the restart point

        durable = FilterService(
            price_schema(), store=JsonlWalStore(tmp_path / "wal",
                                                snapshot_every=5), **kwargs
        )
        durable_handles = {
            slot: durable.handle(handle.subscription_id)
            for slot, handle in durable_handles.items()
        }
        apply_script(oracle, second, oracle_handles)
        apply_script(durable, second, durable_handles)

        def matched(service, event):
            result = service.publish(event).match_result
            # A service with no live subscriptions has no engine to ask.
            return sorted(result.matched_profile_ids) if result is not None else []

        for price in range(0, 100, 7):
            event = Event({"price": price})
            assert matched(durable, event) == matched(oracle, event)
        assert durable.stats().subscriptions == oracle.stats().subscriptions
        durable.close()
        oracle.close()
