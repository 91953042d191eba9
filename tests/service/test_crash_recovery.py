"""Crash-recovery: kill the process mid-stream, restart, lose nothing.

Driven by the deterministic fault harness (:mod:`repro.testing`): a
:class:`CrashingStore` kills the 'process' between two WAL records,
:func:`tear_wal_tail` shears the journal mid-append, and the flaky
sink/transport injectors exercise the delivery retry budgets.  The two
acceptance properties pinned here:

* **Zero subscription loss** — every operation whose call returned
  before the kill is visible after the restart (and operations that
  never returned are cleanly absent, not half-applied on disk).
* **Balanced accounting** — after any mix of failures,
  ``dispatched == delivered + failed + dropped + dead_lettered``.
"""

from __future__ import annotations

import pytest

from repro.api import FilterService, WebhookConfig, WebhookSink
from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import Profile, profile
from repro.core.schema import Attribute, Schema
from repro.service.durability import JsonlWalStore
from repro.testing import (
    CrashingStore,
    FlakySink,
    InjectedCrash,
    dead_transport,
    flaky_transport,
    tear_wal_tail,
)

PRICES = IntegerDomain(0, 99)


def price_schema() -> Schema:
    return Schema([Attribute("price", PRICES)])


def price_profile(profile_id: str, low: int) -> Profile:
    return profile(profile_id, price=RangePredicate.between(low, 99))


def make_service(store=None, **kwargs) -> FilterService:
    return FilterService(price_schema(), engine="index", adaptive=False,
                         store=store, **kwargs)


class TestKillBetweenRecords:
    def test_successful_calls_survive_the_kill(self, tmp_path):
        # A killed process loses buffered writes: the kill-tests run
        # with per-append fsync so every *returned* call is durable.
        inner = JsonlWalStore(tmp_path / "wal", snapshot_every=None,
                              fsync_on_append=True)
        # The 4th journal append dies before reaching the backend.
        service = make_service(CrashingStore(inner, crash_after=4))
        a = service.subscribe(price_profile("P1", 10), subscriber="alice")
        b = service.subscribe(price_profile("P2", 50), subscriber="bob")
        a.pause()
        with pytest.raises(InjectedCrash):
            b.cancel()  # applied in memory, never journaled: the kill

        # The restarted process sees exactly the durable prefix: both
        # subscriptions exist, the pause stuck, the cancel never landed.
        restarted = make_service(JsonlWalStore(tmp_path / "wal", snapshot_every=None))
        ids = sorted(h.subscription_id for h in restarted.handles())
        assert ids == sorted([a.subscription_id, b.subscription_id])
        assert restarted.handle(a.subscription_id).is_paused
        outcome = restarted.publish(Event({"price": 60}))
        assert sorted(outcome.match_result.matched_profile_ids) == ["P2"]
        restarted.close()

    def test_every_kill_point_loses_nothing_durable(self, tmp_path):
        """Sweep the kill across the whole journal: at each point, the
        restarted service holds exactly the operations that returned."""
        def script(service):
            """Yield after each completed operation: (op label, live ids)."""
            handles = {}
            live: dict[str, bool] = {}
            for index in range(1, 4):
                sid = f"P{index}"
                handles[sid] = service.subscribe(
                    price_profile(sid, index * 20), subscriber="alice"
                )
                live[handles[sid].subscription_id] = True
                yield live
            handles["P2"].pause()
            yield live
            handles["P1"].cancel()
            live.pop(handles["P1"].subscription_id)
            yield live

        # Baseline: how many journal appends does the full script make?
        probe_dir = tmp_path / "probe"
        probe = make_service(JsonlWalStore(probe_dir, snapshot_every=None))
        for _ in script(probe):
            pass
        total_appends = probe.stats().durability.appended
        probe.close()
        assert total_appends == 5

        for kill_at in range(1, total_appends + 1):
            wal_dir = tmp_path / f"kill-{kill_at}"
            store = CrashingStore(
                JsonlWalStore(wal_dir, snapshot_every=None,
                              fsync_on_append=True),
                crash_after=kill_at,
            )
            service = make_service(store)
            survivors: dict[str, bool] = {}
            try:
                for live in script(service):
                    survivors = dict(live)
            except InjectedCrash:
                pass
            assert store.crashed

            restarted = make_service(JsonlWalStore(wal_dir, snapshot_every=None))
            recovered = sorted(h.subscription_id for h in restarted.handles())
            assert recovered == sorted(survivors), (
                f"kill before append #{kill_at}: recovered {recovered}, "
                f"but the completed calls left {sorted(survivors)}"
            )
            restarted.close()


class TestTornTail:
    def test_shearing_the_last_record_loses_only_that_record(self, tmp_path):
        service = make_service(JsonlWalStore(tmp_path / "wal",
                                             snapshot_every=None))
        kept = service.subscribe(price_profile("P1", 10), subscriber="alice")
        torn = service.subscribe(price_profile("P2", 50), subscriber="bob")
        service.close()

        tear_wal_tail(tmp_path / "wal", drop_bytes=10)  # crash mid-append

        restarted = make_service(JsonlWalStore(tmp_path / "wal",
                                               snapshot_every=None))
        ids = [h.subscription_id for h in restarted.handles()]
        assert ids == [kept.subscription_id]  # P2's record was the torn one
        assert torn.subscription_id not in ids
        stats = restarted.stats().durability
        assert stats.discarded_records == 1
        assert stats.recovered_subscriptions == 1
        # The repaired journal accepts new writes and survives another
        # restart without re-counting the repair.
        restarted.subscribe(price_profile("P3", 0), subscriber="carol")
        restarted.close()
        final = make_service(JsonlWalStore(tmp_path / "wal",
                                           snapshot_every=None))
        assert final.stats().durability.discarded_records == 0
        assert final.stats().subscriptions == 2
        final.close()

    def test_tear_then_kill_then_recover_chain(self, tmp_path):
        """A torn tail and a mid-stream kill in sequence still converge."""
        wal_dir = tmp_path / "wal"
        service = make_service(JsonlWalStore(wal_dir, snapshot_every=None))
        for index in range(1, 5):
            service.subscribe(price_profile(f"P{index}", index * 10),
                              subscriber="alice")
        service.close()
        tear_wal_tail(wal_dir, drop_bytes=5)  # P4's record torn

        store = CrashingStore(
            JsonlWalStore(wal_dir, snapshot_every=None, fsync_on_append=True),
            crash_after=2,
        )
        service = make_service(store)
        assert service.stats().subscriptions == 3
        service.subscribe(price_profile("P5", 50), subscriber="bob")  # append 1
        with pytest.raises(InjectedCrash):
            service.subscribe(price_profile("P6", 60), subscriber="bob")

        final = make_service(JsonlWalStore(wal_dir, snapshot_every=None))
        profiles = sorted(h.profile.profile_id for h in final.handles())
        assert profiles == ["P1", "P2", "P3", "P5"]
        final.close()


class TestBalancedAccounting:
    def assert_balanced(self, stats) -> None:
        assert stats.pending == 0
        assert stats.dispatched == (
            stats.delivered + stats.failed + stats.dropped + stats.dead_lettered
        )

    def test_flaky_sink_is_attempted_once(self):
        service = make_service(delivery="threadpool")
        healthy = FlakySink(failures=0)
        doomed = FlakySink(failures=10**6)    # never heals
        service.subscribe(price_profile("P1", 0), sink=healthy)
        service.subscribe(price_profile("P2", 0), sink=doomed)
        service.publish(Event({"price": 5}))
        service.drain()
        stats = service.stats().delivery
        assert stats.dispatched == 2
        assert stats.delivered == 1
        assert stats.failed == 1
        assert stats.retried == 0
        self.assert_balanced(stats)
        assert len(healthy.delivered) == 1
        assert doomed.calls == 1
        service.close()

    def test_webhook_mix_of_flaky_and_dead_endpoints(self):
        config = WebhookConfig(
            max_attempts=3, backoff_base=0.0, jitter=0.0,
            breaker_threshold=10**6,  # keep the breaker out of the count
            transport=dead_transport(dead_endpoints={"https://dark.test/hook"}),
        )
        service = make_service(delivery="webhook", webhook=config)
        service.subscribe(price_profile("P1", 0),
                          sink=WebhookSink("https://ok.test/hook"))
        service.subscribe(price_profile("P2", 0),
                          sink=WebhookSink("https://dark.test/hook"))
        for price in range(4):
            service.publish(Event({"price": price}))
        service.drain()
        stats = service.stats().delivery
        assert stats.dispatched == 8
        assert stats.delivered == 4        # the healthy endpoint
        assert stats.dead_lettered == 4    # the dark endpoint
        assert stats.failed == 0           # webhook tasks never count failed
        assert stats.retried == 8          # 2 extra attempts x 4 tasks
        self.assert_balanced(stats)
        service.close()

    def test_flaky_then_healthy_endpoint_heals_within_budget(self):
        transport = flaky_transport(failures_per_endpoint=2)
        config = WebhookConfig(max_attempts=3, backoff_base=0.0, jitter=0.0,
                               transport=transport)
        service = make_service(delivery="webhook", webhook=config)
        service.subscribe(price_profile("P1", 0),
                          sink=WebhookSink("https://flaky.test/hook"))
        service.publish(Event({"price": 1}))
        service.publish(Event({"price": 2}))
        service.drain()
        stats = service.stats().delivery
        assert stats.delivered == 2
        assert stats.dead_lettered == 0
        assert stats.retried == 2  # both failures burned on the first task
        self.assert_balanced(stats)
        service.close()

    def test_accounting_survives_a_restart(self, tmp_path):
        """Durability and delivery compose: the restarted service keeps
        the conservation law over its own (fresh) counters."""
        wal_dir = tmp_path / "wal"
        record: list = []
        service = make_service(
            JsonlWalStore(wal_dir, snapshot_every=None),
            delivery="webhook",
            webhook=WebhookConfig(transport=lambda e, p, t: record.append(e)),
        )
        service.subscribe(price_profile("P1", 0),
                          sink=WebhookSink("https://ok.test/hook"))
        service.publish(Event({"price": 1}))
        service.close()
        self.assert_balanced(service.stats().delivery)

        restarted = make_service(
            JsonlWalStore(wal_dir, snapshot_every=None),
            delivery="webhook",
            webhook=WebhookConfig(transport=lambda e, p, t: record.append(e)),
        )
        restarted.publish(Event({"price": 2}))
        restarted.drain()
        stats = restarted.stats().delivery
        assert stats.delivered == 1
        self.assert_balanced(stats)
        restarted.close()
        assert record == ["https://ok.test/hook"] * 2
