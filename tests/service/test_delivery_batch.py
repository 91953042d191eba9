"""A ``publish_batch`` call is the unit of notification bookkeeping.

The broker settles a batch in one pass (one statistics fold, one bulk
notification-log append, one ``DeliveryPlan``) and every executor takes
its share of the plan as one list.  Pinned here:

* **Equivalence** (hypothesis): over random subscription sets — default,
  pinned ``inline`` / ``threadpool`` modes, some without a
  sink — one ``publish_batch`` leaves exactly what publishing the same
  events one by one leaves, with or without explicit timestamps (in or
  out of order) and for one unstamped publish after them: outcomes,
  filter statistics, the notification log, every sink's sequence and the
  final delivery counts.
* **The inline-raise contract**: a raising inline sink inside a batch
  leaves the whole batch in the statistics and the log, propagates, and
  stops the inline sinks after it.
* **Prefix acceptance**: a submission that fails part-way (a raising
  inline sink, an executor closed while the submission waits on a full
  lane) leaves exactly the tasks before the failing one accepted, on
  every executor and every lane.
* **A deterministic work guard** (no clock): one batch of 200 events ×
  13 matches costs the threadpool publisher one acquisition per lane
  lock and one ``accepted`` call, not one of each per task.
* **What ``pending`` counts**: exactly the tasks queued or in flight.
* **Batched accounting under preemption**: with more workers than cores
  and a tiny switch interval, every concurrent snapshot conserves tasks.
* **Non-draining close after a batch** drops exactly the tasks no worker
  has started.
* **The worker takes its lane whole** (no clock): N tasks queued behind
  a parked worker cost it O(1) acquisitions of its lane lock; a
  non-draining close drops the worker's hand and its lane; and
  ``queue_capacity`` bounds what waits on the lane, not the hand.
* **A non-draining close racing the workers' hands** (stress) starts or
  drops each task exactly once, and each subscription's started tasks
  are a prefix of what it was sent.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import FilterService
from repro.core.domains import IntegerDomain
from repro.core.errors import DeliveryError
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
from repro.service.delivery import (
    DeliveryCounters,
    ThreadPoolDeliveryExecutor,
    WebhookConfig,
    WebhookDeliveryExecutor,
    WebhookSink,
    threadpool,
)
from repro.service.notifications import Notification
from repro.service.subscriptions import Subscription

SCHEMA = Schema([Attribute("price", IntegerDomain(0, 99))])


def make_service(**kwargs) -> FilterService:
    return FilterService(SCHEMA, engine="index", adaptive=False, **kwargs)


class Recorder:
    """A sink keeping every notification it receives, in order."""

    def __init__(self) -> None:
        self.received: list = []

    def __call__(self, notification) -> None:
        self.received.append(notification)


# -- equivalence ------------------------------------------------------------------

#: ``None`` rides the service default; the rest pin the subscription.
PINS = (None, "inline", "threadpool")

subscriptions = st.lists(
    st.tuples(
        st.integers(0, 99),  # range start
        st.integers(0, 40),  # range width
        st.sampled_from(PINS),
        st.booleans(),  # has a sink
    ),
    min_size=1,
    max_size=6,
)
#: Prices above every range start are possible, so batches mix events
#: that match several subscriptions with events that match none.
batches = st.lists(st.integers(0, 99), min_size=1, max_size=30)


@st.composite
def stamped_batches(draw):
    """A batch and, optionally, one timestamp per event (in or out of order)."""
    prices = draw(batches)
    size = len(prices)
    stamps = draw(st.none() | st.lists(st.floats(0, 200), min_size=size, max_size=size))
    return prices, stamps


def run(default: str, population, prices, stamps=None, *, batched: bool) -> dict:
    """Publish ``prices`` once (one batch or one by one, stamped with
    ``stamps`` when given), then one unstamped event; return the state."""
    events = [Event({"price": price}) for price in prices]
    sinks: dict[str, Recorder] = {}
    with make_service(delivery=default, max_workers=2) as service:
        for index, (low, width, pin, has_sink) in enumerate(population):
            profile_id = f"P{index}"
            sink = sinks[profile_id] = Recorder() if has_sink else None
            service.subscribe(
                profile(profile_id, price=RangePredicate.between(low, min(99, low + width))),
                subscriber=f"user{index % 3}",
                sink=sink,
                delivery=pin,
            )
        broker = service.broker  # timestamps are a broker-level option
        if batched:
            outcomes = broker.publish_batch(events, timestamps=stamps)
        else:
            per_event = stamps if stamps is not None else [None] * len(events)
            outcomes = [
                broker.publish(event, timestamp=stamp) for event, stamp in zip(events, per_event)
            ]
        # Unstamped, this event carries the clock the batch left behind;
        # it matches the first subscription, so the log shows that clock.
        outcomes.append(service.publish(Event({"price": population[0][0]})))
        service.drain()
        statistics = broker.statistics
        state = {
            "outcomes": outcomes,
            "summary": {
                key: None if math.isnan(value) else value
                for key, value in statistics.summary().items()
            },
            "per_profile": statistics.per_profile_notification_counts(),
            "per_profile_ops": {
                profile_id: statistics.average_operations_per_profile(profile_id)
                for profile_id in statistics.per_profile_notification_counts()
            },
            "log": broker.notification_log.all(),
            "log_per_subscriber": broker.notification_log.count_per_subscriber(),
            "sinks": {pid: sink.received for pid, sink in sinks.items() if sink is not None},
            # max_pending is a backlog high-water mark: it depends on how
            # far the workers got while the publisher was queueing (a
            # batch queues its fan-out at once), not on what was
            # delivered.  Its meaning is pinned by
            # test_pending_counts_exactly_the_tasks_queued_or_in_flight.
            "delivery": dataclasses.replace(service.stats().delivery, max_pending=None),
        }
    return state


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    default=st.sampled_from(("inline", "threadpool")),
    population=subscriptions,
    stamped=stamped_batches(),
)
def test_publish_batch_equals_publishing_one_by_one(default, population, stamped):
    prices, stamps = stamped
    batched = run(default, population, prices, stamps, batched=True)
    one_by_one = run(default, population, prices, stamps, batched=False)
    assert batched["outcomes"] == one_by_one["outcomes"]
    for key in ("summary", "per_profile", "per_profile_ops", "log", "log_per_subscriber"):
        assert batched[key] == one_by_one[key], key
    assert batched["sinks"] == one_by_one["sinks"]
    assert batched["delivery"] == one_by_one["delivery"]
    delivery = batched["delivery"]
    assert delivery.pending == 0
    assert delivery.dispatched == delivery.delivered


# -- the inline-raise contract ------------------------------------------------------


def test_raising_inline_sink_leaves_the_whole_batch_settled():
    """Statistics and the log hold the whole batch; the error propagates;
    the inline sinks after the failing one do not run."""
    calls: list[int] = []

    def fragile(notification):
        calls.append(notification.event["price"])
        if notification.event["price"] == 2:
            raise RuntimeError("subscriber bug")

    after = Recorder()
    service = make_service()
    service.subscribe(profile("P-fragile", price=RangePredicate.at_least(0)), sink=fragile)
    service.subscribe(profile("P-after", price=RangePredicate.at_least(0)), sink=after)
    with pytest.raises(RuntimeError, match="subscriber bug"):
        service.publish_batch([Event({"price": price}) for price in range(5)])
    stats = service.stats()
    assert stats.events == 5  # the whole batch, not the prefix up to price 2
    assert stats.notifications == 10
    assert len(service.broker.notification_log) == 10
    # Plan order is event-major: fragile(0), after(0), fragile(1), after(1),
    # fragile(2) raises — nothing after it runs.
    assert calls == [0, 1, 2]
    assert [n.event["price"] for n in after.received] == [0, 1]
    delivery = stats.delivery
    assert (delivery.dispatched, delivery.delivered, delivery.failed) == (5, 4, 1)
    assert delivery.pending == 0
    service.close()


@pytest.mark.parametrize("batched", [True, False], ids=["publish_batch", "publish"])
def test_raising_inline_sink_still_dispatches_every_earlier_task(batched):
    """A plan mixing modes is submitted in plan order: the tasks before
    a raising inline sink reach their executors — here a pinned
    threadpool subscription — and none after it does."""
    calls: list[int] = []

    def fragile(notification):
        calls.append(notification.event["price"])
        if notification.event["price"] == 1:
            raise RuntimeError("subscriber bug")

    first, pinned, last = Recorder(), Recorder(), Recorder()
    service = make_service(max_workers=2)
    at_least_zero = RangePredicate.at_least(0)
    service.subscribe(profile("P-first", price=at_least_zero), sink=first)
    service.subscribe(profile("P-pinned", price=at_least_zero), sink=pinned, delivery="threadpool")
    service.subscribe(profile("P-fragile", price=at_least_zero), sink=fragile)
    service.subscribe(profile("P-last", price=at_least_zero), sink=last)
    events = [Event({"price": price}) for price in (0, 1)]
    with pytest.raises(RuntimeError, match="subscriber bug"):
        if batched:
            service.publish_batch(events)
        else:
            for event in events:
                service.publish(event)
    service.drain()
    # Plan order: first, pinned, fragile, last — per event.
    assert [n.event["price"] for n in first.received] == [0, 1]
    assert [n.event["price"] for n in pinned.received] == [0, 1]
    assert calls == [0, 1]
    assert [n.event["price"] for n in last.received] == [0]
    delivery = service.stats().delivery
    assert (delivery.dispatched, delivery.delivered, delivery.failed) == (7, 6, 1)
    assert delivery.pending == 0
    service.close()


# -- prefix acceptance across lanes ------------------------------------------------------


def on_lane(lane: int, prefix: str, lanes: int = 2) -> str:
    """A subscription id the threadpool routes to worker ``lane``."""
    return next(
        f"{prefix}{n}" for n in range(1000) if hash(f"{prefix}{n}") % lanes == lane
    )


def make_task(subscription_id: str, sink, price: int = 0) -> tuple[Subscription, Notification]:
    """One task: a subscription with ``sink`` and a notification for it."""
    profile_id = f"P-{subscription_id}"
    notification = Notification(
        event=Event({"price": price}),
        profile_id=profile_id,
        subscriber=None,
        broker_id="broker-test",
        delivered_at=0.0,
    )
    subscription = Subscription(
        subscription_id, profile(profile_id, price=RangePredicate.at_least(0)), "user", sink
    )
    return subscription, notification


def columns(tasks):
    """The two parallel columns ``submit_all`` takes."""
    return [subscription for subscription, _ in tasks], [note for _, note in tasks]


#: (subscription on lane 0 or 1, or the full subscription "F") in list
#: order; the tasks before "F" must be accepted, none after it.
PREFIX_CASES = {
    "later-lane-before-failure": ["a@0", "b@1", "F"],
    "same-lane-after-failure": ["a@0", "F", "c@0"],
    "other-lane-after-failure": ["b@1", "F", "c@0", "d@1"],
}


def block_then_close(executor, tasks, accepted: int, release: threading.Event) -> None:
    """Submit ``tasks`` from a helper thread until it blocks on a full
    lane after ``accepted`` tasks, then close the executor: the blocked
    submission fails, and nothing after its prefix is accepted.

    ``release`` opens the gate the executor's workers are parked on; it
    is set once the submission failed, so the close can drain.
    """
    failures: list[DeliveryError] = []

    def submit() -> None:
        try:
            executor.submit_all(*columns(tasks))
        except DeliveryError as error:
            failures.append(error)

    before = executor.stats().dispatched
    publisher = threading.Thread(target=submit)
    publisher.start()
    deadline = time.monotonic() + 10
    while executor.stats().dispatched - before < accepted:
        assert time.monotonic() < deadline, "the prefix was never accepted"
        time.sleep(0.001)
    assert publisher.is_alive()  # blocked on the full lane
    closer = threading.Thread(target=executor.close)
    closer.start()
    publisher.join(10)
    release.set()
    closer.join(10)
    assert not publisher.is_alive() and not closer.is_alive()
    assert len(failures) == 1
    assert "closed while waiting for queue space" in str(failures[0])
    assert executor.stats().dispatched - before == accepted


@pytest.mark.parametrize("full_lane", [0, 1])
@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_threadpool_raise_accepts_exactly_the_prefix(case, full_lane):
    release = threading.Event()
    started = threading.Semaphore(0)

    def gated(notification):
        started.release()
        assert release.wait(10), "test gate never released"

    received: list[str] = []
    executor = ThreadPoolDeliveryExecutor(max_workers=2, queue_capacity=1)
    try:
        # Park both workers, then fill the "full" subscription's one slot.
        for lane in (0, 1):
            executor.submit_all(*columns([make_task(on_lane(lane, "gate"), gated)]))
        for _ in range(2):
            assert started.acquire(timeout=10)
        full = on_lane(full_lane, "full")
        executor.submit_all(*columns([make_task(full, lambda n: None)]))

        def task_for(name: str) -> tuple[Subscription, Notification]:
            if name == "F":
                return make_task(full, lambda n: None)
            return make_task(on_lane(int(name[-1]), name[0]), lambda n: received.append(name))

        names = PREFIX_CASES[case]
        prefix = names[: names.index("F")]
        block_then_close(executor, [task_for(name) for name in names], len(prefix), release)
    finally:
        release.set()
        executor.close()
    assert sorted(received) == sorted(prefix)


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_webhook_raise_accepts_exactly_the_prefix(case):
    full = "https://full.test/"
    release = threading.Event()
    started = threading.Event()
    posted: list[str] = []
    lock = threading.Lock()

    def transport(endpoint, payload, timeout):
        if endpoint == full:
            started.set()
            assert release.wait(10), "test gate never released"
        with lock:
            posted.append(endpoint)

    def endpoint_of(name: str) -> str:
        # One endpoint (hence one lane) per "lane" of the case.
        return full if name == "F" else f"https://lane{name[-1]}.test/"

    executor = WebhookDeliveryExecutor(
        config=WebhookConfig(transport=transport, max_attempts=1),
        queue_capacity=4,
    )
    try:
        # Park the full endpoint's worker, then fill its queue.
        executor.submit_all(*columns([make_task("S", WebhookSink(full))]))
        assert started.wait(10)
        for _ in range(4):
            executor.submit_all(*columns([make_task("S", WebhookSink(full))]))
        names = PREFIX_CASES[case]
        prefix = names[: names.index("F")]
        tasks = [make_task("S", WebhookSink(endpoint_of(name))) for name in names]
        block_then_close(executor, tasks, len(prefix), release)
    finally:
        release.set()
        executor.close()
    assert sorted(e for e in posted if e != full) == sorted(map(endpoint_of, prefix))


def test_a_blocked_publisher_lets_the_other_lanes_run():
    """``block`` on one lane releases every other lane the list holds:
    a task queued earlier in the same list is delivered meanwhile."""
    release = threading.Event()
    started = threading.Event()
    other_ran = threading.Event()

    def gated(notification):
        started.set()
        assert release.wait(10), "test gate never released"

    order: list[int] = []
    executor = ThreadPoolDeliveryExecutor(max_workers=2, queue_capacity=1)
    hot = on_lane(0, "hot")
    executor.submit_all(*columns([make_task(on_lane(0, "gate"), gated)]))
    assert started.wait(10)
    tasks = [
        make_task(on_lane(1, "other"), lambda n: other_ran.set()),
        make_task(hot, lambda n: order.append(n.event["price"]), 0),
        make_task(hot, lambda n: order.append(n.event["price"]), 1),  # blocks
    ]
    publisher = threading.Thread(target=executor.submit_all, args=columns(tasks))
    publisher.start()
    try:
        assert other_ran.wait(10)  # lane 1 ran while the publisher waits
        assert publisher.is_alive()
    finally:
        release.set()
    publisher.join(10)
    assert not publisher.is_alive()
    executor.drain()
    executor.close()
    assert order == [0, 1]
    stats = executor.stats()
    assert (stats.dispatched, stats.delivered, stats.pending) == (4, 4, 0)


# -- what pending counts -----------------------------------------------------------------


def test_pending_counts_exactly_the_tasks_queued_or_in_flight():
    """A worker settles each task as it finishes: inside the i-th sink of
    a batch, ``pending`` is the tasks not yet finished, and the
    high-water mark is the batch's fan-out."""
    seen: list[int] = []
    with make_service(delivery="threadpool", max_workers=1) as service:

        def sink(notification):
            seen.append(service.stats().delivery.pending)

        service.subscribe(profile("P", price=RangePredicate.at_least(0)), sink=sink)
        service.subscribe(profile("Q", price=RangePredicate.at_least(0)), sink=sink)
        service.publish_batch([Event({"price": price}) for price in range(10)])
        service.drain()
        stats = service.stats().delivery
    assert seen == list(range(20, 0, -1))
    assert (stats.max_pending, stats.pending) == (20, 0)


# -- the deterministic work guard -----------------------------------------------------


class CountingCondition(threading.Condition):
    """A lane condition counting acquisitions made by one thread, through
    ``acquire()`` or ``with``."""

    owner: int = 0
    acquisitions = 0

    def __init__(self) -> None:
        super().__init__()
        acquire = self.acquire  # Condition binds its lock's acquire

        def counting_acquire(*args, **kwargs):
            CountingCondition.count()
            return acquire(*args, **kwargs)

        self.acquire = counting_acquire

    @staticmethod
    def count() -> None:
        if threading.get_ident() == CountingCondition.owner:
            CountingCondition.acquisitions += 1

    def __enter__(self):
        CountingCondition.count()
        return super().__enter__()


class CountingLane(threadpool._Lane):
    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.condition = CountingCondition()


def test_one_batch_costs_one_lock_per_lane_and_one_accepted(monkeypatch):
    accepted: list[int] = []
    original_accepted = DeliveryCounters.accepted

    def counting_accepted(self, count=1):
        accepted.append(count)
        original_accepted(self, count)

    monkeypatch.setattr(threadpool, "_Lane", CountingLane)
    monkeypatch.setattr(DeliveryCounters, "accepted", counting_accepted)
    CountingCondition.owner = threading.get_ident()
    sinks = [Recorder() for _ in range(13)]
    with make_service(delivery="threadpool", max_workers=2) as service:
        for index, sink in enumerate(sinks):
            service.subscribe(profile(f"P{index}", price=RangePredicate.at_least(0)), sink=sink)
        service.publish(Event({"price": 0}))  # builds the executor
        service.drain()
        accepted.clear()
        CountingCondition.acquisitions = 0

        service.publish_batch([Event({"price": price % 100}) for price in range(200)])

        lock_acquisitions = CountingCondition.acquisitions
        service.drain()
        assert service.stats().delivery.delivered == 13 + 200 * 13
    # One acquisition per lane lock and one accepted(n) — the per-task
    # path made 2 600 of each.
    assert 1 <= lock_acquisitions <= 2
    assert len(accepted) == 1
    assert sum(accepted) == 200 * 13
    for sink in sinks:
        assert [n.event["price"] for n in sink.received] == [0] + [p % 100 for p in range(200)]


# -- stress: batched accounting under preemption ------------------------------------------


def test_every_snapshot_conserves_tasks_under_a_short_switch_interval():
    """More workers than cores, a tiny switch interval and full lanes
    (``block``): every concurrent snapshot obeys the conservation law,
    and FIFO survives the batched enqueue and the lock-free worker tallies."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sinks = [Recorder() for _ in range(8)]
        violations: list = []
        stop = threading.Event()
        with make_service(delivery="threadpool", max_workers=4, queue_capacity=4) as service:
            for index, sink in enumerate(sinks):
                service.subscribe(profile(f"P{index}", price=RangePredicate.at_least(0)), sink=sink)

            def watch():
                # Started before the first publish builds the executor, so
                # snapshots also race the dispatcher's lazy roster.
                try:
                    while not stop.is_set():
                        s = service.broker.delivery_stats()
                        settled = s.delivered + s.failed + s.dropped + s.dead_lettered
                        if s.pending < 0 or s.dispatched != settled + s.pending:
                            violations.append(s)
                except Exception as error:  # a crashed watcher must fail the test
                    violations.append(error)

            watcher = threading.Thread(target=watch, daemon=True)
            watcher.start()
            try:
                for start in range(0, 400, 50):
                    service.publish_batch(
                        [Event({"price": price % 100}) for price in range(start, start + 50)]
                    )
                service.drain()
            finally:
                stop.set()
                watcher.join(10)
            assert not watcher.is_alive()
            stats = service.broker.delivery_stats()
        assert violations == []
        assert (stats.dispatched, stats.delivered, stats.pending) == (3200, 3200, 0)
        for sink in sinks:
            assert [n.event["price"] for n in sink.received] == [p % 100 for p in range(400)]
    finally:
        sys.setswitchinterval(interval)


# -- non-draining close after a batch ---------------------------------------------------


def test_close_without_drain_after_a_batch_drops_exactly_the_unstarted_tasks():
    started = threading.Event()
    gate = threading.Event()
    gated_calls: list[int] = []

    def gated(notification):
        started.set()
        assert gate.wait(10), "test gate never released"
        gated_calls.append(notification.event["price"])

    other = Recorder()
    service = make_service(delivery="threadpool", max_workers=1, queue_capacity=64)
    service.subscribe(profile("P-gated", price=RangePredicate.at_least(0)), sink=gated)
    service.subscribe(profile("P-other", price=RangePredicate.at_least(0)), sink=other)
    # One lane, 12 tasks: gated(0) goes in flight, 11 stay queued.
    service.publish_batch([Event({"price": price}) for price in range(6)])
    assert started.wait(10)
    closer = threading.Thread(target=service.close, kwargs={"drain": False})
    closer.start()
    deadline = time.monotonic() + 10
    while service.stats().delivery.dropped < 11 and time.monotonic() < deadline:
        time.sleep(0.001)
    gate.set()  # only now may the in-flight sink finish
    closer.join(10)
    assert not closer.is_alive()
    stats = service.stats().delivery
    assert gated_calls == [0]
    assert other.received == []
    assert (stats.dispatched, stats.delivered, stats.dropped, stats.pending) == (12, 1, 11, 0)


# -- the worker takes its lane whole ------------------------------------------------------


def parked_worker(executor, queued) -> tuple[threading.Event, list[int]]:
    """Submit a gated task together with ``queued`` (one submission) and
    wait until the worker runs the gated sink: it took the whole
    submission off its lane, so ``queued`` sits in its hand.  Return the
    gate and, in a list, the worker's thread id."""
    started, gate, worker = threading.Event(), threading.Event(), []

    def gated(notification):
        worker.append(threading.get_ident())
        started.set()
        assert gate.wait(10), "test gate never released"

    executor.submit_all(*columns([make_task("gate", gated), *queued]))
    assert started.wait(10)
    return gate, worker


def test_a_worker_takes_its_queued_tasks_in_one_lock_round_trip(monkeypatch):
    """N tasks queued behind a parked worker cost the worker O(1)
    acquisitions of its lane lock once it is free (one per task took
    N + 1)."""
    monkeypatch.setattr(threadpool, "_Lane", CountingLane)
    monkeypatch.setattr(CountingCondition, "owner", 0)
    monkeypatch.setattr(CountingCondition, "acquisitions", 0)
    tasks = 200
    received = Recorder()
    executor = ThreadPoolDeliveryExecutor(max_workers=1)
    gate, worker = parked_worker(executor, [])
    try:
        executor.submit_all(
            *columns([make_task(f"S{n % 4}", received, n % 100) for n in range(tasks)])
        )
        CountingCondition.owner = worker[0]  # the publisher's locks are not counted
        gate.set()
        executor.drain()
        acquisitions = CountingCondition.acquisitions
        delivered = executor.stats().delivered
    finally:
        gate.set()
        executor.close()
    # One take of the whole lane, and the look that found it empty.
    assert 1 <= acquisitions <= 2
    assert delivered == tasks + 1
    assert [n.event["price"] for n in received.received] == [n % 100 for n in range(tasks)]


def test_close_without_drain_drops_the_hand_and_the_lane():
    """Behind a gated in-flight sink, the worker's hand holds 5 tasks and
    its lane 3 more: a non-draining close drops all 8 before the gate
    opens, and only the in-flight task is delivered."""
    received = Recorder()
    executor = ThreadPoolDeliveryExecutor(max_workers=1, queue_capacity=8)
    lane = executor._lanes[0]
    gate, _ = parked_worker(executor, [make_task("S", received, n) for n in range(5)])
    closer = threading.Thread(target=executor.close, kwargs={"drain": False})
    try:
        executor.submit_all(*columns([make_task("S", received, n) for n in range(5, 8)]))
        assert (len(lane.hand), len(lane.queue)) == (5, 3)
        closer.start()
        deadline = time.monotonic() + 10
        while executor.stats().dropped < 8:
            assert time.monotonic() < deadline, "close never dropped the hand and the lane"
            time.sleep(0.001)
        assert closer.is_alive()  # still waiting for the in-flight sink
    finally:
        gate.set()
        if closer.is_alive():
            closer.join(10)
        executor.close()
    assert not closer.is_alive()
    stats = executor.stats()
    assert received.received == []
    assert (stats.dispatched, stats.delivered, stats.dropped, stats.pending) == (9, 1, 8, 0)
    assert stats.dispatched == stats.delivered + stats.dropped


def test_capacity_bounds_the_lane_not_the_hand():
    """With ``queue_capacity`` tasks of a subscription in the worker's
    hand, the publisher queues ``queue_capacity`` more and blocks on the
    next; another subscription on the same worker still gets in."""
    capacity = 4
    received: dict[str, list[int]] = {"S": [], "O": []}

    def task(subscription_id: str, price: int):
        return make_task(
            subscription_id, lambda n: received[subscription_id].append(n.event["price"]), price
        )

    executor = ThreadPoolDeliveryExecutor(max_workers=1, queue_capacity=capacity)
    gate, _ = parked_worker(executor, [task("S", n) for n in range(capacity)])
    blocked = threading.Thread(target=executor.submit_all, args=columns([task("S", 2 * capacity)]))
    other = threading.Thread(target=executor.submit_all, args=columns([task("O", 0)]))
    try:
        executor.submit_all(*columns([task("S", n) for n in range(capacity, 2 * capacity)]))
        assert executor.stats().dispatched == 1 + 2 * capacity
        blocked.start()
        blocked.join(0.1)
        assert blocked.is_alive()  # S's lane is full
        other.start()
        other.join(10)
        assert not other.is_alive()
        assert executor.stats().dispatched == 1 + 2 * capacity + 1
        assert blocked.is_alive()
    finally:
        gate.set()
        for thread in (blocked, other):
            if thread.is_alive():
                thread.join(10)
        executor.drain()
        executor.close()
    assert not blocked.is_alive()
    assert received == {"S": list(range(2 * capacity + 1)), "O": [0]}
    stats = executor.stats()
    total = 2 * capacity + 3  # the gate, S twice over plus one, and O
    assert (stats.dispatched, stats.delivered, stats.pending) == (total, total, 0)


def test_a_racing_non_draining_close_starts_or_drops_each_task_once():
    """More workers than cores and a tiny switch interval: a close that
    races the workers through their hands leaves every task delivered or
    dropped, never both, and each subscription's delivered tasks are a
    prefix of what it was sent."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(20):
            received: dict[str, list[int]] = {f"S{n}": [] for n in range(8)}
            running = threading.Event()

            def sink_for(subscription_id: str):
                def sink(notification):
                    running.set()
                    time.sleep(0)  # let the closer in mid-hand
                    received[subscription_id].append(notification.event["price"])

                return sink

            executor = ThreadPoolDeliveryExecutor(max_workers=4, queue_capacity=64)
            tasks = [make_task(sid, sink_for(sid), p) for p in range(50) for sid in received]
            executor.submit_all(*columns(tasks))
            assert running.wait(10)
            executor.close(drain=False)
            stats = executor.stats()
            delivered = sum(map(len, received.values()))
            assert (stats.dispatched, stats.pending, stats.delivered) == (400, 0, delivered)
            assert stats.delivered + stats.dropped == 400
            for prices in received.values():
                assert prices == list(range(len(prices)))
    finally:
        sys.setswitchinterval(interval)
