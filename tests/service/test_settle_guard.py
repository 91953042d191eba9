"""A publish call is settled in columns, with no clock in the guard.

The broker builds each notification once (``tuple.__new__``, the named
tuple's ``_make`` path) and resolves each matched profile's subscription
once per call; the delivery plan is the two columns, and the dispatcher
submits it as one ``submit_all`` when every subscription of the call has
a sink and rides the default executor.  Pinned here, by counting calls:

* one ``publish_batch`` of ``wide-range`` events with inline sinks on
  every subscription constructs exactly one ``Notification`` per
  notification (no other named tuple either) and makes one
  ``submit_all`` call;
* one subscription pinned to ``threadpool`` in the middle of an event's
  matches splits that call into three same-mode runs, in plan order;
* a subscription without a sink is skipped, and its notification still
  reaches the log and the outcome.
"""

from __future__ import annotations

import sys

import pytest

from repro.api import FilterService
from repro.service.delivery import (
    DeliveryDispatcher,
    InlineExecutor,
    ThreadPoolDeliveryExecutor,
)
from repro.service.notifications import Notification
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile

WIDE_RANGE = build_workload(get_profile("wide-range").spec.with_counts(event_count=64))


@pytest.fixture
def submissions(monkeypatch) -> list[tuple[str, list[str]]]:
    """Every ``submit_all`` call, as (executor name, subscription ids)."""
    calls: list[tuple[str, list[str]]] = []
    for executor in (InlineExecutor, ThreadPoolDeliveryExecutor):
        original = executor.submit_all

        def counting(self, subscriptions, notifications, _original=original):
            calls.append((self.name, [s.subscription_id for s in subscriptions]))
            return _original(self, subscriptions, notifications)

        monkeypatch.setattr(executor, "submit_all", counting)
    return calls


def subscribed(service: FilterService, sink) -> list:
    handles = service.subscribe_all(list(WIDE_RANGE.profiles))
    for handle in handles:
        handle.deliver_to(sink)
    return handles


def count_tuple_constructions(publish):
    """Run ``publish()`` and count its ``tuple.__new__`` calls.

    A named tuple is built through ``tuple.__new__`` whichever way it is
    constructed (its generated ``__new__``, ``_make`` or a direct call),
    so this counts every ``Notification`` built, and any other named
    tuple.
    """
    new, constructed = tuple.__new__, [0]

    def profile(frame, event, argument):
        if event == "c_call" and argument is new:
            constructed[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = publish()
    finally:
        sys.setprofile(previous)
    return result, constructed[0]


def test_one_batch_is_one_plan_one_submission_one_tuple_each(submissions, monkeypatch):
    plans = []
    dispatch = DeliveryDispatcher.dispatch

    def recording(self, plan):
        plans.append(plan)
        return dispatch(self, plan)

    monkeypatch.setattr(DeliveryDispatcher, "dispatch", recording)
    received: list[Notification] = []
    with FilterService(WIDE_RANGE.schema, engine="index", adaptive=False) as service:
        subscribed(service, received.append)
        events = list(WIDE_RANGE.events)
        outcomes, constructed = count_tuple_constructions(lambda: service.publish_batch(events))
        returned = [n for outcome in outcomes for n in outcome.notifications]
        logged = service.broker.notification_log.all()
    assert len(returned) > 10 * len(events)  # hit-heavy: ~20 matches per event
    assert constructed == len(returned)
    assert all(type(n) is Notification for n in returned)
    # One object per notification, shared by the sinks, the log and the outcomes.
    assert list(map(id, received)) == list(map(id, returned)) == list(map(id, logged))
    (plan,) = plans
    assert plan.default_only and list(map(id, plan.notifications)) == list(map(id, returned))
    assert len(submissions) == 1
    name, subscription_ids = submissions[0]
    assert name == "inline" and len(subscription_ids) == len(returned)


def test_a_pinned_subscription_splits_the_plan_into_same_mode_runs(submissions):
    pinned_received: list[Notification] = []
    with FilterService(WIDE_RANGE.schema, engine="index", adaptive=False, max_workers=2) as service:
        handles = {h.profile.profile_id: h for h in subscribed(service, lambda n: None)}
        event = next(e for e in WIDE_RANGE.events if len(service.publish(e).notifications) >= 3)
        matched = [n.profile_id for n in service.publish(event).notifications]
        middle = len(matched) // 2
        handles[matched[middle]].deliver_to(pinned_received.append, delivery="threadpool")
        ids = [handles[profile_id].subscription_id for profile_id in matched]
        submissions.clear()
        (outcome,) = service.publish_batch([event])
        service.drain()
    assert [n.profile_id for n in outcome.notifications] == matched
    assert submissions == [
        ("inline", ids[:middle]),
        ("threadpool", [ids[middle]]),
        ("inline", ids[middle + 1 :]),
    ]
    assert pinned_received == [outcome.notifications[middle]]


def test_a_sinkless_subscription_is_skipped_but_logged(submissions):
    with FilterService(WIDE_RANGE.schema, engine="index", adaptive=False) as service:
        handles = {h.profile.profile_id: h for h in subscribed(service, lambda n: None)}
        event = next(e for e in WIDE_RANGE.events if len(service.publish(e).notifications) >= 3)
        matched = [n.profile_id for n in service.publish(event).notifications]
        handles[matched[0]].deliver_to(None)
        ids = [handles[profile_id].subscription_id for profile_id in matched]
        submissions.clear()
        logged_before = len(service.broker.notification_log)
        (outcome,) = service.publish_batch([event])
        assert len(service.broker.notification_log) - logged_before == len(matched)
    assert len(outcome.notifications) == len(matched)
    assert submissions == [("inline", ids[1:])]
