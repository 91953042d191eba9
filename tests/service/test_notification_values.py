"""``Notification`` is a named tuple.

The broker builds one per matched (event, profile) pair, so it is a
value type as cheap to construct as Python allows; nothing else is built
per notification (the delivery plan is two columns, and the
``DeliveryTask`` tuple is gone).  Pinned here: the field order and
defaults (positional and keyword construction), equality and hashing by
value, immutability, and that one publish call hands the *same*
notification object to the sink, the notification log and the returned
outcome.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import FilterService
from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema
import repro.service.delivery as delivery_package
from repro.service.delivery import base as delivery_base
from repro.service.notifications import Notification

EVENT = Event({"price": 1})

#: type -> (the required fields with sample values, the defaulted fields
#: with their defaults), both in field order.
VALUE_TYPES = {
    "Notification": (
        Notification,
        {"event": EVENT, "profile_id": "P1"},
        {"subscriber": None, "broker_id": None, "delivered_at": 0.0, "filter_operations": 0},
    ),
}

value_types = pytest.mark.parametrize(
    ("cls", "required", "defaults"), list(VALUE_TYPES.values()), ids=list(VALUE_TYPES)
)


@value_types
def test_field_order_and_defaults(cls, required, defaults):
    assert cls._fields == (*required, *defaults)
    assert cls._field_defaults == defaults
    value = cls(**required)
    assert {name: getattr(value, name) for name in cls._fields} == {**required, **defaults}


@value_types
def test_positional_and_keyword_construction_agree(cls, required, defaults):
    assert cls(*required.values()) == cls(**required)
    everything = {**required, **defaults}
    assert cls(*everything.values()) == cls(**everything) == cls(**required)


@value_types
def test_equal_and_hashed_by_value(cls, required, defaults):
    # Stand-ins for the fields: an Event holds a dict, hence a notification
    # carrying one compares by value but cannot be hashed.
    values = [f"value-{name}" for name in cls._fields]
    first, second = cls(*values), cls(*values)
    assert first == second and first is not second
    assert hash(first) == hash(second)
    assert first == tuple(values)  # a named tuple equals the plain tuple
    assert first != first._replace(**{cls._fields[0]: "other"})


@value_types
def test_indexed_unpacked_and_replaced(cls, required, defaults):
    value = cls(**required)
    assert tuple(value) == (*required.values(), *defaults.values())
    assert value[0] is next(iter(required.values()))
    name = cls._fields[-1]
    changed = value._replace(**{name: "changed"})
    assert getattr(changed, name) == "changed"
    assert getattr(value, name) == defaults[name]  # the original is untouched


@value_types
def test_fields_cannot_be_assigned(cls, required, defaults):
    value = cls(**required)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None  # no per-instance dict either


@pytest.mark.parametrize("delivery", ["inline", "threadpool"])
def test_sink_log_and_outcome_share_one_notification(delivery):
    """``Broker._notify`` builds each notification once: the sink, the
    log and ``PublishOutcome.notifications`` see that one object."""
    received: list[Notification] = []
    schema = Schema([Attribute("price", IntegerDomain(0, 9))])
    with FilterService(
        schema, engine="index", adaptive=False, delivery=delivery, max_workers=2
    ) as service:
        for profile_id in ("P1", "P2"):
            service.subscribe(
                profile(profile_id, price=RangePredicate.at_least(0)), sink=received.append
            )
        outcomes = service.publish_batch([Event({"price": price}) for price in range(5)])
        service.drain()
        logged = service.broker.notification_log.all()
    returned = [n for outcome in outcomes for n in outcome.notifications]
    assert len(returned) == 10
    assert all(type(n) is Notification for n in returned)
    assert list(map(id, logged)) == list(map(id, returned))
    # Two threadpool lanes may interleave the subscriptions.
    assert sorted(map(id, received)) == sorted(map(id, returned))


def test_no_task_type_is_built_per_notification():
    """The delivery plan carries the resolved subscriptions next to the
    notifications; the per-notification ``DeliveryTask`` is gone."""
    for module in (delivery_package, delivery_base):
        assert not hasattr(module, "DeliveryTask")
    assert [field.name for field in dataclasses.fields(delivery_base.DeliveryPlan)] == [
        "subscriptions",
        "notifications",
        "default_only",
    ]
