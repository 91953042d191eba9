"""Hypothesis: executor choice never changes what subscribers observe.

For arbitrary interleavings of ``publish`` and ``publish_batch`` calls,
the *set* and *per-subscription order* of notifications delivered by the
``threadpool`` executor must equal inline delivery —
and the matching results themselves must be bit-identical (delivery is
strictly downstream of the matcher).  This is the acceptance property of
the delivery tentpole.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import FilterService
from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import OneOf, RangePredicate
from repro.core.profiles import profile
from repro.core.schema import Attribute, Schema

SCHEMA = Schema([Attribute("price", IntegerDomain(0, 19))])

#: A mixed population: always-match, point, range and set predicates, so
#: generated events hit overlapping subscriber subsets.
PROFILES = (
    profile("P-all", price=RangePredicate.at_least(0)),
    profile("P-low", price=RangePredicate.at_most(6)),
    profile("P-high", price=RangePredicate.at_least(13)),
    profile("P-mid", price=RangePredicate.between(5, 14)),
    profile("P-exact", price=7),
    profile("P-oneof", price=OneOf([1, 4, 9, 16])),
)

#: One step is a single publish (int) or an atomic batch (list).
price = st.integers(min_value=0, max_value=19)
steps = st.lists(
    st.one_of(price, st.lists(price, min_size=0, max_size=10)),
    min_size=1,
    max_size=12,
)


def run_interleaving(mode: str, script, **kwargs):
    """Run one publish script; return (per-subscription prices, matches)."""
    service = FilterService(
        SCHEMA, engine="index", adaptive=False, delivery=mode, **kwargs
    )
    received: dict[str, list[int]] = {}
    try:
        for item in PROFILES:
            sink_log: list[int] = []
            received[item.profile_id] = sink_log
            service.subscribe(
                item,
                subscriber=item.profile_id,
                sink=lambda n, log=sink_log: log.append(n.event["price"]),
            )
        matches = []
        for step in script:
            if isinstance(step, int):
                outcome = service.publish(Event({"price": step}))
                matches.append(outcome.match_result.matched_profile_ids)
            else:
                outcomes = service.publish_batch(
                    [Event({"price": value}) for value in step]
                )
                matches.extend(o.match_result.matched_profile_ids for o in outcomes)
        service.drain()
    finally:
        service.close()
    return received, matches


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(script=steps)
def test_threadpool_order_equals_inline(script):
    inline_received, inline_matches = run_interleaving("inline", script)
    pooled_received, pooled_matches = run_interleaving(
        "threadpool", script, max_workers=4, queue_capacity=8
    )
    assert pooled_matches == inline_matches  # matching is bit-identical
    assert pooled_received == inline_received  # per-subscription FIFO


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=steps)
def test_threadpool_single_worker_equals_many(script):
    """Worker count is a throughput knob, never an ordering one."""
    one, matches_one = run_interleaving("threadpool", script, max_workers=1)
    many, matches_many = run_interleaving("threadpool", script, max_workers=8)
    assert one == many
    assert matches_one == matches_many
