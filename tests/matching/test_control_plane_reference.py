"""Planner decisions are unchanged by the log-time control plane.

For every corpus profile the index plan, the recost verdicts, the probe
order and the rejection scores computed through the bisect /
endpoint-sweep code under ``src/`` must equal what the brute-force
references of :mod:`scan_reference` produce when patched in its place —
and a recost must no longer probe ``Interval.contains`` per support value.
"""

import random

import pytest
from scan_reference import quadratic_ordered_partition, scan_probability_of_interval

from repro.core.intervals import Interval
from repro.core.profiles import ProfileSet
from repro.distributions.discrete import DiscreteDistribution, uniform_discrete
from repro.distributions.estimation import EventHistory
from repro.matching.index import IndexPlanner, PredicateIndexMatcher
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile, list_profiles

#: The references are quadratic: capping the two largest populations
#: (``wide-range`` 1 500, ``iot-telemetry`` 800) and the history length
#: keeps the whole corpus to a few seconds.
PROFILE_CAP = 500
HISTORY_EVENTS = 500

COST_FIELDS = (
    "index_cost",
    "scan_cost",
    "hash_index_cost",
    "hash_scan_cost",
    "interval_index_cost",
    "interval_scan_cost",
    "residual_scan_cost",
)
VERDICT_FIELDS = ("use_index", "use_hash", "use_interval", "entry_count")


def approx(value):
    """Costs may differ by summation order only."""
    return pytest.approx(value, rel=1e-9, abs=1e-12)


def history_distributions(schema, events):
    history = EventHistory(schema)
    history.observe_all(events)
    return {a.name: history.counter(a.name).to_distribution() for a in schema}


def control_plane(workload, hybrid):
    """Everything the planner decides for ``workload``, as plain data."""
    schema = workload.spec.schema
    first = history_distributions(schema, workload.events[:HISTORY_EVENTS])
    second = history_distributions(schema, workload.events[HISTORY_EVENTS:])
    planner = IndexPlanner(first, hybrid=hybrid)
    matcher = PredicateIndexMatcher(ProfileSet(schema, workload.profiles), planner=planner)
    return {
        "plan": dict(matcher.plan.attributes),
        "recost": matcher.recost_plans(second),
        "probe_order": matcher.plan.probe_order,
        "rejection_scores": planner.rejection_scores(matcher.profiles),
    }


def assert_same_plans(actual, expected):
    assert actual.keys() == expected.keys()
    for attribute, plan in actual.items():
        reference = expected[attribute]
        for name in VERDICT_FIELDS:
            assert getattr(plan, name) == getattr(reference, name), (attribute, name)
        for name in COST_FIELDS:
            assert getattr(plan, name) == approx(getattr(reference, name)), (attribute, name)


@pytest.mark.parametrize("hybrid", [False, True], ids=["binary", "hybrid"])
@pytest.mark.parametrize("name", list_profiles())
def test_corpus_plans_match_the_brute_force_reference(name, hybrid, monkeypatch):
    spec = get_profile(name).spec
    workload = build_workload(
        spec.with_counts(
            profile_count=min(spec.profile_count, PROFILE_CAP), event_count=2 * HISTORY_EVENTS
        )
    )
    actual = control_plane(workload, hybrid)

    monkeypatch.setattr(
        DiscreteDistribution, "probability_of_interval", scan_probability_of_interval
    )
    monkeypatch.setattr("repro.core.subranges._ordered_partition", quadratic_ordered_partition)
    expected = control_plane(workload, hybrid)

    assert_same_plans(actual["plan"], expected["plan"])
    assert_same_plans(actual["recost"], expected["recost"])
    assert actual["probe_order"] == expected["probe_order"]
    assert actual["rejection_scores"] == approx(expected["rejection_scores"])


def test_recost_makes_no_per_value_containment_probes(monkeypatch):
    """Complexity guard: before PR 13 one recost of the ``wide-range``
    population under a 2 000-value history made ~3.9 M
    ``Interval.contains`` calls (every slab x every support value)."""
    workload = build_workload(get_profile("wide-range").spec)
    schema = workload.spec.schema
    matcher = PredicateIndexMatcher(ProfileSet(schema, workload.profiles))
    metric = schema.domain("metric")
    rng = random.Random(13)
    support = rng.sample(range(metric.low, metric.high + 1), 2000)
    distributions = {
        "metric": DiscreteDistribution(metric, {v: rng.randint(1, 9) for v in support}),
        "region": uniform_discrete(schema.domain("region")),
    }

    calls = 0
    contains = Interval.contains

    def counting_contains(self, value):
        nonlocal calls
        calls += 1
        return contains(self, value)

    monkeypatch.setattr(Interval, "contains", counting_contains)
    recosted = matcher.recost_plans(distributions)

    assert set(recosted) == {"metric", "region"}
    assert calls <= 1_000
