"""Integration: the analytical model (TV4) agrees with simulation (TV3).

The runtime matcher and the expected-cost model implement the same cost
conventions, so filtering a large sample of events drawn from the event
distribution must converge to the analytical expectation for every ordering
strategy and both search strategies.
"""

import random

import pytest

from repro.analysis.cost_model import expected_tree_cost
from repro.distributions.joint import IndependentJointDistribution
from repro.experiments.harness import (
    STRATEGY_BINARY,
    STRATEGY_EVENT,
    STRATEGY_NATURAL,
    STRATEGY_PROFILE,
    configuration_for_strategy,
)
from repro.matching.statistics import FilterStatistics
from repro.matching.tree.builder import build_tree
from repro.matching.tree.matcher import TreeMatcher
from repro.selectivity.optimizer import TreeOptimizer
from repro.workloads.generators import build_workload
from repro.workloads.profiles import get_profile
from repro.workloads.toy import environmental_profiles, example3_event_distributions

STRATEGIES = [STRATEGY_NATURAL, STRATEGY_EVENT, STRATEGY_PROFILE, STRATEGY_BINARY]


@pytest.mark.parametrize("events,profiles", [("gauss", "95% high"), ("equal", "equal")])
@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
def test_simulation_converges_to_analytic_single_attribute(events, profiles, strategy):
    workload = build_workload(
        get_profile("single-attribute")
        .spec.with_counts(profile_count=40, event_count=1)
        .with_seed(3)
        .with_distributions(events=events, profiles=profiles)
    )
    optimizer = TreeOptimizer(workload.profiles, dict(workload.event_distributions))
    configuration = configuration_for_strategy(strategy, optimizer)
    tree = build_tree(workload.profiles, configuration)
    analytic = expected_tree_cost(tree, dict(workload.event_distributions))

    matcher = TreeMatcher(workload.profiles, configuration)
    statistics = FilterStatistics()
    rng = random.Random(17)
    joint = workload.joint_event_distribution()
    for _ in range(6000):
        statistics.record(matcher.match(joint.sample_event(rng)))

    simulated = statistics.average_operations_per_event()
    assert simulated == pytest.approx(analytic.operations_per_event, rel=0.08)


def test_simulation_converges_to_analytic_on_toy_tree():
    profiles = environmental_profiles()
    distributions = example3_event_distributions()
    tree = build_tree(profiles)
    analytic = expected_tree_cost(tree, distributions)

    matcher = TreeMatcher(profiles)
    joint = IndependentJointDistribution(profiles.schema, distributions)
    statistics = FilterStatistics()
    rng = random.Random(5)
    for _ in range(8000):
        statistics.record(matcher.match(joint.sample_event(rng)))
    assert statistics.average_operations_per_event() == pytest.approx(
        analytic.operations_per_event, rel=0.08
    )
    assert statistics.match_rate() == pytest.approx(analytic.match_probability, abs=0.03)
    assert statistics.average_matches_per_event() == pytest.approx(
        analytic.expected_notifications, abs=0.05
    )


def test_per_profile_metric_agrees_between_model_and_simulation():
    workload = build_workload(
        get_profile("single-attribute")
        .spec.with_counts(profile_count=30, event_count=1)
        .with_seed(9)
        .with_distributions(events="equal", profiles="95% high")
    )
    tree = build_tree(workload.profiles)
    analytic = expected_tree_cost(tree, dict(workload.event_distributions))

    matcher = TreeMatcher(workload.profiles)
    statistics = FilterStatistics()
    rng = random.Random(21)
    joint = workload.joint_event_distribution()
    for _ in range(8000):
        statistics.record(matcher.match(joint.sample_event(rng)))

    simulated = statistics.average_operations_over_profiles()
    assert simulated == pytest.approx(analytic.operations_per_profile, rel=0.1)
