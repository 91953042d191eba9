"""Rejection scores read off the buckets, on degenerate domains.

The probe order's zero-subdomain ``D_0`` comes from the index's buckets:
the slabs no range covers, less the hash keys and what the residual
predicates accept.  On each edge case below the scores must equal those
of the partition reference (:func:`scan_reference.partition_rejection_scores`)
— exactly on integer and discrete domains, to ``rel=1e-12`` on a
continuous one, where the uncovered measure and the domain size less the
covered measure may round apart — the probe order must be the
reference's, and the matches must be the oracle's.

The profile tree takes the same cases: the tree it builds must equal the
unfolded reference's (:func:`tree_reference.reference_build_tree`) and
its matches the oracle's.
"""

import pytest
from scan_reference import attribute_indexes, partition_probe_order, partition_rejection_scores
from tree_reference import reference_build_tree

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.distributions.continuous import PiecewiseConstantDistribution
from repro.distributions.discrete import DiscreteDistribution
from repro.matching.index import IndexPlanner, PredicateIndexMatcher
from repro.matching.naive import NaiveMatcher
from repro.matching.tree.matcher import TreeMatcher

#: The companion attribute every profile also constrains, so the probe
#: order has two scores to rank.
COMPANION = Attribute("w", IntegerDomain(0, 9))

EVERY_OTHER = range(0, 20_000, 2)

#: Case name -> the degenerate attribute ``v``, its predicates (one profile
#: each) and the values of ``v`` the events carry.
CASES = {
    "single-value integer": (
        IntegerDomain(5, 5),
        [Equals(5), OneOf([5]), RangePredicate.at_least(5)],
        [5],
    ),
    "single-value discrete": (
        DiscreteDomain(["only"]),
        [Equals("only"), OneOf(["only"])],
        ["only"],
    ),
    "not-equals of the only integer": (IntegerDomain(5, 5), [NotEquals(5)], [5]),
    "not-equals of the only symbol": (DiscreteDomain(["only"]), [NotEquals("only")], ["only"]),
    "keys in an uncovered gap": (
        IntegerDomain(0, 99),
        [
            RangePredicate.between(10, 20),
            RangePredicate.between(50, 60, low_closed=False),
            Equals(30),
            OneOf([35, 40, 55]),
            Equals(50),
        ],
        list(range(100)),
    ),
    "ranges clamped at the domain edges": (
        IntegerDomain(0, 99),
        [
            RangePredicate.at_most(5),
            RangePredicate.between(-10, 3),
            RangePredicate.at_least(90),
            RangePredicate.between(95, 200, high_closed=False),
            RangePredicate.less_than(0.5),
        ],
        list(range(100)),
    ),
    # One entry covers each side of 8: the count does not change there,
    # the entry does, and so does the piece.
    "adjacent ranges": (
        IntegerDomain(0, 99),
        [RangePredicate.between(4, 8, high_closed=False), RangePredicate.between(8, 99)],
        list(range(100)),
    ),
    "ten thousand keys": (IntegerDomain(0, 19_999), [OneOf(EVERY_OTHER)], list(range(0, 200, 3))),
    "ten thousand keys and a range": (
        IntegerDomain(0, 19_999),
        [OneOf(EVERY_OTHER), RangePredicate.between(100, 150.5), NotEquals(7)],
        list(range(0, 200, 3)) + [19_999],
    ),
}


def distribution_over(domain):
    if isinstance(domain, ContinuousDomain):
        return PiecewiseConstantDistribution(domain, [1, 3, 2, 5])
    values = domain.values()
    return DiscreteDistribution(domain, {v: 1 + i % 7 for i, v in enumerate(values) if i % 3 != 1})


def profile_set(domain, predicates):
    """One profile per predicate on ``v``, each also constraining ``w``."""
    schema = Schema([Attribute("v", domain), COMPANION])
    return ProfileSet(
        schema,
        [
            Profile(f"P{index}", {"v": predicate, "w": Equals(index % 10)})
            for index, predicate in enumerate(predicates)
        ],
    )


def build(domain, predicates, measured):
    profiles = profile_set(domain, predicates)
    schema = profiles.schema
    distributions = None
    if measured:
        distributions = {"v": distribution_over(domain), "w": distribution_over(COMPANION.domain)}
    planner = IndexPlanner(distributions)
    matcher = PredicateIndexMatcher(profiles, planner=planner)
    return schema, planner, matcher


def assert_oracle_matches(schema, matcher, values):
    events = [Event({"v": value, "w": w}) for value in values for w in (0, 1, 9)]
    naive = NaiveMatcher(ProfileSet(schema, list(matcher.profiles)))
    expected = [result.matched_profile_ids for result in naive.match_batch(events)]
    assert [matcher.match(event).matched_profile_ids for event in events] == expected
    assert [result.matched_profile_ids for result in matcher.match_batch(events)] == expected


@pytest.mark.parametrize("measured", [False, True], ids=["A1", "A2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_scores_equal_the_partition_scores(case, measured):
    domain, predicates, values = CASES[case]
    schema, planner, matcher = build(domain, predicates, measured)

    scores = planner.rejection_scores(schema, attribute_indexes(matcher))

    assert scores == partition_rejection_scores(planner, matcher.profiles)
    assert matcher.plan.probe_order == partition_probe_order(planner, matcher.profiles)
    assert_oracle_matches(schema, matcher, values)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_tree_builds_the_reference_tree_and_matches_the_oracle(case):
    domain, predicates, values = CASES[case]
    profiles = profile_set(domain, predicates)
    matcher = TreeMatcher(profiles)

    assert matcher.tree == reference_build_tree(profiles)
    assert_oracle_matches(profiles.schema, matcher, values)


@pytest.mark.parametrize("measured", [False, True], ids=["A1", "A2"])
def test_continuous_scores_equal_the_partition_scores_to_rounding(measured):
    """On a continuous domain ``d_0`` sums the uncovered slabs' lengths,
    where the reference subtracts the covered ones from the domain size."""
    domain = ContinuousDomain(0.0, 10.0)
    predicates = [
        RangePredicate.between(1.1, 2.2),
        RangePredicate.between(2.2, 3.3, low_closed=False),
        RangePredicate.between(5.5, 7.7, high_closed=False),
        RangePredicate.at_most(0.3),
        RangePredicate.at_least(9.7),
        Equals(8.8),
        Equals(6.6),
    ]
    schema, planner, matcher = build(domain, predicates, measured)

    scores = planner.rejection_scores(schema, attribute_indexes(matcher))
    expected = partition_rejection_scores(planner, matcher.profiles)

    assert scores == pytest.approx(expected, rel=1e-12)
    assert 0 < scores["v"] < 1
    assert matcher.plan.probe_order == partition_probe_order(planner, matcher.profiles)
    assert_oracle_matches(schema, matcher, [0.0, 0.3, 1.1, 2.2, 2.5, 3.3, 4.0, 6.6, 7.7, 8.8, 10.0])
