"""The shared (hash-consed) profile tree equals the unfolded one.

``build_tree`` builds each distinct subtree once and ``expected_tree_cost``
and the structural counts do their work once per distinct node; the
per-edge recursion and the depth-first walk they replaced live on in
:mod:`tree_reference` as the specification.  On random small workloads and
on the corpus the built tree must be *equal* to the unfolded one (dataclass
equality: ids, edge order and positions included), match identically, count
identically, and cost the same up to summation order.  The work guards at
the bottom count stored node objects, so a regression to per-edge
rebuilding fails without a clock.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_reference import (
    reference_build_tree,
    reference_expected_tree_cost,
    stored_node_count,
    unfolded_height,
    unfolded_leaf_count,
    unfolded_node_count,
)

from repro.analysis.cost_model import expected_tree_cost
from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.core.subranges import build_partitions
from repro.distributions.discrete import DiscreteDistribution
from repro.matching.tree.builder import build_tree
from repro.matching.tree.config import SearchStrategy, TreeConfiguration, ValueOrder
from repro.matching.tree.matcher import TreeMatcher
from repro.matching.tree.nodes import TreeEdge
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile, list_profiles

INTEGERS = IntegerDomain(0, 9)
LETTERS = DiscreteDomain("uvwxyz")
EVERYTHING = 10**9


def approx(value):
    """Costs may differ by summation order only."""
    return pytest.approx(value, rel=1e-9, abs=1e-12)


def assert_same_cost(actual, expected):
    assert actual.operations_per_event == approx(expected.operations_per_event)
    assert actual.per_level == approx(expected.per_level)
    assert actual.match_probability == approx(expected.match_probability)
    assert actual.expected_notifications == approx(expected.expected_notifications)
    assert actual.per_profile.keys() == expected.per_profile.keys()
    for profile_id, cost in expected.per_profile.items():
        assert actual.per_profile[profile_id] == approx(cost), profile_id


def assert_same_tree(profiles, configuration, distributions, events):
    partitions = build_partitions(profiles)
    tree = build_tree(profiles, configuration, partitions=partitions)
    reference = reference_build_tree(profiles, configuration, partitions=partitions)

    assert tree.root == reference.root
    assert tree.describe(max_edges=EVERYTHING) == reference.describe(max_edges=EVERYTHING)
    assert tree.node_count() == unfolded_node_count(reference.root)
    assert tree.leaf_count() == unfolded_leaf_count(reference.root)
    assert tree.height() == unfolded_height(reference.root)
    assert stored_node_count(tree.root) <= stored_node_count(reference.root)

    shared, unfolded = TreeMatcher(profiles), TreeMatcher(profiles)
    shared.adopt(tree, tree.configuration)
    unfolded.adopt(reference, reference.configuration)
    for event in events:
        ours, theirs = shared.match(event), unfolded.match(event)
        assert ours.matched_profile_ids == theirs.matched_profile_ids
        assert ours.operations == theirs.operations

    expected = reference_expected_tree_cost(reference, distributions)
    assert_same_cost(expected_tree_cost(tree, distributions), expected)
    # A tree assembled without sharing costs the same, just without the saving.
    assert_same_cost(expected_tree_cost(reference, distributions), expected)


@st.composite
def predicates(draw, domain):
    values = list(domain.values())
    kinds = ["eq", "one-of"] + (["range"] if domain is INTEGERS else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "eq":
        return Equals(draw(st.sampled_from(values)))
    if kind == "one-of":
        return OneOf(draw(st.lists(st.sampled_from(values), min_size=1, max_size=4)))
    low = draw(st.integers(0, 9))
    return RangePredicate.between(low, draw(st.integers(low, 9)))


@st.composite
def workloads(draw):
    """A small schema, profile set (possibly empty), configuration,
    event distributions (zero-probability values included) and events."""
    domains = draw(st.lists(st.sampled_from([INTEGERS, LETTERS]), min_size=1, max_size=4))
    schema = Schema([Attribute(f"a{i}", domain) for i, domain in enumerate(domains)])
    profiles = ProfileSet(schema)
    for index in range(draw(st.integers(0, 8))):
        constrained = draw(st.sets(st.sampled_from(schema.names)))
        profiles.add(
            Profile(
                f"P{index}",
                {name: draw(predicates(schema.attribute(name).domain)) for name in constrained},
            )
        )

    partitions = build_partitions(profiles)
    value_orders = {}
    for name in schema.names:
        count = len(partitions[name].subranges)
        if count and draw(st.booleans()):
            ranking = draw(st.permutations(range(count)))
            value_orders[name] = ValueOrder.from_ranking(name, ranking)
    configuration = TreeConfiguration(
        tuple(draw(st.permutations(schema.names))),
        value_orders,
        draw(st.sampled_from([SearchStrategy.LINEAR, SearchStrategy.BINARY])),
        "property",
    )

    distributions = {}
    for attribute in schema:
        values = list(attribute.domain.values())
        weights = draw(st.lists(st.integers(0, 5), min_size=len(values), max_size=len(values)))
        if not any(weights):
            weights[0] = 1
        distributions[attribute.name] = DiscreteDistribution(
            attribute.domain, dict(zip(values, weights))
        )
    events = [
        Event({a.name: draw(st.sampled_from(list(a.domain.values()))) for a in schema})
        for _ in range(draw(st.integers(1, 8)))
    ]
    return profiles, configuration, distributions, events


@given(workloads())
@settings(max_examples=150, deadline=None)
def test_shared_tree_equals_the_unfolded_reference(workload):
    assert_same_tree(*workload)


@pytest.mark.parametrize(
    "reverse, search, profile_count",
    # The reversed level order unfolds several times larger (the reference
    # is per edge), so it runs on half the subscriptions.
    [(False, SearchStrategy.LINEAR, 100), (True, SearchStrategy.BINARY, 50)],
    ids=["natural-linear", "reversed-binary"],
)
@pytest.mark.parametrize("name", list_profiles())
def test_corpus_trees_equal_the_unfolded_reference(name, reverse, search, profile_count):
    spec = get_profile(name).spec
    workload = build_workload(
        spec.with_counts(profile_count=min(spec.profile_count, profile_count))
    )
    schema = workload.spec.schema
    names = tuple(reversed(schema.names)) if reverse else tuple(schema.names)
    assert_same_tree(
        ProfileSet(schema, workload.profiles),
        TreeConfiguration(names, {}, search, "corpus"),
        workload.event_distributions,
        workload.events[:200],
    )


def test_hand_built_trees_are_counted_and_costed_per_identity():
    """Tests assemble ``TreeNode``s directly: one node object reused under
    two edges and two equal copies of it must give the unfolded answer."""
    profiles = ProfileSet(
        Schema([Attribute("a0", INTEGERS), Attribute("a1", INTEGERS)]),
        [
            Profile("P0", {"a0": OneOf([1, 3]), "a1": Equals(2)}),
            Profile("P1", {"a0": Equals(5), "a1": Equals(2)}),
        ],
    )
    built = reference_build_tree(profiles)
    one, three, five = built.root.edges
    assert one.child == three.child and one.child is not three.child
    reused = TreeEdge(three.subrange, one.child, three.probe_position, three.natural_position)
    edges = (one, reused, five)
    shared = replace(built, root=replace(built.root, edges=edges, natural_edges=edges))

    assert shared.root == built.root
    assert stored_node_count(built.root) == 7 and stored_node_count(shared.root) == 5
    assert (shared.node_count(), shared.leaf_count(), shared.height()) == (7, 3, 2)

    distributions = {
        name: DiscreteDistribution(INTEGERS, dict.fromkeys(range(1, 6), 1)) for name in ("a0", "a1")
    }
    expected = reference_expected_tree_cost(built, distributions)
    assert_same_cost(expected_tree_cost(shared, distributions), expected)
    assert_same_cost(expected_tree_cost(built, distributions), expected)


# ---------------------------------------------------------------------------
# Deterministic work guards: stored node objects, not seconds.
# ---------------------------------------------------------------------------


def shape(tree):
    """``(unfolded nodes, unfolded leaves, height, stored node objects)``.

    Taken before asserting: a failing assertion that mentions the tree makes
    pytest render its repr, which unfolds every shared subtree.
    """
    return (
        tree.node_count(),
        tree.leaf_count(),
        tree.height(),
        stored_node_count(tree.root),
    )


def test_aml_tree_stores_each_distinct_subtree_once():
    spec = get_profile("aml-transactions").spec.with_counts(profile_count=100)
    workload = build_workload(spec)
    nodes, _, _, stored = shape(build_tree(ProfileSet(workload.spec.schema, workload.profiles)))
    assert nodes == 41_645
    assert stored <= 2_000


def blow_up_profiles() -> ProfileSet:
    """The tree-blow-up shape: every profile is two wide, overlapping ranges
    and don't-care on the other six attributes."""
    names = [f"a{i}" for i in range(8)]
    profiles = ProfileSet(Schema([Attribute(name, IntegerDomain(0, 99)) for name in names]))
    for i in range(16):
        predicates = {}
        for j in range(2):
            low = (13 * i + 29 * j) % 75
            predicates[names[(i + j * (1 + i % 3)) % 8]] = RangePredicate.between(low, low + 25)
        profiles.add(Profile(f"P{i}", predicates))
    return profiles


def test_blow_up_workload_is_stored_far_below_its_unfolded_size():
    """Sharing is not a polynomial bound — distinct candidate sets can still
    be many — so this pins what is measured rather than promising one."""
    assert shape(build_tree(blow_up_profiles())) == (1_937_155, 1_550_535, 8, 5_294)
