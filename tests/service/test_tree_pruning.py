"""The ``auto`` arbitration prunes the tree candidate on its root-level cost.

Unless the tree is running, the tree family prices the optimiser's
configuration cut after level 0 and abstains when that lower bound cannot
win the arbitration.  The bound is exact (the property test lives in
``tests/matching/test_tree_sharing.py``), so pruning moves no decision:
the same corpus runs with a ``could_win`` that never prunes record the
same decisions and match the same ids.  The work guards count full-depth
``build_tree`` calls, so a regression to building every candidate fails
without a clock.
"""

from dataclasses import replace

import pytest

import repro.matching.tree.builder as builder
from repro.core.profiles import ProfileSet
from repro.matching.registry import EngineSpec, _tree_candidate, builtin_specs
from repro.matching.tree.matcher import TreeMatcher
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine
from repro.workloads import build_workload
from repro.workloads.profiles import get_profile

SUBSCRIPTIONS = 100
BATCH = 250


@pytest.fixture
def full_builds(monkeypatch):
    """Count ``build_tree`` calls that build every level (no ``levels`` cut)."""
    calls = []
    build_tree = builder.build_tree

    def counting_build_tree(*args, **kwargs):
        if kwargs.get("levels") is None:
            calls.append(args)
        return build_tree(*args, **kwargs)

    # The tree family looks the builder up by name at every check.
    monkeypatch.setattr(builder, "build_tree", counting_build_tree)
    return calls


def never_pruning_specs() -> list[EngineSpec]:
    """The built-in roster, its tree family told that any cost could win."""

    def unpruned(ctx, matcher, distributions, could_win):
        return _tree_candidate(ctx, matcher, distributions, lambda cost: True)

    return [
        replace(spec, candidate=unpruned) if spec.name == "tree" else spec
        for spec in builtin_specs()
    ]


def run_auto(name: str, events: int | None = None):
    """Drive ``auto`` over a corpus profile at 100 subscriptions in
    250-event batches on the process roster; return the engine and every
    matched id tuple."""
    profile = get_profile(name)
    workload = build_workload(profile.spec.with_counts(profile_count=SUBSCRIPTIONS))
    policy = AdaptationPolicy(engine="auto", **profile.engine.policy_overrides())
    engine = AdaptiveFilterEngine(
        ProfileSet(workload.spec.schema, workload.profiles), policy=policy
    )
    stream = list(workload.events)[:events]
    matched = []
    for start in range(0, len(stream), BATCH):
        results = engine.match_batch(stream[start : start + BATCH])
        matched.extend(result.matched_profile_ids for result in results)
    return engine, matched


def decisions(engine: AdaptiveFilterEngine) -> list:
    """Every record field but the two wall-clock ones."""
    return [
        replace(record, check_seconds=None, measured_wall_seconds=None)
        for record in engine.adaptations()
    ]


@pytest.mark.parametrize(
    "name, prunes",
    [
        ("aml-transactions", True),
        ("mixed-structure", True),
        # The root bound undercuts the winner here: the tree is built and
        # priced (and on smart-building installed) exactly as before.
        ("facility", False),
        ("smart-building", False),
    ],
)
def test_pruning_changes_no_decision(name, prunes, full_builds, engine_roster):
    pruned, pruned_matched = run_auto(name)
    pruned_builds = len(full_builds)
    full_builds.clear()
    engine_roster(never_pruning_specs())
    unpruned, unpruned_matched = run_auto(name)
    unpruned_builds = len(full_builds)

    assert decisions(pruned) and decisions(pruned) == decisions(unpruned)
    assert pruned_matched == unpruned_matched
    if prunes:
        assert pruned_builds < unpruned_builds
    else:
        assert pruned_builds == unpruned_builds > 0


def test_aml_checks_build_no_losing_tree(full_builds):
    """aml-transactions@100, 2 000 events: five checks, and only the first
    builds a tree.  There the incumbent index plan (41.65 ops/event) is the
    best priced so far and the root bound (41.08) undercuts it; the hybrid
    plan that wins (36.69) is priced after the tree, in roster order.  From
    the second check on the running hybrid plan is priced first and the
    bound loses.  Without the bound every check builds (five)."""
    engine, _ = run_auto("aml-transactions", events=2_000)
    records = engine.adaptations()
    assert len(records) == 5
    assert {record.engine for record in records} == {"hybrid"}
    assert len(full_builds) == 1


def test_a_winning_tree_is_still_built_and_installed(full_builds):
    engine, _ = run_auto("smart-building")
    assert full_builds, "the tree candidate was never built"
    assert isinstance(engine.matcher, TreeMatcher)
    assert engine.adaptations()[0].engine == "tree"
