"""The closed roster of matcher families.

The adaptive service drives one of three built-in matcher families,
selected by name:

* ``tree`` — the paper's profile tree, restructured via the
  :class:`~repro.selectivity.optimizer.TreeOptimizer`;
* ``index`` — the predicate-index counting matcher, replanned per
  structure (hash/interval/scan) via the
  :class:`~repro.matching.index.planner.IndexPlanner`;
* ``naive`` — the sequential per-profile scan baseline, which never
  re-optimises (the end-to-end benchmark's verifier replays every
  workload through it).

``"auto"`` is not a family: it names the ``index`` family, the
``FilterService`` default.  Every family has one build function
(:data:`BUILDERS`); ``tree`` and ``index`` also have one re-optimisation
function (:data:`REOPTIMISERS`) that prices a restructure or replan of
the running matcher and, when applied, edits that matcher in place — an
engine never leaves its family.  The table is consulted at construction
and re-optimisation points only, never on the per-event hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping

from repro.core.errors import MatchingError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.profiles import ProfileSet
    from repro.distributions.base import Distribution
    from repro.matching.index.matcher import PredicateIndexMatcher
    from repro.matching.interfaces import Matcher
    from repro.matching.tree.matcher import TreeMatcher
    from repro.service.adaptive import AdaptationPolicy

__all__ = [
    "AUTO_ENGINE",
    "BUILDERS",
    "ENGINES",
    "REOPTIMISERS",
    "Candidate",
    "engine_family",
]

#: The name of the ``index`` family under which ``FilterService`` runs by
#: default.
AUTO_ENGINE = "auto"

#: Every selectable engine name: the three families, then ``"auto"``.
ENGINES = ("tree", "index", "naive", AUTO_ENGINE)


def engine_family(engine: str) -> str:
    """Return the family an engine name selects (``"auto"``: ``"index"``).

    An unknown name raises with the selectable names listed.
    """
    if engine not in ENGINES:
        raise MatchingError(
            f"unknown engine {engine!r}; registered engines: {', '.join(ENGINES)}"
        )
    return "index" if engine == AUTO_ENGINE else engine


@dataclass(frozen=True)
class Candidate:
    """A family's priced re-optimisation of its running matcher.

    Pricing is side-effect free; ``apply()`` edits the running matcher in
    place (a tree restructure or an index replan).
    """

    #: Predicted comparison operations per event of the running matcher.
    predicted_current: float
    #: Predicted comparison operations per event after ``apply()``.
    cost: float
    label: str
    apply: Callable[[], None]


# The functions import their machinery lazily: this module stays
# import-light (``repro.matching`` pulls it in) and free of cycles with
# ``repro.selectivity`` / ``repro.analysis``.


def _build_tree(profiles: "ProfileSet", policy: "AdaptationPolicy") -> "Matcher":
    from repro.matching.tree.matcher import TreeMatcher

    return TreeMatcher(profiles)


def _build_index(profiles: "ProfileSet", policy: "AdaptationPolicy") -> "Matcher":
    from repro.matching.index.matcher import PredicateIndexMatcher
    from repro.matching.index.planner import IndexPlanner

    planner = IndexPlanner(attribute_measure=policy.attribute_measure)
    return PredicateIndexMatcher(profiles, planner=planner)


def _build_naive(profiles: "ProfileSet", policy: "AdaptationPolicy") -> "Matcher":
    from repro.matching.naive import NaiveMatcher

    return NaiveMatcher(profiles)


def _reoptimise_tree(
    matcher: "TreeMatcher",
    policy: "AdaptationPolicy",
    distributions: Mapping[str, "Distribution"],
) -> Candidate | None:
    """Cost the optimizer's restructure of a running tree under ``distributions``.

    The built tree travels with the candidate so an applied decision adopts
    it instead of rebuilding.
    """
    from repro.analysis.cost_model import expected_tree_cost
    from repro.core.errors import ReproError
    from repro.matching.tree.builder import build_tree
    from repro.selectivity.optimizer import TreeOptimizer

    # Workloads the tree model cannot express (the optimiser or the
    # builder fails) simply skip the check.
    try:
        partitions = dict(matcher.partitions())
        optimizer = TreeOptimizer(matcher.profiles, distributions, partitions=partitions)
        configuration = optimizer.configuration(
            value_measure=policy.value_measure,
            attribute_measure=policy.attribute_measure,
            search=policy.search,
        )
        predicted_current = expected_tree_cost(matcher.tree, distributions).operations_per_event
        # A converged tree: the optimiser's answer is what is already running
        # (labels aside), so there is nothing to build or to cost again.
        if configuration == replace(matcher.configuration, label=configuration.label):
            tree, cost = matcher.tree, predicted_current
        else:
            tree = build_tree(matcher.profiles, configuration, partitions=partitions)
            cost = expected_tree_cost(tree, distributions).operations_per_event
    except ReproError:
        return None

    def apply() -> None:
        # Install the tree already built for costing — no second build.
        matcher.adopt(tree, configuration)

    return Candidate(predicted_current, cost, f"tree[{configuration.label}]", apply)


def _reoptimise_index(
    matcher: "PredicateIndexMatcher",
    policy: "AdaptationPolicy",
    distributions: Mapping[str, "Distribution"],
) -> Candidate:
    """Cost a replan of a running index matcher under ``distributions``.

    A recost of the live buckets prices both sides; an applied decision
    replans (rebuilds) in place, keeping the matcher object and its
    kernel stats.
    """
    recosted = matcher.recost_plans(distributions)
    cost = sum(plan.chosen_cost for plan in recosted.values())
    return Candidate(
        matcher.plan.cost_under(recosted),
        cost,
        "index[P_e estimated]",
        lambda: matcher.replan(distributions),
    )


#: One build function per family: ``(profiles, policy) -> matcher``.
BUILDERS = {"tree": _build_tree, "index": _build_index, "naive": _build_naive}

#: The re-optimisation function of each family that has one:
#: ``(running matcher, policy, distributions) -> Candidate``, or ``None``
#: to skip a check.  ``naive`` has none and schedules no checks.
REOPTIMISERS = {"tree": _reoptimise_tree, "index": _reoptimise_index}
