"""Event-filtering algorithms.

Four matcher families, all implementing the same
:class:`~repro.matching.interfaces.Matcher` interface (including the batch
API ``match_batch``) and the same comparison-operation accounting:

* :class:`~repro.matching.naive.NaiveMatcher` — evaluate every profile
  (simple-algorithm baseline);
* :class:`~repro.matching.counting.CountingMatcher` — predicate counting
  with shared predicate evaluation (clustering-style baseline);
* :class:`~repro.matching.tree.TreeMatcher` — the profile-tree filter the
  paper improves with distribution-based reordering;
* :class:`~repro.matching.index.PredicateIndexMatcher` — counting over
  per-(attribute, operator) index buckets, planned by the
  selectivity-aware :class:`~repro.matching.index.IndexPlanner`.

The families the adaptive service can drive are declared in the
**engine registry** (:mod:`repro.matching.registry`): each registers a
factory and a cost estimator for its periodic re-optimisation, and
third-party families become selectable by registering an
:class:`~repro.matching.registry.EngineSpec` of their own.
"""

from repro.matching.counting import CountingMatcher
from repro.matching.index import (
    AttributePlan,
    IndexPlan,
    IndexPlanner,
    PredicateIndexMatcher,
)
from repro.matching.interfaces import Matcher, MatchResult, match_all, match_batch
from repro.matching.naive import NaiveMatcher
from repro.matching.registry import (
    EngineCandidate,
    EngineContext,
    EngineRegistry,
    EngineSpec,
    default_registry,
)
from repro.matching.statistics import FilterStatistics
from repro.matching.tree import (
    ProfileTree,
    SearchStrategy,
    TreeConfiguration,
    TreeMatcher,
    ValueOrder,
    build_tree,
)

__all__ = [
    "AttributePlan",
    "CountingMatcher",
    "EngineCandidate",
    "EngineContext",
    "EngineRegistry",
    "EngineSpec",
    "FilterStatistics",
    "IndexPlan",
    "IndexPlanner",
    "MatchResult",
    "Matcher",
    "NaiveMatcher",
    "PredicateIndexMatcher",
    "ProfileTree",
    "SearchStrategy",
    "TreeConfiguration",
    "TreeMatcher",
    "ValueOrder",
    "build_tree",
    "default_registry",
    "match_all",
    "match_batch",
]
