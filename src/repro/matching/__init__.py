"""Event-filtering algorithms.

Four matcher families, all implementing the same
:class:`~repro.matching.interfaces.Matcher` interface (including the batch
API ``match_batch``) and the same comparison-operation accounting:

* :class:`~repro.matching.naive.NaiveMatcher` — evaluate every profile
  (simple-algorithm baseline);
* :class:`~repro.matching.counting.CountingMatcher` — predicate counting
  with shared predicate evaluation (clustering-style baseline, kept as a
  test oracle);
* :class:`~repro.matching.tree.TreeMatcher` — the profile-tree filter the
  paper improves with distribution-based reordering;
* :class:`~repro.matching.index.PredicateIndexMatcher` — counting over
  per-(attribute, operator) index buckets, planned by the
  selectivity-aware :class:`~repro.matching.index.IndexPlanner`.

The adaptive service drives three of them — ``tree``, ``index`` and
``naive`` — from the closed roster of :mod:`repro.matching.registry`:
one build function per family, and one re-optimisation function each
for ``tree`` and ``index``.
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
    "match_all",
    "match_batch",
]
