"""repro — reproduction of "Efficient Distribution-Based Event Filtering".

A content-based event notification service (ENS) with a profile-tree filter
whose value and attribute orders adapt to the observed event and profile
distributions, after Hinze & Bittner (ICDCSW 2002).

Sub-packages
------------
``repro.core``
    Events, profiles, predicates, attribute domains and sub-range partitions.
``repro.distributions``
    Event/profile distributions, projection onto sub-ranges, estimation.
``repro.matching``
    Naive, counting, tree-based and predicate-index matchers with operation
    accounting and a batch filtering API.
``repro.selectivity``
    Value measures V1-V3, attribute measures A1-A3, the tree optimizer.
``repro.analysis``
    The analytical cost model (Eq. 2) and the paper's worked examples.
``repro.service``
    The event notification service: broker, subscriptions, adaptive
    re-optimisation and a multi-broker routing overlay with link latency.
``repro.api``
    The stable client facade: :class:`~repro.api.FilterService`, durable
    subscription handles, the fluent profile builder (``where``) and the
    pluggable engine registry.
``repro.workloads``
    Workload specs, generators and the paper's application scenarios.
``repro.experiments``
    The evaluation harness regenerating every figure of the paper.
"""

from repro.matching import (
    CountingMatcher,
    Matcher,
    MatchResult,
    NaiveMatcher,
    PredicateIndexMatcher,
    TreeMatcher,
    match_all,
    match_batch,
)

__version__ = "1.2.0"

__all__ = [
    "CountingMatcher",
    "MatchResult",
    "Matcher",
    "NaiveMatcher",
    "PredicateIndexMatcher",
    "TreeMatcher",
    "__version__",
    "match_all",
    "match_batch",
]
