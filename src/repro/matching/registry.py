"""Pluggable roster of matcher families (the engine registry).

The adaptive service used to hard-code its roster as a string tuple
(``ENGINES = ("tree", "index", "auto")``) validated in two places and
switch on ``isinstance`` checks whenever it needed family-specific
behaviour.  This module replaces that with a declarative registry: every
matcher family registers one :class:`EngineSpec` bundling

* a **factory** building a fresh matcher for a profile set,
* a **cost estimator** (:attr:`EngineSpec.candidate`) producing the
  family's best candidate — predicted comparisons/event plus an install
  closure — under given event distributions, which is what the ``auto``
  arbitration of :class:`~repro.service.adaptive.AdaptiveFilterEngine`
  compares across families,
* a same-family **re-optimisation hook** (:attr:`EngineSpec.reoptimize`)
  for the fixed engines (a tree restructure, an index replan), and
* **capability flags** (:class:`EngineCapabilities`) the service layer
  consults instead of hard-coding family names: whether subscription
  churn is incremental, whether a columnar batch kernel exists.

``"auto"`` is not a family: it is the reserved arbitration mode that
pits every registered family's candidate against the current matcher.
:func:`default_registry` returns the process-wide registry, pre-populated
with the built-in ``tree``, ``index`` and ``hybrid`` families, the
partition-parallel ``sharded`` family, and the ``counting`` and ``naive``
baselines
(``sharded`` and the baselines are selectable by name, but — with no cost
estimator — never part of the ``auto`` arbitration); third-party engines
become selectable by registering a spec — no change to ``repro.service``
required::

    from repro.matching.registry import EngineSpec, default_registry

    default_registry().register(
        EngineSpec(name="bitmap", factory=lambda ctx: BitmapMatcher(ctx.profiles))
    )
    Broker(schema, adaptation_policy=AdaptationPolicy(engine="bitmap"))

A custom :class:`EngineRegistry` can also be carried per policy
(:attr:`repro.service.adaptive.AdaptationPolicy.registry`), which keeps
experiment-local engines out of the global roster.  The registry is
consulted at construction and re-optimisation points only — never on the
per-event hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.core.errors import MatchingError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.profiles import ProfileSet
    from repro.distributions.base import Distribution
    from repro.matching.index.planner import IndexPlanner
    from repro.matching.interfaces import Matcher
    from repro.matching.tree.config import SearchStrategy, TreeConfiguration
    from repro.selectivity.attribute_measures import AttributeMeasure
    from repro.selectivity.value_measures import ValueMeasure

__all__ = [
    "AUTO_ENGINE",
    "EngineCandidate",
    "EngineCapabilities",
    "EngineContext",
    "EngineRegistry",
    "EngineSpec",
    "ReoptimisationProposal",
    "default_registry",
]

#: Reserved engine name selecting cross-family arbitration instead of one
#: fixed family.  Not registrable.
AUTO_ENGINE = "auto"


@dataclass(frozen=True)
class EngineCapabilities:
    """What a matcher family can do, for the service layer to consult."""

    #: ``add_profile``/``remove_profile`` apply deltas instead of
    #: rebuilding, so subscription churn is cheap.
    incremental_maintenance: bool = False
    #: ``match_batch`` runs a dedicated batch kernel (columnar execution)
    #: rather than a per-event loop.
    batch_kernel: bool = False


@dataclass(frozen=True)
class EngineContext:
    """Everything a spec callback may need to build or cost a matcher.

    Built by the adaptive engine from its profile set and policy; carried
    into :attr:`EngineSpec.factory` / :attr:`EngineSpec.candidate` /
    :attr:`EngineSpec.reoptimize` so specs never import the service layer.
    """

    profiles: "ProfileSet"
    attribute_measure: "AttributeMeasure"
    value_measure: "ValueMeasure"
    search: "SearchStrategy"
    initial_configuration: "TreeConfiguration | None" = None
    #: Effective columnar-batch cutover for families with a batch kernel
    #: (``None`` keeps the kernel's module default).  Resolved from
    #: ``AdaptationPolicy.min_columnar_batch`` falling back to the
    #: registry entry's :attr:`EngineSpec.min_columnar_batch`.
    min_columnar_batch: int | None = None
    #: Shard count for partition-parallel families (today: ``sharded``).
    #: ``None`` leaves the family on its cores-based default
    #: (:func:`repro.matching.sharded.default_shard_count`); resolved
    #: from :attr:`repro.service.adaptive.AdaptationPolicy.shard_count`.
    shard_count: int | None = None


@dataclass(frozen=True)
class EngineCandidate:
    """One family's best candidate under given event distributions.

    ``install()`` makes the candidate the live matcher — mutating the
    current matcher in place (same-family replan/restructure) or building
    a new one (family switch) — and returns it.  Costing must therefore
    be side-effect free until ``install`` runs.
    """

    family: str
    #: Predicted comparison operations per event (the paper's currency).
    cost: float
    label: str
    install: Callable[[], "Matcher"]
    #: Predicted cost of the *running* matcher, when costing this
    #: candidate already produced it (the candidate is a recost of the
    #: running matcher's own structures).  The arbitration reads it for a
    #: family without an :attr:`EngineSpec.current_cost` hook, so one
    #: costing pass serves both sides of the comparison.
    predicted_current: float | None = None


@dataclass(frozen=True)
class ReoptimisationProposal:
    """A same-family re-optimisation decision, before thresholding.

    Returned by :attr:`EngineSpec.reoptimize`; the adaptive engine applies
    its ``improvement_threshold`` economics and calls ``install()`` only
    when the predicted improvement clears it.
    """

    predicted_current: float
    predicted_candidate: float
    label: str
    install: Callable[[], "Matcher"]


@dataclass(frozen=True)
class EngineSpec:
    """Registration record of one matcher family."""

    #: Family name users select via ``AdaptationPolicy(engine=...)``.
    name: str
    #: Build a fresh matcher over ``ctx.profiles``.
    factory: Callable[[EngineContext], "Matcher"]
    capabilities: EngineCapabilities = field(default_factory=EngineCapabilities)
    #: ``isinstance``-style ownership test mapping a live matcher back to
    #: its family (used by the arbitration to know what is running).
    owns: Callable[["Matcher"], bool] | None = None
    #: Attribute measures the family can rank by (``None`` = any).
    supported_measures: tuple["AttributeMeasure", ...] | None = None
    #: Cost the family's best candidate under distributions (``None``:
    #: the family does not participate in the ``auto`` arbitration).
    candidate: (
        Callable[
            [EngineContext, "Matcher | None", Mapping[str, "Distribution"]],
            EngineCandidate | None,
        ]
        | None
    ) = None
    #: Optional calibration-aware costing hook.  When set, the ``auto``
    #: arbitration calls it instead of :attr:`candidate`, passing the
    #: engine's :class:`~repro.analysis.calibration.CostCalibrator` so the
    #: family can apply (or refine) its own correction.  It returns
    #: ``(candidate, calibrated_cost)`` — the candidate carries the *raw*
    #: model cost (recorded on the adaptation record), while
    #: ``calibrated_cost`` is the corrected number the arbitration
    #: compares — or ``None`` to abstain.  When the hook is ``None`` the
    #: arbitration falls back to ``candidate`` and scales its cost by the
    #: calibrator's learned per-family factor.
    calibrated_candidate: (
        Callable[
            [EngineContext, "Matcher | None", Mapping[str, "Distribution"], object],
            "tuple[EngineCandidate, float] | None",
        ]
        | None
    ) = None
    #: Predicted comparisons/event of the *currently running* matcher.
    #: ``None`` defers to the :attr:`EngineCandidate.predicted_current` of
    #: the family's own candidate (the built-in index and hybrid families:
    #: their candidate is a recost of the running buckets, and costing
    #: them a second time for this hook doubled every check).
    current_cost: Callable[["Matcher", Mapping[str, "Distribution"]], float] | None = None
    #: Same-family re-optimisation hook for the fixed engines (``None``:
    #: the engine filters without periodic restructuring).
    reoptimize: (
        Callable[
            [EngineContext, "Matcher", Mapping[str, "Distribution"]],
            ReoptimisationProposal | None,
        ]
        | None
    ) = None
    #: Tie-break and start preference of the ``auto`` arbitration: lower
    #: ranks are preferred on equal cost and chosen as the warmup family.
    auto_rank: int = 100
    #: Default columnar-batch cutover of the family's batch kernel, when
    #: it has one (``None`` = the kernel's own module default).  A policy
    #: ``min_columnar_batch`` overrides this per engine instance.
    min_columnar_batch: int | None = None
    description: str = ""

    def matcher_owned(self, matcher: "Matcher") -> bool:
        """Return ``True`` when ``matcher`` belongs to this family."""
        return self.owns is not None and self.owns(matcher)


class EngineRegistry:
    """Mutable name → :class:`EngineSpec` roster."""

    def __init__(self, specs: "tuple[EngineSpec, ...] | list[EngineSpec]" = ()) -> None:
        self._specs: dict[str, EngineSpec] = {}
        for spec in specs:
            self.register(spec)

    # -- registration -----------------------------------------------------------
    def register(self, spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
        """Add a family; ``replace=True`` overrides an existing entry."""
        if spec.name == AUTO_ENGINE:
            raise MatchingError(
                f"{AUTO_ENGINE!r} is the reserved arbitration mode, not a registrable family"
            )
        if not replace and spec.name in self._specs:
            raise MatchingError(
                f"engine {spec.name!r} is already registered; pass replace=True to override"
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> EngineSpec:
        """Remove and return a family's spec."""
        try:
            return self._specs.pop(name)
        except KeyError as exc:
            raise MatchingError(f"engine {name!r} is not registered") from exc

    # -- lookup -----------------------------------------------------------------
    def spec(self, name: str) -> EngineSpec:
        """Return the spec for ``name`` (helpful error on a miss)."""
        try:
            return self._specs[name]
        except KeyError as exc:
            raise MatchingError(
                f"unknown engine {name!r}; registered engines: "
                f"{', '.join(self.engine_names())}"
            ) from exc

    def validate_engine(self, name: str) -> None:
        """Raise unless ``name`` is a registered family or ``"auto"``."""
        if name != AUTO_ENGINE:
            self.spec(name)

    def names(self) -> tuple[str, ...]:
        """Return the registered family names, in registration order."""
        return tuple(self._specs)

    def engine_names(self) -> tuple[str, ...]:
        """Return every selectable engine name (families + ``"auto"``)."""
        return tuple(self._specs) + (AUTO_ENGINE,)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[EngineSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    # -- arbitration support ----------------------------------------------------
    def arbitrating_specs(self) -> list[EngineSpec]:
        """Return the families that cost candidates, in ``auto_rank`` order."""
        specs = [spec for spec in self._specs.values() if spec.candidate is not None]
        specs.sort(key=lambda spec: spec.auto_rank)
        return specs

    def auto_start(self) -> EngineSpec:
        """Return the family ``engine="auto"`` starts on (cheapest build)."""
        specs = self.arbitrating_specs()
        if not specs:
            raise MatchingError(
                "the auto engine needs at least one registered family with a "
                f"cost estimator; registered: {', '.join(self.names()) or '(none)'}"
            )
        return specs[0]

    def owner_of(self, matcher: "Matcher") -> EngineSpec | None:
        """Return the spec whose family owns ``matcher`` (``None``: unknown)."""
        for spec in self._specs.values():
            if spec.matcher_owned(matcher):
                return spec
        return None

    def copy(self) -> "EngineRegistry":
        """Return an independent registry with the same specs."""
        return EngineRegistry(tuple(self._specs.values()))


# -- built-in families -----------------------------------------------------------
#
# The callbacks import their machinery lazily: the registry module stays
# import-light (``repro.matching`` pulls it in) and free of cycles with
# ``repro.selectivity`` / ``repro.analysis``.


def _tree_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.tree.matcher import TreeMatcher

    return TreeMatcher(ctx.profiles, ctx.initial_configuration)


def _tree_owns(matcher: "Matcher") -> bool:
    from repro.matching.tree.matcher import TreeMatcher

    return isinstance(matcher, TreeMatcher)


def _tree_current_cost(matcher: "Matcher", distributions) -> float:
    from repro.analysis.cost_model import expected_tree_cost

    return expected_tree_cost(matcher.tree, distributions).operations_per_event


def _tree_build_candidate(ctx: EngineContext, partitions, distributions):
    """Cost the optimizer's candidate tree under ``distributions``.

    Shared by the pure-tree re-optimisation and the ``auto`` arbitration
    so both use one costing recipe.  Returns ``(configuration, tree,
    operations_per_event)``; the built tree is returned so an applied
    decision can adopt it instead of rebuilding.
    """
    from repro.analysis.cost_model import expected_tree_cost
    from repro.matching.tree.builder import build_tree
    from repro.selectivity.optimizer import TreeOptimizer

    partitions = dict(partitions)
    optimizer = TreeOptimizer(ctx.profiles, distributions, partitions=partitions)
    configuration = optimizer.configuration(
        value_measure=ctx.value_measure,
        attribute_measure=ctx.attribute_measure,
        search=ctx.search,
    )
    tree = build_tree(ctx.profiles, configuration, partitions=partitions)
    cost = expected_tree_cost(tree, distributions).operations_per_event
    return configuration, tree, cost


def _tree_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions
) -> EngineCandidate | None:
    from repro.core.errors import ReproError
    from repro.core.subranges import build_partitions
    from repro.matching.tree.matcher import TreeMatcher

    # Workloads the tree model cannot express (partition construction
    # fails) simply leave the family out of the arbitration.
    try:
        if isinstance(matcher, TreeMatcher):
            partitions = matcher.partitions()
        else:
            partitions = build_partitions(ctx.profiles)
        configuration, tree, cost = _tree_build_candidate(ctx, partitions, distributions)
    except ReproError:
        return None

    def install() -> "Matcher":
        if isinstance(matcher, TreeMatcher):
            # Install the tree already built for costing — no second build.
            matcher.adopt(tree, configuration)
            return matcher
        return TreeMatcher.from_built(ctx.profiles, tree, configuration)

    return EngineCandidate("tree", cost, f"tree[{configuration.label}]", install)


def _tree_reoptimize(
    ctx: EngineContext, matcher: "Matcher", distributions
) -> ReoptimisationProposal | None:
    configuration, tree, cost = _tree_build_candidate(
        ctx, matcher.partitions(), distributions
    )
    predicted_current = _tree_current_cost(matcher, distributions)

    def install() -> "Matcher":
        matcher.adopt(tree, configuration)
        return matcher

    return ReoptimisationProposal(predicted_current, cost, configuration.label, install)


def _index_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.index.matcher import PredicateIndexMatcher
    from repro.matching.index.planner import IndexPlanner

    return PredicateIndexMatcher(
        ctx.profiles,
        planner=IndexPlanner(attribute_measure=ctx.attribute_measure),
        min_columnar_batch=ctx.min_columnar_batch,
    )


def _index_owns(matcher: "Matcher") -> bool:
    from repro.matching.index.matcher import PredicateIndexMatcher

    # A hybrid-planned matcher is the same class with a different planner
    # mode; it belongs to the ``hybrid`` family.
    return isinstance(matcher, PredicateIndexMatcher) and not matcher.planner.hybrid


def _index_replanned(ctx: EngineContext, distributions, attribute_measure) -> "Matcher":
    from repro.matching.index.matcher import PredicateIndexMatcher
    from repro.matching.index.planner import IndexPlanner

    return PredicateIndexMatcher(
        ctx.profiles,
        planner=IndexPlanner(distributions, attribute_measure=attribute_measure),
        min_columnar_batch=ctx.min_columnar_batch,
    )


def _index_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions
) -> EngineCandidate | None:
    from repro.matching.index.planner import IndexPlanner

    predicted_current = None
    if _index_owns(matcher):
        # A cheap recost of the live buckets — one pass gives both the
        # candidate's cost and the current choices' cost; an applied
        # decision replans (rebuilds) in place, keeping the matcher
        # object and its stats.
        recosted = matcher.recost_plans(distributions)
        cost = sum(plan.chosen_cost for plan in recosted.values())
        predicted_current = matcher.plan.cost_under(recosted)

        def install() -> "Matcher":
            matcher.replan(distributions)
            return matcher

    else:
        # Bucket-free estimate: cost the family without building it.
        plans = IndexPlanner(
            distributions, attribute_measure=ctx.attribute_measure
        ).plan_profiles(ctx.profiles)
        cost = sum(plan.chosen_cost for plan in plans.values())

        def install() -> "Matcher":
            return _index_replanned(ctx, distributions, ctx.attribute_measure)

    return EngineCandidate(
        "index", cost, "index[P_e estimated]", install, predicted_current=predicted_current
    )


def _index_reoptimize(
    ctx: EngineContext, matcher: "Matcher", distributions
) -> ReoptimisationProposal | None:
    """Replan the index buckets from the history.

    One cheap recosting pass yields both sides of the comparison —
    predicted cost of the *current* strategy choices vs a fresh
    distribution-aware plan over the same buckets; the replanned matcher
    is only built when the improvement is applied, mirroring the tree
    path's restructuring economics.
    """
    recosted = matcher.recost_plans(distributions)
    current_plan = matcher.plan
    predicted_current = 0.0
    predicted_candidate = 0.0
    for attribute, candidate_plan in recosted.items():
        attribute_plan = current_plan.plan_for(attribute)
        current_uses_index = (
            attribute_plan.use_index if attribute_plan is not None else candidate_plan.use_index
        )
        predicted_current += (
            candidate_plan.index_cost if current_uses_index else candidate_plan.scan_cost
        )
        predicted_candidate += candidate_plan.chosen_cost
    indexed = sum(1 for plan in recosted.values() if plan.use_index)

    def install() -> "Matcher":
        return _index_replanned(ctx, distributions, matcher.planner.attribute_measure)

    return ReoptimisationProposal(
        predicted_current,
        predicted_candidate,
        f"index[{indexed} indexed, P_e estimated]",
        install,
    )


def _hybrid_planner(ctx: EngineContext, distributions=None) -> "IndexPlanner":
    from repro.matching.index.planner import IndexPlanner

    return IndexPlanner(
        distributions, attribute_measure=ctx.attribute_measure, hybrid=True
    )


def _hybrid_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.index.matcher import PredicateIndexMatcher

    return PredicateIndexMatcher(
        ctx.profiles,
        planner=_hybrid_planner(ctx),
        min_columnar_batch=ctx.min_columnar_batch,
    )


def _hybrid_owns(matcher: "Matcher") -> bool:
    from repro.matching.index.matcher import PredicateIndexMatcher

    return isinstance(matcher, PredicateIndexMatcher) and matcher.planner.hybrid


def _hybrid_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions
) -> EngineCandidate | None:
    predicted_current = None
    if _hybrid_owns(matcher):
        # Same recipe as the index family: recost the live buckets once
        # (the hybrid planner picks per-structure minima), replan in place.
        recosted = matcher.recost_plans(distributions)
        cost = sum(plan.chosen_cost for plan in recosted.values())
        predicted_current = matcher.plan.cost_under(recosted)

        def install() -> "Matcher":
            matcher.replan(distributions)
            return matcher

    else:
        plans = _hybrid_planner(ctx, distributions).plan_profiles(ctx.profiles)
        cost = sum(plan.chosen_cost for plan in plans.values())

        def install() -> "Matcher":
            from repro.matching.index.matcher import PredicateIndexMatcher

            return PredicateIndexMatcher(
                ctx.profiles,
                planner=_hybrid_planner(ctx, distributions),
                min_columnar_batch=ctx.min_columnar_batch,
            )

    return EngineCandidate(
        "hybrid", cost, "hybrid[P_e estimated]", install, predicted_current=predicted_current
    )


def _hybrid_calibrated_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions, calibrator
) -> "tuple[EngineCandidate, float] | None":
    """Score the hybrid candidate, borrowing the index factor when new.

    The hybrid family shares the index family's cost model and executor,
    so until the calibrator has measured a hybrid interval directly, the
    index family's learned correction is the best available estimate.
    Without the fallback a never-run hybrid would carry the neutral
    factor 1.0 and win arbitrations against an honestly-calibrated index
    plan it cannot beat (the two produce identical plans on homogeneous
    workloads).
    """
    candidate = _hybrid_candidate(ctx, matcher, distributions)
    if candidate is None:
        return None
    family = "hybrid" if calibrator.has_observed("hybrid") else "index"
    return candidate, candidate.cost * calibrator.factor(family)


def _hybrid_reoptimize(
    ctx: EngineContext, matcher: "Matcher", distributions
) -> ReoptimisationProposal | None:
    """Replan the hybrid matcher's buckets from the history.

    One recosting pass yields both sides: the current side prices the
    *current* per-structure choices at the recosted component costs, the
    candidate side takes each attribute's component-wise minimum.
    """
    recosted = matcher.recost_plans(distributions)
    predicted_current = matcher.plan.cost_under(recosted)
    predicted_candidate = sum(plan.chosen_cost for plan in recosted.values())
    indexed = sum(1 for plan in recosted.values() if plan.use_hash or plan.use_interval)
    mixed = sum(1 for plan in recosted.values() if plan.is_hybrid)

    def install() -> "Matcher":
        matcher.replan(distributions)
        return matcher

    return ReoptimisationProposal(
        predicted_current,
        predicted_candidate,
        f"hybrid[{indexed} indexed, {mixed} mixed, P_e estimated]",
        install,
    )


def _sharded_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.index.planner import IndexPlanner
    from repro.matching.sharded.matcher import ShardedMatcher

    return ShardedMatcher(
        ctx.profiles,
        shard_count=ctx.shard_count,
        planner=IndexPlanner(attribute_measure=ctx.attribute_measure),
        min_columnar_batch=ctx.min_columnar_batch,
    )


def _sharded_owns(matcher: "Matcher") -> bool:
    from repro.matching.sharded.matcher import ShardedMatcher

    return isinstance(matcher, ShardedMatcher)


def _sharded_current_cost(matcher: "Matcher", distributions) -> float:
    return matcher.estimated_cost(distributions)


def _sharded_reoptimize(
    ctx: EngineContext, matcher: "Matcher", distributions
) -> ReoptimisationProposal | None:
    """Recost every shard's buckets and propose one collective replan.

    Folds the per-shard recosting passes (the same recipe as the index
    family's :func:`_index_reoptimize`, applied per shard) into one
    proposal: both predicted costs are sums over shards, and installing
    replans every shard under the shared distributions.
    """
    predicted_current = 0.0
    predicted_candidate = 0.0
    indexed = 0
    for shard in matcher.shards:
        recosted = shard.recost_plans(distributions)
        current_plan = shard.plan
        for attribute, candidate_plan in recosted.items():
            attribute_plan = current_plan.plan_for(attribute)
            current_uses_index = (
                attribute_plan.use_index
                if attribute_plan is not None
                else candidate_plan.use_index
            )
            predicted_current += (
                candidate_plan.index_cost if current_uses_index else candidate_plan.scan_cost
            )
            predicted_candidate += candidate_plan.chosen_cost
        indexed += sum(1 for plan in recosted.values() if plan.use_index)

    def install() -> "Matcher":
        matcher.replan(distributions)
        return matcher

    return ReoptimisationProposal(
        predicted_current,
        predicted_candidate,
        f"sharded[{matcher.shard_count} shards, {indexed} indexed, P_e estimated]",
        install,
    )


def _counting_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.counting import CountingMatcher

    return CountingMatcher(ctx.profiles)


def _counting_owns(matcher: "Matcher") -> bool:
    from repro.matching.counting import CountingMatcher

    # Exact type, not isinstance: a subclass registered as its own
    # family (a common third-party pattern in the tests) must not be
    # claimed by the baseline it derives from.
    return type(matcher) is CountingMatcher


def _naive_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.naive import NaiveMatcher

    return NaiveMatcher(ctx.profiles)


def _naive_owns(matcher: "Matcher") -> bool:
    from repro.matching.naive import NaiveMatcher

    return type(matcher) is NaiveMatcher


def _builtin_specs() -> tuple[EngineSpec, ...]:
    from repro.matching.index.planner import IndexPlanner

    tree = EngineSpec(
        name="tree",
        factory=_tree_factory,
        capabilities=EngineCapabilities(incremental_maintenance=False, batch_kernel=False),
        owns=_tree_owns,
        supported_measures=None,
        candidate=_tree_candidate,
        current_cost=_tree_current_cost,
        reoptimize=_tree_reoptimize,
        auto_rank=1,
        description="the paper's profile tree, restructured via the TreeOptimizer",
    )
    index = EngineSpec(
        name="index",
        factory=_index_factory,
        capabilities=EngineCapabilities(incremental_maintenance=True, batch_kernel=True),
        owns=_index_owns,
        supported_measures=tuple(IndexPlanner.SUPPORTED_MEASURES),
        candidate=_index_candidate,
        reoptimize=_index_reoptimize,
        # ``auto`` starts on the index matcher (the cheaper build) and
        # prefers it on equal predicted cost.
        auto_rank=0,
        min_columnar_batch=None,
        description="predicate-index counting matcher, replanned via the IndexPlanner",
    )
    hybrid = EngineSpec(
        name="hybrid",
        factory=_hybrid_factory,
        capabilities=EngineCapabilities(incremental_maintenance=True, batch_kernel=True),
        owns=_hybrid_owns,
        supported_measures=tuple(IndexPlanner.SUPPORTED_MEASURES),
        candidate=_hybrid_candidate,
        calibrated_candidate=_hybrid_calibrated_candidate,
        reoptimize=_hybrid_reoptimize,
        # Arbitrates after index/tree: on workloads where a homogeneous
        # plan is already optimal the hybrid ties, and the tie goes to the
        # established family.
        auto_rank=2,
        min_columnar_batch=None,
        description=(
            "predicate-index matcher with per-attribute hybrid plans "
            "(hash/interval/scan chosen independently)"
        ),
    )
    sharded = EngineSpec(
        name="sharded",
        factory=_sharded_factory,
        capabilities=EngineCapabilities(incremental_maintenance=True, batch_kernel=True),
        owns=_sharded_owns,
        supported_measures=tuple(IndexPlanner.SUPPORTED_MEASURES),
        # No candidate: sharding is a deployment decision (core budget),
        # not something the per-event cost currency can arbitrate — the
        # summed probe cost always looks worse than one unsharded probe.
        candidate=None,
        current_cost=_sharded_current_cost,
        reoptimize=_sharded_reoptimize,
        auto_rank=10,
        min_columnar_batch=None,
        description="partition-parallel predicate-index shards merged bit-identically",
    )
    # The two baseline families of the paper's related work, registered
    # so the experiment harness and the benchmarks drive *every* matcher
    # through one ``AdaptationPolicy(engine=...)`` switch.  Neither
    # carries a cost estimator: they never participate in the ``auto``
    # arbitration and never restructure periodically.
    counting = EngineSpec(
        name="counting",
        factory=_counting_factory,
        capabilities=EngineCapabilities(incremental_maintenance=False, batch_kernel=False),
        owns=_counting_owns,
        auto_rank=50,
        description="predicate-counting baseline (shared predicates, rebuilt per change)",
    )
    naive = EngineSpec(
        name="naive",
        factory=_naive_factory,
        # add/remove are O(1) set edits — trivially incremental.
        capabilities=EngineCapabilities(incremental_maintenance=True, batch_kernel=False),
        owns=_naive_owns,
        auto_rank=60,
        description="sequential per-profile scan baseline",
    )
    return (tree, index, hybrid, sharded, counting, naive)


_DEFAULT: EngineRegistry | None = None


def default_registry() -> EngineRegistry:
    """Return the process-wide registry (built-ins registered lazily)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = EngineRegistry(_builtin_specs())
    return _DEFAULT


def builtin_specs() -> tuple[EngineSpec, ...]:
    """Return fresh copies of the built-in specs (for custom registries)."""
    return tuple(replace(spec) for spec in _builtin_specs())
