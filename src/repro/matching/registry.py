"""Pluggable roster of matcher families (the engine registry).

The adaptive service used to hard-code its roster as a string tuple
(``ENGINES = ("tree", "index", "auto")``) validated in two places and
switch on ``isinstance`` checks whenever it needed family-specific
behaviour.  This module replaces that with a declarative registry: every
matcher family registers one :class:`EngineSpec` bundling

* a **factory** building a fresh matcher for a profile set, and
* a **cost estimator** (:attr:`EngineSpec.candidate`) producing the
  family's best candidate — predicted comparisons/event, the running
  matcher's predicted cost and an install closure — under given event
  distributions.  It is the only costing hook: every re-optimisation
  check of :class:`~repro.service.adaptive.AdaptiveFilterEngine`
  compares the candidates of its roster — every ranked family under
  ``engine="auto"``, else the one pinned family, whose candidate is its
  own tree restructure or index replan.  The running family is asked
  first, then the rest in ``auto_rank`` order; each gets a
  ``could_win(raw_cost)`` predicate applying the selection's own
  comparison against the best candidate so far, so a family may abstain
  (return ``None``) as soon as a lower bound on its cost cannot win.

``"auto"`` is not a family: it is the reserved arbitration mode that
pits every ranked family's candidate against the current matcher.
:func:`default_registry` returns the process-wide registry, pre-populated
with the built-in ``tree``, ``index`` and ``hybrid`` families and the
``naive`` baseline (selectable by name, but never part of the ``auto``
arbitration: the baseline carries no cost estimator); third-party engines
become selectable by registering a spec — no change to ``repro.service``
required::

    from repro.matching.registry import EngineSpec, default_registry

    default_registry().register(
        EngineSpec(name="bitmap", factory=lambda ctx: BitmapMatcher(ctx.profiles))
    )
    Broker(schema, adaptation_policy=AdaptationPolicy(engine="bitmap"))

An experiment-local family is registered the same way and removed again
with :meth:`EngineRegistry.unregister`.  The registry is consulted at
construction and re-optimisation points only — never on the per-event
hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.core.errors import MatchingError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.profiles import ProfileSet
    from repro.distributions.base import Distribution
    from repro.matching.interfaces import Matcher
    from repro.matching.tree.config import SearchStrategy
    from repro.selectivity.attribute_measures import AttributeMeasure
    from repro.selectivity.value_measures import ValueMeasure

__all__ = [
    "AUTO_ENGINE",
    "EngineCandidate",
    "EngineContext",
    "EngineRegistry",
    "EngineSpec",
    "default_registry",
]

#: Reserved engine name selecting cross-family arbitration instead of one
#: fixed family.  Not registrable.
AUTO_ENGINE = "auto"


@dataclass(frozen=True)
class EngineContext:
    """Everything a spec callback may need to build or cost a matcher.

    Built by the adaptive engine from its profile set and policy; carried
    into :attr:`EngineSpec.factory` / :attr:`EngineSpec.candidate` so
    specs never import the service layer.
    """

    profiles: "ProfileSet"
    attribute_measure: "AttributeMeasure"
    value_measure: "ValueMeasure"
    search: "SearchStrategy"


@dataclass(frozen=True)
class EngineCandidate:
    """One family's best candidate under given event distributions.

    ``install()`` makes the candidate the live matcher — mutating the
    current matcher in place (same-family replan/restructure) or building
    a new one (family switch) — and returns it.  Costing must therefore
    be side-effect free until ``install`` runs.
    """

    #: Informational only: decisions are recorded and calibrated under
    #: the name of the :class:`EngineSpec` that produced the candidate.
    family: str
    #: Predicted comparison operations per event (the paper's currency).
    cost: float
    label: str
    install: Callable[[], "Matcher"]
    #: Predicted cost of the *running* matcher under the same
    #: distributions, set by the family that owns it (its candidate is a
    #: recost of the running structures, so one pass prices both sides).
    #: When the running family leaves it ``None`` the incumbent cannot be
    #: compared and any finite candidate counts as an improvement.
    predicted_current: float | None = None


@dataclass(frozen=True)
class EngineSpec:
    """Registration record of one matcher family."""

    #: Family name users select via ``AdaptationPolicy(engine=...)``.
    name: str
    #: Build a fresh matcher over ``ctx.profiles``.
    factory: Callable[[EngineContext], "Matcher"]
    #: ``isinstance``-style ownership test mapping a live matcher back to
    #: its family (used by the arbitration to know what is running).
    owns: Callable[["Matcher"], bool] | None = None
    #: Attribute measures the family can rank by (``None`` = any).
    supported_measures: tuple["AttributeMeasure", ...] | None = None
    #: Cost the family's best candidate under distributions, given the
    #: running matcher and ``could_win`` (``None``: the family filters
    #: without periodic restructuring and never arbitrates).  May return
    #: ``None`` to abstain from one check — in particular when
    #: ``could_win(bound)`` is false for a lower bound on the candidate's
    #: raw cost.  ``could_win`` is exact: it applies the arbitration's own
    #: ``raw × correction`` comparison (ties to the earlier ``auto_rank``)
    #: against the best candidate so far, so a sound bound never prunes a
    #: candidate that would have been chosen.
    candidate: (
        Callable[
            [
                EngineContext,
                "Matcher | None",
                Mapping[str, "Distribution"],
                Callable[[float], bool],
            ],
            EngineCandidate | None,
        ]
        | None
    ) = None
    #: Family whose learned calibration factor corrects this family's
    #: costs until it has been measured itself (``None``: the neutral
    #: 1.0).  For a family sharing another's cost model and executor.
    calibration_prior: str | None = None
    #: Tie-break and start preference of the ``auto`` arbitration: lower
    #: ranks are preferred on equal cost and chosen as the warmup family.
    #: ``None`` keeps the family out of ``auto`` (it still re-optimises
    #: when pinned by name).
    auto_rank: int | None = 100
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
        """Return the ``auto`` roster: ranked families that cost candidates."""
        specs = [
            spec
            for spec in self._specs.values()
            if spec.candidate is not None and spec.auto_rank is not None
        ]
        specs.sort(key=lambda spec: spec.auto_rank)
        return specs

    def auto_start(self) -> EngineSpec:
        """Return the family ``engine="auto"`` starts on (cheapest build)."""
        specs = self.arbitrating_specs()
        if not specs:
            raise MatchingError(
                "the auto engine needs at least one registered family with a cost "
                f"estimator and an auto_rank; registered: {', '.join(self.names()) or '(none)'}"
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

    return TreeMatcher(ctx.profiles)


def _tree_owns(matcher: "Matcher") -> bool:
    from repro.matching.tree.matcher import TreeMatcher

    return isinstance(matcher, TreeMatcher)


def _tree_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions, could_win
) -> EngineCandidate | None:
    """Cost the optimizer's candidate tree under ``distributions``.

    Unless the tree is running, the candidate's root level is built and
    priced first: it is ``per_level[0]`` of the full tree's cost, and every
    deeper level adds a non-negative term, so when that bound cannot win
    the family abstains without building the tree.  The built tree
    travels with the candidate so an applied decision adopts it instead
    of rebuilding.
    """
    from repro.analysis.cost_model import expected_tree_cost
    from repro.core.errors import ReproError
    from repro.core.subranges import build_partitions
    from repro.matching.tree.builder import build_tree
    from repro.matching.tree.matcher import TreeMatcher
    from repro.selectivity.optimizer import TreeOptimizer

    running = isinstance(matcher, TreeMatcher)
    # Workloads the tree model cannot express (partition construction
    # fails) simply leave the family out of the check.
    try:
        partitions = dict(matcher.partitions() if running else build_partitions(ctx.profiles))
        optimizer = TreeOptimizer(ctx.profiles, distributions, partitions=partitions)
        configuration = optimizer.configuration(
            value_measure=ctx.value_measure,
            attribute_measure=ctx.attribute_measure,
            search=ctx.search,
        )
        predicted_current = None
        if running:
            predicted_current = expected_tree_cost(matcher.tree, distributions).operations_per_event
        # A converged tree: the optimiser's answer is what is already running
        # (labels aside), so there is nothing to build or to cost again.
        if running and configuration == replace(matcher.configuration, label=configuration.label):
            tree, cost = matcher.tree, predicted_current
        else:
            if not running:
                root = build_tree(ctx.profiles, configuration, partitions=partitions, levels=1)
                if not could_win(expected_tree_cost(root, distributions).operations_per_event):
                    return None
            tree = build_tree(ctx.profiles, configuration, partitions=partitions)
            cost = expected_tree_cost(tree, distributions).operations_per_event
    except ReproError:
        return None

    def install() -> "Matcher":
        if running:
            # Install the tree already built for costing — no second build.
            matcher.adopt(tree, configuration)
            return matcher
        return TreeMatcher.from_built(ctx.profiles, tree, configuration)

    return EngineCandidate(
        "tree", cost, f"tree[{configuration.label}]", install, predicted_current
    )


def _predicate_index_spec(
    name: str,
    *,
    hybrid: bool,
    auto_rank: int,
    calibration_prior: str | None,
    description: str,
) -> EngineSpec:
    """Build the spec of a :class:`PredicateIndexMatcher` family.

    ``index`` and ``hybrid`` are one matcher class and one cost model;
    they differ in the planner's ``hybrid`` flag (all-or-nothing plans vs
    hash/interval/scan chosen per structure), which is also what tells
    their running matchers apart.
    """
    from repro.matching.index.matcher import PredicateIndexMatcher
    from repro.matching.index.planner import IndexPlanner

    def planner(ctx: EngineContext, distributions=None) -> IndexPlanner:
        return IndexPlanner(
            distributions, attribute_measure=ctx.attribute_measure, hybrid=hybrid
        )

    def build(ctx: EngineContext, distributions=None) -> "Matcher":
        return PredicateIndexMatcher(ctx.profiles, planner=planner(ctx, distributions))

    def owns(matcher: "Matcher") -> bool:
        return isinstance(matcher, PredicateIndexMatcher) and matcher.planner.hybrid == hybrid

    def candidate(
        ctx: EngineContext, matcher: "Matcher | None", distributions, could_win
    ) -> EngineCandidate | None:
        # Costing a plan builds nothing, so there is no bound worth
        # checking first: ``could_win`` goes unused.
        if owns(matcher):
            # A cheap recost of the live buckets prices both sides; an
            # applied decision replans (rebuilds) in place, keeping the
            # matcher object and its stats.
            recosted = matcher.recost_plans(distributions)
            predicted_current = matcher.plan.cost_under(recosted)
            cost = sum(plan.chosen_cost for plan in recosted.values())

            def install() -> "Matcher":
                matcher.replan(distributions)
                return matcher

        else:
            # Bucket-free estimate: cost the family without building it.
            predicted_current = None
            plans = planner(ctx, distributions).plan_profiles(ctx.profiles)
            cost = sum(plan.chosen_cost for plan in plans.values())

            def install() -> "Matcher":
                return build(ctx, distributions)

        return EngineCandidate(
            name, cost, f"{name}[P_e estimated]", install, predicted_current
        )

    return EngineSpec(
        name=name,
        factory=build,
        owns=owns,
        supported_measures=tuple(IndexPlanner.SUPPORTED_MEASURES),
        candidate=candidate,
        calibration_prior=calibration_prior,
        auto_rank=auto_rank,
        description=description,
    )


def _naive_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.naive import NaiveMatcher

    return NaiveMatcher(ctx.profiles)


def _naive_owns(matcher: "Matcher") -> bool:
    from repro.matching.naive import NaiveMatcher

    return type(matcher) is NaiveMatcher


def _builtin_specs() -> tuple[EngineSpec, ...]:
    tree = EngineSpec(
        name="tree",
        factory=_tree_factory,
        owns=_tree_owns,
        supported_measures=None,
        candidate=_tree_candidate,
        auto_rank=1,
        description="the paper's profile tree, restructured via the TreeOptimizer",
    )
    index = _predicate_index_spec(
        "index",
        hybrid=False,
        # ``auto`` starts on the index matcher (the cheaper build) and
        # prefers it on equal predicted cost.
        auto_rank=0,
        calibration_prior=None,
        description="predicate-index counting matcher, replanned via the IndexPlanner",
    )
    hybrid = _predicate_index_spec(
        "hybrid",
        hybrid=True,
        # Arbitrates after index/tree: on workloads where a homogeneous
        # plan is already optimal the hybrid ties, and the tie goes to the
        # established family.
        auto_rank=2,
        # Same cost model and executor as the index family, so until a
        # hybrid interval has been measured the index family's learned
        # correction is the best estimate.  A never-run hybrid at the
        # neutral 1.0 would win arbitrations against an honestly
        # calibrated index plan it cannot beat (the two plan identically
        # on homogeneous workloads).
        calibration_prior="index",
        description=(
            "predicate-index matcher with per-attribute hybrid plans "
            "(hash/interval/scan chosen independently)"
        ),
    )
    # The sequential-scan baseline, registered so the end-to-end
    # benchmark's verifier replays every workload through the same
    # ``AdaptationPolicy(engine=...)`` switch.  It carries no cost
    # estimator: it never arbitrates and never restructures periodically.
    naive = EngineSpec(
        name="naive",
        factory=_naive_factory,
        owns=_naive_owns,
        auto_rank=60,
        description="sequential per-profile scan baseline",
    )
    return (tree, index, hybrid, naive)


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
