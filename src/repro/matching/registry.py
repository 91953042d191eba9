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
  check of :class:`~repro.service.adaptive.AdaptiveFilterEngine` asks
  the running family for its candidate, a tree restructure or an index
  replan, and the family may abstain from a check by returning ``None``.

:func:`default_registry` returns the process-wide registry,
pre-populated with the built-in ``tree`` and ``index`` families and the
``naive`` baseline.  ``"auto"`` is not a family: it is the reserved name
of the ``index`` family, the ``FilterService`` default, which replans
itself from the observed distributions; the tree (the paper's adaptive filter)
restructures itself when pinned by name, and the baseline carries no
cost estimator.  Third-party engines become selectable by registering a
spec — no change to ``repro.service`` required::

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

#: Reserved engine name of the ``index`` family, the ``FilterService``
#: default.  Not registrable.
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
    current matcher in place (a replan or restructure) or building a new
    one — and returns it.  Costing must therefore
    be side-effect free until ``install`` runs.
    """

    #: Informational only: decisions are recorded under the name of the
    #: :class:`EngineSpec` that produced the candidate.
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
    #: Attribute measures the family can rank by (``None`` = any).
    supported_measures: tuple["AttributeMeasure", ...] | None = None
    #: Cost the family's best candidate under distributions, given the
    #: running matcher (``None``: the family filters without periodic
    #: restructuring).  May return ``None`` to abstain from one check.
    candidate: (
        Callable[
            [EngineContext, "Matcher | None", Mapping[str, "Distribution"]],
            EngineCandidate | None,
        ]
        | None
    ) = None
    description: str = ""


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
                f"{AUTO_ENGINE!r} is reserved: it names the index family"
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
        """Return the spec for ``name`` (``"auto"``: the ``index`` family).

        A miss raises with the selectable names listed.
        """
        try:
            return self._specs["index" if name == AUTO_ENGINE else name]
        except KeyError as exc:
            raise MatchingError(
                f"unknown engine {name!r}; registered engines: "
                f"{', '.join(self.engine_names())}"
            ) from exc

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


# -- built-in families -----------------------------------------------------------
#
# The callbacks import their machinery lazily: the registry module stays
# import-light (``repro.matching`` pulls it in) and free of cycles with
# ``repro.selectivity`` / ``repro.analysis``.


def _tree_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.tree.matcher import TreeMatcher

    return TreeMatcher(ctx.profiles)


def _tree_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions
) -> EngineCandidate | None:
    """Cost the optimizer's restructure of a running tree under ``distributions``.

    Only a running tree is priced (``None`` for any other matcher).  The
    built tree travels with the candidate so an applied decision adopts
    it instead of rebuilding.
    """
    from repro.analysis.cost_model import expected_tree_cost
    from repro.core.errors import ReproError
    from repro.matching.tree.builder import build_tree
    from repro.matching.tree.matcher import TreeMatcher
    from repro.selectivity.optimizer import TreeOptimizer

    if not isinstance(matcher, TreeMatcher):
        return None
    # Workloads the tree model cannot express (the optimiser or the
    # builder fails) simply skip the check.
    try:
        partitions = dict(matcher.partitions())
        optimizer = TreeOptimizer(ctx.profiles, distributions, partitions=partitions)
        configuration = optimizer.configuration(
            value_measure=ctx.value_measure,
            attribute_measure=ctx.attribute_measure,
            search=ctx.search,
        )
        predicted_current = expected_tree_cost(matcher.tree, distributions).operations_per_event
        # A converged tree: the optimiser's answer is what is already running
        # (labels aside), so there is nothing to build or to cost again.
        if configuration == replace(matcher.configuration, label=configuration.label):
            tree, cost = matcher.tree, predicted_current
        else:
            tree = build_tree(ctx.profiles, configuration, partitions=partitions)
            cost = expected_tree_cost(tree, distributions).operations_per_event
    except ReproError:
        return None

    def install() -> "Matcher":
        # Install the tree already built for costing — no second build.
        matcher.adopt(tree, configuration)
        return matcher

    return EngineCandidate(
        "tree", cost, f"tree[{configuration.label}]", install, predicted_current
    )


def _index_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.index.matcher import PredicateIndexMatcher
    from repro.matching.index.planner import IndexPlanner

    planner = IndexPlanner(attribute_measure=ctx.attribute_measure)
    return PredicateIndexMatcher(ctx.profiles, planner=planner)


def _index_candidate(
    ctx: EngineContext, matcher: "Matcher | None", distributions
) -> EngineCandidate | None:
    """Cost a replan of a running index matcher under ``distributions``.

    Only a running index matcher is priced (``None`` for any other).  A
    recost of the live buckets prices both sides; an applied decision
    replans (rebuilds) in place, keeping the matcher object and its
    stats.
    """
    from repro.matching.index.matcher import PredicateIndexMatcher

    if not isinstance(matcher, PredicateIndexMatcher):
        return None
    recosted = matcher.recost_plans(distributions)
    cost = sum(plan.chosen_cost for plan in recosted.values())

    def install() -> "Matcher":
        matcher.replan(distributions)
        return matcher

    return EngineCandidate(
        "index", cost, "index[P_e estimated]", install, matcher.plan.cost_under(recosted)
    )


def _naive_factory(ctx: EngineContext) -> "Matcher":
    from repro.matching.naive import NaiveMatcher

    return NaiveMatcher(ctx.profiles)


def builtin_specs() -> tuple[EngineSpec, ...]:
    """Return the built-in specs, built fresh on every call."""
    from repro.matching.index.planner import IndexPlanner

    tree = EngineSpec(
        name="tree",
        factory=_tree_factory,
        supported_measures=None,
        candidate=_tree_candidate,
        description="the paper's profile tree, restructured via the TreeOptimizer",
    )
    index = EngineSpec(
        name="index",
        factory=_index_factory,
        supported_measures=tuple(IndexPlanner.SUPPORTED_MEASURES),
        candidate=_index_candidate,
        description=(
            "predicate-index counting matcher, replanned per structure "
            "(hash/interval/scan) via the IndexPlanner"
        ),
    )
    # The sequential-scan baseline, registered so the end-to-end
    # benchmark's verifier replays every workload through the same
    # ``AdaptationPolicy(engine=...)`` switch.  It carries no cost
    # estimator: it never restructures periodically.
    naive = EngineSpec(
        name="naive",
        factory=_naive_factory,
        description="sequential per-profile scan baseline",
    )
    return (tree, index, naive)


_DEFAULT: EngineRegistry | None = None


def default_registry() -> EngineRegistry:
    """Return the process-wide registry (built-ins registered lazily)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = EngineRegistry(builtin_specs())
    return _DEFAULT
