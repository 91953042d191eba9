"""The adaptive filter component.

Section 4 of the paper: the distribution-based algorithm "can either work
based on predefined distributions for the observed events, or it has to
maintain a history of events in order to determine the event distribution";
Section 1 promises "an adaptive filter component that optimizes the profile
tree for certain applications based on the data distributions".

:class:`AdaptiveFilterEngine` drives one matcher of the closed family
roster (:mod:`repro.matching.registry`: ``tree``, ``index`` and the
``naive`` baseline; ``"auto"`` names the ``index`` family) and

* records every filtered event in a bounded
  :class:`~repro.distributions.estimation.EventHistory`, which counts
  the events only when a check reads it.  :meth:`~AdaptiveFilterEngine.match`
  and :meth:`~AdaptiveFilterEngine.match_batch` validate their events
  against the schema first (a batch column by column: each *distinct*
  value is checked once); the broker validates every published event
  itself and calls their unchecked halves instead,
* periodically (every ``reoptimize_interval`` events) estimates the current
  per-attribute event distributions from the history,
* asks its family's re-optimisation function for a candidate under the
  comparison-count cost currency — a restructured tree or a replanned
  index — and
* restructures/replans when the analytical model predicts a positive
  relative improvement over the current matcher of at least
  ``improvement_threshold`` (restructuring has a cost, so marginal gains
  are ignored, and a candidate that gains nothing never applies — the
  paper recommends reordering only "for systems with stable
  distributions").  The engine never switches families: one family
  re-optimises one structure, as the paper's adaptive filter does.  A
  family without a re-optimisation function (``naive``) schedules no
  checks at all.

Profile maintenance delegates to the wrapped matcher's incremental
``add_profile`` / ``remove_profile``, so subscription churn keeps the
history and adaptation state alive (the broker relies on this).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.errors import EventError, MatchingError, ServiceError
from repro.core.events import Event, column_counts
from repro.core.profiles import Profile, ProfileSet
from repro.distributions.base import Distribution
from repro.distributions.estimation import EventHistory
from repro.matching.index.kernel import KernelStats
from repro.matching.index.planner import IndexPlanner
from repro.matching.interfaces import Matcher, MatchResult
from repro.matching.registry import AUTO_ENGINE, BUILDERS, REOPTIMISERS, engine_family
from repro.matching.tree.config import SearchStrategy, TreeConfiguration
from repro.matching.tree.matcher import TreeMatcher
from repro.selectivity.attribute_measures import AttributeMeasure
from repro.selectivity.value_measures import ValueMeasure

__all__ = [
    "AdaptationPolicy",
    "AdaptationRecord",
    "AdaptiveFilterEngine",
    "resolve_policy_engine",
]

@dataclass(frozen=True)
class AdaptationPolicy:
    """Tuning knobs of the adaptive filter component."""

    #: Value-selectivity measure used when re-optimising (tree engine only).
    value_measure: ValueMeasure = ValueMeasure.V1_EVENT
    #: Attribute-selectivity measure used when re-optimising.  The tree
    #: engine accepts any measure; the index engine ranks its probe order
    #: with it and supports NATURAL/A1/A2 (A3 is a whole-tree measure).
    attribute_measure: AttributeMeasure = AttributeMeasure.A2_ZERO_PROBABILITY
    #: Node search strategy of the rebuilt tree (tree engine only).
    search: SearchStrategy = SearchStrategy.LINEAR
    #: Re-optimisation is considered every this many filtered events.
    reoptimize_interval: int = 1000
    #: Minimum number of observed events before the first re-optimisation.
    warmup_events: int = 200
    #: Minimum relative improvement (predicted) required to restructure;
    #: a predicted improvement of zero never restructures.
    improvement_threshold: float = 0.05
    #: Length of the sliding event history window.
    history_length: int = 10_000
    #: Which matcher the engine drives: ``"tree"`` (the paper's profile
    #: tree, restructured via the TreeOptimizer), ``"index"`` (the
    #: predicate-index matcher, replanned via the IndexPlanner, hash,
    #: interval and scan chosen per structure), the ``"naive"`` baseline,
    #: or ``"auto"``, the ``FilterService`` default, which names the
    #: ``index`` family.
    engine: str = "tree"

    def __post_init__(self) -> None:
        if (
            self._engine_family() == "index"
            and self.attribute_measure not in IndexPlanner.SUPPORTED_MEASURES
        ):
            raise ServiceError(
                f"the {self.engine} engine cannot rank by measure "
                f"{self.attribute_measure.value!r}; the index family "
                f"supports: {[m.value for m in IndexPlanner.SUPPORTED_MEASURES]}"
            )
        if self.reoptimize_interval <= 0:
            raise ServiceError("reoptimize_interval must be positive")
        if self.warmup_events < 0:
            raise ServiceError("warmup_events must be non-negative")
        if not 0.0 <= self.improvement_threshold < 1.0:
            raise ServiceError("improvement_threshold must lie in [0, 1)")
        if self.history_length <= 0:
            raise ServiceError("history_length must be positive")

    def _engine_family(self) -> str:
        """Return the family :attr:`engine` names."""
        try:
            return engine_family(self.engine)
        except MatchingError as exc:
            raise ServiceError(str(exc)) from exc


@dataclass(frozen=True)
class AdaptationRecord:
    """One re-optimisation decision (for observability and tests)."""

    event_count: int
    predicted_current: float
    predicted_candidate: float
    applied: bool
    configuration_label: str
    #: Matcher family that priced the decision (``"tree"`` or
    #: ``"index"``; ``engine="auto"`` records ``"index"``).
    engine: str = ""
    #: Comparison operations per event actually *measured* over the
    #: interval that ended at this check (``None`` when the interval saw
    #: no events).  Pairs with the *previous* record's predicted cost:
    #: that prediction covered exactly this interval.
    measured_ops_per_event: float | None = None
    #: Wall-clock seconds the interval took (optional observability;
    #: decisions use the deterministic operation currency above).
    measured_wall_seconds: float | None = None
    #: Wall-clock seconds the re-optimisation check itself took — history
    #: estimation, costing and any applied rebuild: the time
    #: the triggering ``publish`` stalled (``None`` on hand-built records).
    check_seconds: float | None = None

    @property
    def predicted_improvement(self) -> float:
        """Return the predicted relative improvement of the candidate."""
        if self.predicted_current <= 0:
            return 0.0
        return 1.0 - self.predicted_candidate / self.predicted_current

    def to_dict(self) -> dict:
        """Return a JSON-friendly view (predicted vs measured cost)."""
        return {
            "event_count": self.event_count,
            "predicted_current": self.predicted_current,
            "predicted_candidate": self.predicted_candidate,
            "predicted_improvement": self.predicted_improvement,
            "applied": self.applied,
            "configuration_label": self.configuration_label,
            "engine": self.engine,
            "measured_ops_per_event": self.measured_ops_per_event,
            "measured_wall_seconds": self.measured_wall_seconds,
            "check_seconds": self.check_seconds,
        }


class AdaptiveFilterEngine:
    """A matcher of one family that restructures itself from history."""

    def __init__(
        self,
        profiles: ProfileSet,
        *,
        policy: AdaptationPolicy | None = None,
    ) -> None:
        self.policy = policy or AdaptationPolicy()
        self.profiles = profiles
        #: The one family this engine runs and re-optimises, and its
        #: re-optimisation function (``None``: no checks are scheduled).
        self._family = self.policy._engine_family()
        self._reoptimise = REOPTIMISERS.get(self._family)
        self._matcher: Matcher = BUILDERS[self._family](profiles, self.policy)
        self._history = EventHistory(profiles.schema, max_length=self.policy.history_length)
        self._events_filtered = 0
        self._events_at_last_check = 0
        self._adaptations: list[AdaptationRecord] = []
        #: Cumulative charged operations and the interval markers: each
        #: check records the ops/event and seconds *measured* over the
        #: interval the previous check's prediction covered.
        self._operations_filtered = 0
        self._ops_at_last_check = 0
        self._wall_at_last_check = time.perf_counter()

    # -- delegation ---------------------------------------------------------------
    @property
    def matcher(self) -> Matcher:
        """Return the wrapped matcher (whatever family is running)."""
        return self._matcher

    @property
    def engine_family(self) -> str:
        """Return the name of the family this engine runs.

        Resolved at construction (``auto`` is the ``index`` family): an
        engine re-optimises within its family and never switches to
        another.
        """
        return self._family

    @property
    def history(self) -> EventHistory:
        """Return the sliding event history."""
        return self._history

    @property
    def configuration(self) -> TreeConfiguration:
        if not isinstance(self._matcher, TreeMatcher):
            raise ServiceError(
                f"the {self.engine_family} engine has no tree configuration"
            )
        return self._matcher.configuration

    def adaptations(self) -> list[AdaptationRecord]:
        """Return every re-optimisation decision taken so far."""
        return list(self._adaptations)

    def kernel_stats(self) -> KernelStats:
        """Return a copy of the batch kernel's executed-work accounting
        across the engine's whole life (an index replan keeps the
        matcher and its stats; all-zero for the other families)."""
        total = KernelStats()
        live = getattr(self._matcher, "kernel_stats", None)
        if live is not None:
            total.merge(live)
        return total

    def add_profile(self, profile: Profile) -> None:
        """Register a profile (delegates to the matcher)."""
        self._matcher.add_profile(profile)

    def _add_admitted(self, profile: Profile) -> None:
        """Register a profile the caller has already validated (every
        family skips its profile set's schema check on this path)."""
        self._matcher._add_admitted(profile)

    def add_profiles(self, profiles: Iterable[Profile]) -> None:
        """Register a batch of profiles via the matcher's batch path.

        One tree rebuild for the batch instead of one per profile; the
        index family applies its per-profile postings deltas either way,
        and the naive scan just appends.
        """
        self._matcher.add_profiles(profiles)

    def remove_profile(self, profile_id: str) -> None:
        """Unregister a profile (delegates to the matcher)."""
        self._matcher.remove_profile(profile_id)

    # -- filtering ----------------------------------------------------------------
    def match(self, event: Event) -> MatchResult:
        """Validate one event, filter it, record it, and re-optimise when due."""
        event.validate(self.profiles.schema, require_all=False)
        return self._match_admitted(event)

    def _match_admitted(self, event: Event) -> MatchResult:
        """:meth:`match` for an event the caller already validated."""
        result = self._matcher.match(event)
        self._history._admit(event)
        self._events_filtered += 1
        self._operations_filtered += result.operations
        if self._reoptimisation_due():
            self._consider_reoptimisation()
        return result

    def match_batch(self, events: Iterable[Event]) -> list[MatchResult]:
        """Filter a sequence of events with the same re-optimisation cadence.

        Equivalent to calling :meth:`match` per event — re-optimisation may
        restructure the matcher mid-batch, exactly as in the sequential
        path — but the events *between* two re-optimisation points are
        forwarded in one :meth:`Matcher.match_batch` call, so large batches
        (e.g. from :meth:`repro.service.broker.Broker.publish_batch`) reach
        the index family's columnar kernel
        (:mod:`repro.matching.index.kernel`) instead of degrading to the
        per-event loop.  The batch is validated column by column
        (:func:`~repro.core.events.column_counts`); a batch that is not
        provably valid that way is validated event by event.  An invalid
        event raises :class:`~repro.core.errors.EventError` once the valid
        events before it have been filtered and recorded, as a
        :meth:`match` loop would.
        """
        events = events if isinstance(events, list) else list(events)
        schema = self.profiles.schema
        counts = column_counts(events, schema)
        if counts is None:
            for position, event in enumerate(events):
                try:
                    event.validate(schema, require_all=False)
                except EventError:
                    self._match_batch_admitted(events[:position], None)
                    raise
        return self._match_batch_admitted(events, counts)

    def _match_batch_admitted(
        self, events: list[Event], counts: dict[str, Counter] | None
    ) -> list[MatchResult]:
        """:meth:`match_batch` for events the caller already validated.

        ``counts`` is the batch's :func:`~repro.core.events.column_counts`
        (or ``None``).  It goes to the history with the batch when the
        batch is filtered as one chunk; the chunks of a batch split at a
        re-optimisation point are counted by the history itself.
        Chunking at the next due re-optimisation keeps the cadence exact:
        within a chunk no check could fire anyway.
        """
        results: list[MatchResult] = []
        position = 0
        while position < len(events):
            if self._reoptimise is None:
                take = len(events)
            else:
                # The next check can only fire once the filtered-event
                # count reaches both the warmup and the interval since the
                # last check, so everything before that point is one safe
                # chunk.
                next_due = max(
                    self.policy.warmup_events,
                    self._events_at_last_check + self.policy.reoptimize_interval,
                )
                take = max(1, next_due - self._events_filtered)
            chunk = events[position : position + take]
            chunk_results = self._matcher.match_batch(chunk)
            results.extend(chunk_results)
            self._history._admit_all(chunk, counts if len(chunk) == len(events) else None)
            self._events_filtered += len(chunk)
            self._operations_filtered += sum(r.operations for r in chunk_results)
            if self._reoptimisation_due():
                self._consider_reoptimisation()
            position += len(chunk)
        return results

    def _reoptimisation_due(self) -> bool:
        if self._reoptimise is None or self._events_filtered < self.policy.warmup_events:
            return False
        return (
            self._events_filtered - self._events_at_last_check
            >= self.policy.reoptimize_interval
        )

    # -- re-optimisation ---------------------------------------------------------------
    def estimated_event_distributions(self) -> Mapping[str, Distribution]:
        """Return per-attribute distributions estimated from the history."""
        distributions: dict[str, Distribution] = {}
        for attribute in self.profiles.schema:
            counter = self._history.counter(attribute.name)
            if counter.total == 0:
                raise ServiceError(
                    f"no observations recorded for attribute {attribute.name!r}"
                )
            distributions[attribute.name] = counter.to_distribution()
        return distributions

    def _consider_reoptimisation(self) -> None:
        events_delta = self._events_filtered - self._events_at_last_check
        ops_delta = self._operations_filtered - self._ops_at_last_check
        now = time.perf_counter()
        wall_delta = now - self._wall_at_last_check
        self._events_at_last_check = self._events_filtered
        self._ops_at_last_check = self._operations_filtered
        self._wall_at_last_check = now
        measured_ops = ops_delta / events_delta if events_delta > 0 else None
        if len(self.profiles) == 0:
            # Nothing to optimise (every subscription is paused); the
            # engine keeps filtering and recording history.
            return
        try:
            distributions = self.estimated_event_distributions()
        except ServiceError:
            return
        self._check(
            distributions,
            measured_ops_per_event=measured_ops,
            measured_wall_seconds=wall_delta,
            check_started=now,
        )

    def _check(
        self,
        distributions: Mapping[str, Distribution],
        *,
        measured_ops_per_event: float | None,
        measured_wall_seconds: float,
        check_started: float,
    ) -> None:
        """Take one re-optimisation decision for the running family.

        The family's re-optimisation function costs its candidate in the
        paper's common currency (expected comparison operations per event)
        under the current history distributions — an index replan through
        the :class:`~repro.matching.index.planner.IndexPlanner`'s recost
        of the live buckets, a tree restructure through
        :func:`repro.analysis.cost_model.expected_tree_cost` of the
        :class:`~repro.selectivity.optimizer.TreeOptimizer`'s candidate
        configuration — and the candidate is applied when it improves on
        the running matcher's predicted cost, by at least
        ``improvement_threshold``.  A tree the model cannot express skips
        the check and records nothing.
        """
        candidate = self._reoptimise(self._matcher, self.policy, distributions)
        if candidate is None:
            return
        predicted_current = candidate.predicted_current
        improvement = 1.0 - candidate.cost / predicted_current if predicted_current > 0 else 0.0
        applied = improvement > 0.0 and improvement >= self.policy.improvement_threshold
        if applied:
            candidate.apply()
        label = candidate.label
        if self.policy.engine == AUTO_ENGINE:
            label = f"auto:{label}"
        self._adaptations.append(
            AdaptationRecord(
                event_count=self._events_filtered,
                predicted_current=predicted_current,
                predicted_candidate=candidate.cost,
                applied=applied,
                configuration_label=label,
                engine=self._family,
                measured_ops_per_event=measured_ops_per_event,
                measured_wall_seconds=measured_wall_seconds,
                check_seconds=time.perf_counter() - check_started,
            )
        )


def resolve_policy_engine(
    policy: AdaptationPolicy | None, engine: str | None
) -> AdaptationPolicy:
    """Resolve an ``engine=`` name against an optional policy.

    The single site reconciling the two ways of choosing an engine
    (used by :class:`repro.api.FilterService` and
    :class:`~repro.service.routing.overlay.OverlayBroker`): raises on a
    conflict, otherwise
    returns a policy whose ``engine`` is the requested one — validation
    happens in the policy's ``__post_init__`` (the single roster
    lookup).
    """
    if engine is not None and policy is not None and policy.engine != engine:
        raise ServiceError(
            f"conflicting engine choice: engine={engine!r} but the adaptation "
            f"policy selects {policy.engine!r}; set one or the other"
        )
    if policy is None:
        policy = AdaptationPolicy() if engine is None else AdaptationPolicy(engine=engine)
    return policy
