"""A single event-notification broker.

The broker is the operational wrapper around the filter component: it
manages subscriptions, filters published events through the
:class:`~repro.service.adaptive.AdaptiveFilterEngine` (whose roster offers
the tree, index and auto engines), delivers notifications to subscriber
sinks and keeps the service-level statistics (operations per event / per
profile, the metrics of Fig. 5).

Subscription churn is incremental: subscribe/unsubscribe flow through the
engine's profile maintenance (postings deltas on the index family), so
the filter structures, the event history and the adaptation state all
survive churn; only the first subscription builds an engine.  The same maintenance
path backs the pause/resume/modify life-cycle
(:meth:`Broker.pause_subscription` and friends) that
:class:`repro.api.SubscriptionHandle` rides on.

Engine selection goes through the engine registry
(:mod:`repro.matching.registry`) via the
:class:`~repro.service.adaptive.AdaptationPolicy`
(``Broker(adaptation_policy=AdaptationPolicy(engine="index"))``).

Notification delivery is decoupled from matching through
:mod:`repro.service.delivery`.  A publish call is the unit of
notification bookkeeping, settled in columns: one pass records the
statistics (folded per distinct match), resolves each matched profile's
subscription once, builds each notification once, bulk-records them in
the log and produces one ``DeliveryPlan`` (a subscription and a
notification column) that the dispatcher hands to the executors:
``inline`` (default), ``threadpool`` or ``webhook`` —
selected per broker (``Broker(delivery="threadpool")``) or pinned per
subscription — with per-subscription FIFO ordering, bounded
backpressure queues and a draining :meth:`Broker.close`.

Durability is opt-in through ``Broker(store=...)``: every subscription
life-cycle operation is applied to the live engine first and journaled
to the :class:`~repro.service.durability.SubscriptionStore` before the
call returns (apply-then-journal: an operation is durable exactly when
its call returns, at the store's sync policy).  A broker *booted* with a
non-empty store replays snapshot + journal tail through the same
incremental-maintenance path — one bulk engine build, ids preserved,
paused subscriptions re-paused — so the recovered broker filters
exactly like one that never restarted.  :class:`WebhookSink` endpoints
are journaled and reconstructed; in-process sinks are not durable and
must be re-attached after recovery.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, NamedTuple, Sequence

from repro.core.errors import ServiceError, StoreError, SubscriptionError
from repro.core.events import Event, column_counts
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Schema
from repro.matching.interfaces import MatchResult
from repro.matching.statistics import FilterStatistics
from repro.service.adaptive import (
    AdaptationPolicy,
    AdaptiveFilterEngine,
)
from repro.service.delivery import (
    DELIVERY_MODES,
    DeliveryDispatcher,
    DeliveryPlan,
    DeliveryStats,
    WebhookConfig,
    WebhookSink,
    validate_delivery_mode,
)
from repro.service.durability.store import (
    DurabilityStats,
    RecoveredState,
    SubscriptionStore,
)
from repro.service.notifications import Notification, NotificationLog, NotificationSink
from repro.service.subscriptions import (
    KEEP_DELIVERY,
    Subscription,
    SubscriptionRegistry,
)

__all__ = ["Broker", "PublishOutcome"]


class PublishOutcome(NamedTuple):
    """Result of publishing one event to a broker.

    A named tuple, like :class:`~repro.service.notifications.Notification`:
    the broker builds one per published event, and a tuple costs a
    fraction of a frozen dataclass to construct and holds no
    ``__dict__``.  Fields are read by name; an outcome is immutable,
    equals (and hashes like) the plain tuple ``(event, match_result,
    notifications)``, can be indexed and unpacked, and is changed with
    ``outcome._replace(...)``, not ``dataclasses.replace``.
    """

    event: Event
    match_result: MatchResult | None
    notifications: tuple[Notification, ...]

    @property
    def delivered(self) -> int:
        """Return the number of notifications delivered."""
        return len(self.notifications)


class Broker:
    """A content-based publish/subscribe broker."""

    def __init__(
        self,
        schema: Schema,
        *,
        broker_id: str = "broker-1",
        adaptive: bool = False,
        adaptation_policy: AdaptationPolicy | None = None,
        delivery: str = "inline",
        max_workers: int | None = None,
        queue_capacity: int | None = None,
        webhook: WebhookConfig | None = None,
        store: SubscriptionStore | None = None,
    ) -> None:
        self.broker_id = broker_id
        self._adaptation_policy = (
            AdaptationPolicy() if adaptation_policy is None else adaptation_policy
        )
        self._schema = schema
        self._registry = SubscriptionRegistry(schema)
        self._profiles = ProfileSet(schema)
        self._adaptive = adaptive
        self._engine: AdaptiveFilterEngine | None = None
        self._statistics = FilterStatistics()
        self._log = NotificationLog()
        self._paused: set[str] = set()
        self._clock = 0.0
        self._delivery = DeliveryDispatcher(
            delivery=delivery,
            max_workers=max_workers,
            queue_capacity=queue_capacity,
            webhook=webhook,
        )
        self._store = store
        if store is not None:
            # The broker owns the store's life-cycle: pass it unopened;
            # open() repairs a torn journal tail and loads the state.
            self._replay(store.open())

    # -- engine management --------------------------------------------------------
    def _make_engine(self) -> None:
        policy = self._adaptation_policy
        if not self._adaptive:
            # A non-adaptive broker still uses the adaptive engine object but
            # with an interval large enough that it never restructures; this
            # keeps a single code path for filtering and history keeping.
            policy = replace(policy, reoptimize_interval=2**31, warmup_events=2**31)
        self._engine = AdaptiveFilterEngine(self._profiles, policy=policy)

    def _attach_profile(self, profile: Profile) -> None:
        """Wire one new profile into the live filter component.

        Subscription churn is *incremental*: an existing engine absorbs
        the profile through the matcher's own maintenance (postings deltas
        for the index family), keeping its event history and adaptation
        state; the engine is only ever built from scratch for the first
        subscription.
        """
        # Every attached profile passed the subscription registry's schema
        # check, so the filter side registers it unchecked.
        if self._engine is None:
            self._profiles._admit(profile)
            self._make_engine()
        else:
            # The engine's matcher shares self._profiles and registers the
            # profile there itself.
            self._engine._add_admitted(profile)

    def _detach_profile(self, profile_id: str, *, keep_engine: bool = False) -> None:
        """Remove one profile from the live filter component incrementally.

        ``keep_engine`` preserves the engine object even when the last
        live profile detaches — the pause/modify life-cycle relies on
        this so the event history, adaptation records and kernel stats
        survive; plain unsubscription keeps the historical contract that
        a broker without subscriptions has no engine (publishing delivers
        nothing and records no filter statistics).
        """
        if self._engine is not None:
            self._engine.remove_profile(profile_id)
            if len(self._profiles) == 0 and not keep_engine:
                self._engine = None
        else:
            self._profiles.remove(profile_id)

    # -- durability ---------------------------------------------------------------
    def _replay(self, recovered: RecoveredState) -> None:
        """Rebuild subscription state from a store's recovered entries.

        Mirrors :meth:`subscribe_all`: every entry registers under its
        original subscription id (webhook sinks reconstructed from their
        journaled endpoint), the live profiles attach in one bulk engine
        build, and paused entries are re-paused — all without journaling,
        since the store already holds exactly this state.

        A journaled delivery pin this version does not offer fails the
        boot with a :class:`~repro.core.errors.StoreError` naming the
        subscription, before anything is registered (the store is closed
        again); unchecked, it would surface on the first publish that
        matches the subscription, after matching.  Re-pin it through the
        store first: ``store.append("retarget", subscription_id)``.
        """
        for entry in recovered.entries:
            if entry.delivery is not None and entry.delivery not in DELIVERY_MODES:
                self._store.close()
                raise StoreError(
                    f"subscription {entry.subscription_id!r} is journaled with "
                    f"delivery mode {entry.delivery!r}, which this version does "
                    f"not provide (available modes: {', '.join(DELIVERY_MODES)}); "
                    "journal a 'retarget' for it before booting"
                )
        for entry in recovered.entries:
            sink = WebhookSink(entry.endpoint) if entry.endpoint is not None else None
            self._registry.subscribe(
                entry.profile,
                entry.subscriber,
                sink=sink,
                delivery=entry.delivery,
                subscription_id=entry.subscription_id,
            )
        live = [entry for entry in recovered.entries if not entry.paused]
        for entry in live:
            self._profiles._admit(entry.profile)
        if len(self._profiles) > 0:
            self._make_engine()
        for entry in recovered.entries:
            if entry.paused:
                self._paused.add(entry.subscription_id)

    def _journal(self, op: str, subscription_id: str, **fields) -> None:
        """Journal one applied operation (no-op without a store)."""
        if self._store is not None:
            self._store.append(op, subscription_id, **fields)

    @staticmethod
    def _sink_endpoint(sink: NotificationSink | None) -> str | None:
        """Return the durable endpoint of a sink (webhook sinks only)."""
        return sink.endpoint if isinstance(sink, WebhookSink) else None

    @property
    def store(self) -> SubscriptionStore | None:
        """Return the durable subscription store, if one is attached."""
        return self._store

    def durability_stats(self) -> DurabilityStats | None:
        """Return the store's accounting (``None`` without a store)."""
        return self._store.stats() if self._store is not None else None

    def dead_letters(self):
        """Return the webhook executor's dead letters (empty if unused)."""
        return self._delivery.dead_letters()

    # -- subscription management -----------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def subscriptions(self) -> SubscriptionRegistry:
        return self._registry

    @property
    def profiles(self) -> ProfileSet:
        return self._profiles

    @property
    def statistics(self) -> FilterStatistics:
        return self._statistics

    @property
    def notification_log(self) -> NotificationLog:
        return self._log

    @property
    def engine(self) -> AdaptiveFilterEngine:
        """Return the filter engine (raises when no subscription exists)."""
        if self._engine is None:
            raise ServiceError("the broker has no subscriptions yet")
        return self._engine

    @property
    def adaptation_policy(self) -> AdaptationPolicy:
        """Return the resolved adaptation policy (engine choice included)."""
        return self._adaptation_policy

    @property
    def has_engine(self) -> bool:
        """Return ``True`` once a filter engine exists (any live profile)."""
        return self._engine is not None

    @property
    def paused_subscription_ids(self) -> frozenset[str]:
        """Return the ids of the currently paused subscriptions."""
        return frozenset(self._paused)

    def is_paused(self, subscription_id: str) -> bool:
        """Return ``True`` when the subscription is registered but paused."""
        return subscription_id in self._paused

    def subscribe(
        self,
        profile: Profile,
        subscriber: str,
        *,
        sink: NotificationSink | None = None,
        delivery: str | None = None,
    ) -> Subscription:
        """Register a subscription and update the filter incrementally.

        ``delivery`` pins this subscription's sink to one executor mode
        (``"inline"``, ``"threadpool"``, ``"webhook"``);
        ``None`` rides the broker's default executor.
        """
        if delivery is not None:
            validate_delivery_mode(delivery)
        subscription = self._registry.subscribe(
            profile, subscriber, sink=sink, delivery=delivery
        )
        self._attach_profile(profile)
        self._journal(
            "subscribe",
            subscription.subscription_id,
            profile=profile,
            subscriber=subscriber,
            delivery=delivery,
            endpoint=self._sink_endpoint(sink),
        )
        return subscription

    def set_subscription_sink(
        self,
        subscription_id: str,
        sink: NotificationSink | None,
        *,
        delivery: object = KEEP_DELIVERY,
    ) -> Subscription:
        """Re-pin a subscription's sink (and, optionally, delivery mode).

        ``delivery`` defaults to keeping the current executor pin; pass a
        mode name to re-pin or ``None`` to reset to the broker default.
        """
        if delivery is not KEEP_DELIVERY and delivery is not None:
            validate_delivery_mode(delivery)
        updated = self._registry.replace_sink(subscription_id, sink, delivery=delivery)
        self._journal(
            "retarget",
            subscription_id,
            delivery=updated.delivery,
            endpoint=self._sink_endpoint(updated.sink),
        )
        return updated

    def subscribe_all(
        self, profiles: Iterable[Profile], subscriber: str = "anonymous"
    ) -> list[Subscription]:
        """Register many subscriptions at once (single engine build).

        Atomic with respect to registration: if any profile fails to
        register (validation, duplicate id — including duplicates within
        the batch), the already-registered prefix is rolled back before
        the error propagates, so the registry never desyncs from the
        filter engine.
        """
        subscriptions: list[Subscription] = []
        try:
            for profile in profiles:
                subscriptions.append(
                    self._registry.subscribe(profile, profile.subscriber or subscriber)
                )
        except Exception:
            for subscription in subscriptions:
                self._registry.unsubscribe(subscription.subscription_id)
            raise
        if self._engine is None:
            for subscription in subscriptions:
                self._profiles._admit(subscription.profile)
            if len(self._profiles) > 0:
                self._make_engine()
        elif subscriptions:
            self._engine.add_profiles([s.profile for s in subscriptions])
        for subscription in subscriptions:
            self._journal(
                "subscribe",
                subscription.subscription_id,
                profile=subscription.profile,
                subscriber=subscription.subscriber,
                delivery=subscription.delivery,
                endpoint=self._sink_endpoint(subscription.sink),
            )
        return subscriptions

    def unsubscribe(self, subscription_id: str) -> Subscription:
        """Remove a subscription and update the filter incrementally.

        The engine (with its history and adaptation state) survives as
        long as any subscription — live or paused — remains registered;
        removing the very last one tears it down (the historical
        no-subscription contract).  The profile's per-profile statistics
        go with it (a pause keeps them), so a cancelled profile costs no
        memory and a new subscription under its id counts from zero.
        """
        subscription = self._registry.unsubscribe(subscription_id)
        self._statistics.forget_profile(subscription.profile.profile_id)
        keep_engine = len(self._registry) > 0
        if subscription_id in self._paused:
            # A paused subscription's profile is already out of the filter.
            self._paused.discard(subscription_id)
            if not keep_engine and len(self._profiles) == 0:
                self._engine = None
        else:
            self._detach_profile(subscription.profile.profile_id, keep_engine=keep_engine)
        self._journal("cancel", subscription_id)
        return subscription

    # -- subscription life-cycle (pause / resume / modify) ---------------------------
    def pause_subscription(self, subscription_id: str) -> Subscription:
        """Stop delivering to a subscription without forgetting it.

        The profile leaves the filter through the engine's incremental
        maintenance (a postings delta on the index family — never a
        rebuild); the subscription record, its sink and its id survive, so
        :meth:`resume_subscription` restores delivery in place.
        """
        subscription = self._registry.get(subscription_id)
        if subscription_id in self._paused:
            raise SubscriptionError(f"subscription {subscription_id!r} is already paused")
        self._detach_profile(subscription.profile.profile_id, keep_engine=True)
        self._paused.add(subscription_id)
        self._journal("pause", subscription_id)
        return subscription

    def resume_subscription(self, subscription_id: str) -> Subscription:
        """Re-attach a paused subscription's profile incrementally."""
        subscription = self._registry.get(subscription_id)
        if subscription_id not in self._paused:
            raise SubscriptionError(f"subscription {subscription_id!r} is not paused")
        self._attach_profile(subscription.profile)
        self._paused.discard(subscription_id)
        self._journal("resume", subscription_id)
        return subscription

    def modify_subscription(self, subscription_id: str, profile: Profile) -> Subscription:
        """Swap a subscription's profile, keeping id, subscriber and sink.

        For a live subscription the old profile is detached and the new
        one attached through the engine's incremental maintenance (the
        engine object, its history and its adaptation state survive); a
        paused subscription just records the new profile and attaches it
        on resume.  A new profile id starts its per-profile statistics from
        zero and the old id's go, as on :meth:`unsubscribe`; under the same
        id they carry on.
        """
        old = self._registry.get(subscription_id)
        old_id = old.profile.profile_id
        updated = self._registry.replace_profile(subscription_id, profile)
        if subscription_id not in self._paused:
            self._detach_profile(old_id, keep_engine=True)
            try:
                self._attach_profile(profile)
            except Exception:
                # Restore the old registration and filter state before
                # propagating, so registry and engine never desync.
                self._registry.replace_profile(subscription_id, old.profile)
                self._attach_profile(old.profile)
                raise
        if profile.profile_id != old_id:
            self._statistics.forget_profile(old_id)
        self._journal("modify", subscription_id, profile=profile)
        return updated

    # -- publishing --------------------------------------------------------------------
    def publish(self, event: Event, *, timestamp: float | None = None) -> PublishOutcome:
        """Publish one event: filter it and deliver its notifications.

        Partial events (a subset of the schema's attributes) are
        accepted: validation checks the attributes the event *does*
        carry, and a profile constraining a missing attribute simply
        does not match.  The tree family predates partial events and
        raises :class:`~repro.core.errors.MatchingError` on them; every
        other family handles them natively.

        ``timestamp`` stamps the notifications instead of the broker's
        next tick; as in :meth:`publish_batch`, it never moves the broker
        clock backwards.

        The broker is where a published event is checked against the
        schema, once: the engine and its event history take it unchecked.
        """
        self._delivery.ensure_open()
        event.validate(self._schema, require_all=False)
        if timestamp is None:
            self._clock += 1.0
            clock = self._clock
        else:
            self._clock = max(self._clock, timestamp)
            clock = timestamp

        if self._engine is None:
            return PublishOutcome(event, None, ())

        result = self._engine._match_admitted(event)
        (notifications,) = self._settle((event,), (result,), (clock,))
        return PublishOutcome(event, result, notifications)

    def _settle(
        self,
        events: Sequence[Event],
        results: Sequence[MatchResult],
        clocks: Sequence[float],
    ) -> list[tuple[Notification, ...]]:
        """Record, log and dispatch the results of one publish call.

        The one settle path of both :meth:`publish` (a batch of one) and
        :meth:`publish_batch`.  Statistics (one
        :meth:`~repro.matching.statistics.FilterStatistics.record_all`
        call) and the notification log (one bulk append) are settled
        *here*, synchronously, for the whole call — they are bit-identical
        whatever executor runs the sinks.  Each matched profile's
        subscription is resolved once per call.  Sink invocation is
        decoupled through one
        :class:`~repro.service.delivery.DeliveryPlan` per call handed to
        the delivery dispatcher: the default ``inline`` executor preserves
        the historical synchronous semantics, while ``threadpool`` /
        ``webhook`` deliveries complete in the background (await them
        with :meth:`drain_deliveries` / :meth:`close`).  A call that notifies
        nobody skips the rest.  Returns the notifications of each result;
        the callers build the outcomes after the dispatch, so an inline
        sink never waits for them.
        """
        produced: list[tuple[Notification, ...]] = [()] * len(results)
        if not self._statistics.record_all(results):
            return produced
        broker_id = self.broker_id
        by_profile_id = self._registry.by_profile_id
        new = tuple.__new__  # Notification._make's path, without its __new__
        resolved: dict[str, Subscription] = {}
        default_only = True
        subscriptions: list[Subscription] = []
        notifications: list[Notification] = []
        add_subscription, add_notification = subscriptions.append, notifications.append
        for index, result in enumerate(results):
            profile_ids = result.matched_profile_ids
            if not profile_ids:
                continue
            event, clock, operations = events[index], clocks[index], result.operations
            start = len(notifications)
            for profile_id in profile_ids:
                subscription = resolved.get(profile_id)
                if subscription is None:
                    subscription = resolved[profile_id] = by_profile_id(profile_id)
                    if subscription.sink is None or subscription.delivery is not None:
                        default_only = False
                add_subscription(subscription)
                add_notification(
                    new(
                        Notification,
                        (event, profile_id, subscription.subscriber, broker_id, clock, operations),
                    )
                )
            produced[index] = tuple(notifications[start:])
        self._log.deliver_all(notifications)
        self._delivery.dispatch(DeliveryPlan(subscriptions, notifications, default_only))
        return produced

    def publish_batch(
        self,
        events: Iterable[Event],
        *,
        timestamps: Sequence[float] | None = None,
    ) -> list[PublishOutcome]:
        """Publish a sequence of events through the engine's batch API.

        The batch is atomic with respect to validation: every event is
        validated before any clock advance or delivery happens,
        so an invalid event rejects the whole batch without side effects
        (per-event :meth:`publish` remains available for pipelines that
        want to deliver the valid prefix).  Partial events are accepted,
        exactly as in :meth:`publish`.  Validation is columnar
        (:func:`~repro.core.events.column_counts`: one domain check per
        *distinct* value of each attribute column); a batch that is not
        provably complete and valid that way is validated event by event,
        which is also what raises the error.  This is the batch's only
        schema check: its column counts travel with it to the engine's
        event history.  The surviving events are then filtered in one
        call of the unchecked half of
        :meth:`~repro.service.adaptive.AdaptiveFilterEngine.match_batch`;
        on the index family large batches reach the columnar batch
        kernel (:mod:`repro.matching.index.kernel`) — each distinct
        ``(attribute, value)`` probed once per batch, one bitmask AND per
        attribute — so this is the publishing entry point for
        heavy-traffic pipelines.

        ``timestamps`` stamps each event's notifications with an
        externally supplied clock (one value per event) instead of the
        broker's internal tick — the broker overlay uses this to stamp
        each hop's arrival time on the network's clock (link latency
        included).

        The batch is settled as one unit: statistics and the notification
        log record every event of the batch, then one
        :class:`~repro.service.delivery.DeliveryPlan` covering all of its
        notifications is dispatched.  Hence, when an ``inline`` sink
        raises, the statistics and the log already hold the *whole* batch
        (not just the events before the failing one); the error still
        propagates, and no delivery task after the failing one is
        dispatched.  (Per-event :meth:`publish` is unchanged: it settles one
        event at a time.)
        """
        self._delivery.ensure_open()
        materialised = list(events)
        if timestamps is not None and len(timestamps) != len(materialised):
            raise ServiceError(
                f"timestamps length {len(timestamps)} does not match "
                f"batch length {len(materialised)}"
            )
        counts = column_counts(materialised, self._schema)
        if counts is None:
            # The per-event loop accepts the batch after all (partial
            # events, mixed value types) or raises the EventError.
            for event in materialised:
                event.validate(self._schema, require_all=False)
        if timestamps is not None:
            clocks = list(timestamps)
            self._clock = max([self._clock, *clocks])
        else:
            clocks = []
            for _ in materialised:
                self._clock += 1.0
                clocks.append(self._clock)
        if self._engine is None:
            return [PublishOutcome(event, None, ()) for event in materialised]
        results = self._engine._match_batch_admitted(materialised, counts)
        produced = self._settle(materialised, results, clocks)
        new = tuple.__new__  # PublishOutcome._make's path, without its __new__
        return [new(PublishOutcome, fields) for fields in zip(materialised, results, produced)]

    # -- delivery life-cycle -----------------------------------------------------------
    @property
    def delivery(self) -> DeliveryDispatcher:
        """Return the delivery dispatcher (executor roster + stats)."""
        return self._delivery

    def delivery_stats(self) -> DeliveryStats:
        """Return one snapshot of the notification-delivery accounting."""
        return self._delivery.stats()

    def drain_deliveries(self) -> None:
        """Block until every queued notification reached (or missed) its sink."""
        self._delivery.drain()

    def close(self, *, drain: bool = True) -> None:
        """Shut the delivery subsystem down (idempotent).

        ``drain=True`` (the default) delivers everything still queued on
        the asynchronous executors before returning; ``drain=False``
        discards queued deliveries (counted as ``dropped``).  A closed
        broker rejects further publishing with
        :class:`~repro.core.errors.DeliveryError`; subscriptions and
        statistics stay readable.  An attached subscription store is flushed
        (fsync) and closed last, so every journaled operation is durable
        when ``close`` returns.
        """
        self._delivery.close(drain=drain)
        if self._store is not None and not self._store.closed:
            self._store.flush()
            self._store.close()
