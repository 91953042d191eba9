"""Smoke tests of the public API surface and the toy-example helpers.

These tests guard the import structure a downstream user relies on: every
name re-exported by a package ``__init__`` must resolve, the documented
quickstart flow must work verbatim, and — strictest of all — the
``repro.api`` facade is a **surface lock**: its exported names and their
parameter lists are pinned below, so an accidental rename, removal or
reordering fails CI instead of breaking downstream users.
"""

import importlib
import inspect

import pytest

import repro
import repro.api
from repro.core import Event, RangePredicate, profile
from repro.matching import TreeMatcher
from repro.selectivity import AttributeMeasure, TreeOptimizer, ValueMeasure
from repro.workloads import (
    environmental_profiles,
    environmental_schema,
    example2_temperature_distribution,
    example3_event_distributions,
    example_event,
)

PACKAGES = [
    "repro.api",
    "repro.core",
    "repro.distributions",
    "repro.matching",
    "repro.matching.index",
    "repro.matching.tree",
    "repro.selectivity",
    "repro.analysis",
    "repro.service",
    "repro.service.durability",
    "repro.service.routing",
    "repro.testing",
    "repro.workloads",
    "repro.experiments",
    "repro.experiments.figures",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} is exported but missing"


def test_version_is_exposed():
    assert repro.__version__


def test_quickstart_flow_matches_readme():
    profiles = environmental_profiles(environmental_schema())
    matcher = TreeMatcher(profiles)
    result = matcher.match(example_event())
    assert sorted(result.matched_profile_ids) == ["P2", "P5"]

    optimizer = TreeOptimizer(profiles, example3_event_distributions())
    matcher.reconfigure(
        optimizer.configuration(
            value_measure=ValueMeasure.V1_EVENT,
            attribute_measure=AttributeMeasure.A2_ZERO_PROBABILITY,
        )
    )
    assert sorted(matcher.match(example_event()).matched_profile_ids) == ["P2", "P5"]


def test_toy_distributions_are_normalised():
    example2_temperature_distribution().validate()
    for distribution in example3_event_distributions().values():
        distribution.validate()


def test_profile_helper_and_event_roundtrip():
    built = profile("alarm", temperature=RangePredicate.at_least(45))
    assert built.matches(Event({"temperature": 50}))
    assert not built.matches(Event({"temperature": 20}))


# -- repro.api surface lock ---------------------------------------------------
#
# The facade is the compatibility boundary of the library: everything
# below is a frozen contract.  A change here must be deliberate — update
# the lock in the same commit and call it out in the changelog.

API_SURFACE = {
    # name: ordered parameter names of the callable (classes: __init__
    # without self), or None for non-callable exports.
    "AdaptationPolicy": (
        "value_measure",
        "attribute_measure",
        "search",
        "reoptimize_interval",
        "warmup_events",
        "improvement_threshold",
        "history_length",
        "engine",
    ),
    "AdaptationRecord": (
        "event_count",
        "predicted_current",
        "predicted_candidate",
        "applied",
        "configuration_label",
        "engine",
        "measured_ops_per_event",
        "measured_wall_seconds",
        "check_seconds",
    ),
    "Attribute": ("name", "domain", "unit", "description"),
    "AttributeClause": ("attribute", "base"),
    "BrokerStats": (
        "broker_id",
        "engine",
        "engine_family",
        "subscriptions",
        "paused_subscriptions",
        "events_in",
        "notifications",
        "operations",
        "routing_table",
        "active_interest",
        "events_forwarded",
        "events_suppressed",
    ),
    "DeliveryStats": (
        "mode",
        "dispatched",
        "delivered",
        "failed",
        "dropped",
        "pending",
        "max_pending",
        "retried",
        "dead_lettered",
        "executors",
    ),
    "DurabilityStats": (
        "backend",
        "last_seq",
        "appended",
        "tail_records",
        "snapshots",
        "replayed_records",
        "recovered_subscriptions",
        "discarded_records",
    ),
    "Event": ("values", "timestamp", "source"),
    "FilterService": (
        "schema",
        "engine",
        "adaptive",
        "policy",
        "delivery",
        "max_workers",
        "queue_capacity",
        "webhook",
        "store",
    ),
    "InMemorySubscriptionStore": ("snapshot_every",),
    "JsonlWalStore": ("path", "snapshot_every", "fsync_on_append"),
    "NetworkDeliveryReport": (
        "origin",
        "events",
        "notifications",
        "event_hops",
        "hops",
        "link_transfers",
    ),
    "NetworkService": ("schema", "engine", "latency", "delivery"),
    "NetworkStats": (
        "brokers",
        "links",
        "events_published",
        "notifications",
        "hops",
        "link_transfers",
        "forwarded_events",
        "suppressed_events",
        "subscriptions",
        "paused_subscriptions",
        "routing_table_entries",
        "active_routing_entries",
        "cover_checks",
        "cover_hits",
        "cover_hit_rate",
        "interest_kernel",
    ),
    "Profile": ("profile_id", "predicates", "subscriber", "priority"),
    "ProfileBuilder": ("predicates",),
    "PublishOutcome": ("event", "match_result", "notifications"),
    "Schema": ("attributes",),
    "ServiceStats": (
        "events",
        "matched_events",
        "notifications",
        "operations",
        "average_operations_per_event",
        "average_matches_per_event",
        "match_rate",
        "subscriptions",
        "paused_subscriptions",
        "engine",
        "engine_family",
        "kernel",
        "adaptations",
        "delivery",
        "durability",
    ),
    "SubscriptionHandle": ("service", "broker", "subscription_id"),
    "SubscriptionStore": ("snapshot_every",),
    "WebhookConfig": (
        "timeout",
        "max_attempts",
        "backoff_base",
        "backoff_max",
        "jitter",
        "breaker_threshold",
        "breaker_cooldown",
        "dlq_capacity",
        "seed",
        "transport",
        "sleep",
        "clock",
    ),
    "WebhookSink": ("endpoint", "timeout"),
    "build_profiles": ("builders", "id_prefix", "subscriber"),
    "where": ("attribute",),
}

API_METHODS = {
    # The verbs of the facade classes are part of the lock too.
    "FilterService": {
        "from_profile": ("name_or_path", "engine", "overrides"),
        "subscribe": ("profile", "subscriber", "profile_id", "sink", "delivery"),
        "subscribe_all": ("profiles", "subscriber"),
        "publish": ("event",),
        "publish_batch": ("events",),
        "stats": (),
        "engines": (),
        "handle": ("subscription_id",),
        "handles": (),
        "drain": (),
        "dead_letters": (),
        "close": ("drain",),
    },
    "SubscriptionHandle": {
        "pause": (),
        "resume": (),
        "modify": ("profile",),
        "deliver_to": ("sink", "delivery"),
        "cancel": (),
        "notifications_received": (),
    },
    "NetworkService": {
        "add_broker": ("broker_id", "engine", "policy"),
        "connect": ("first", "second"),
        "brokers": (),
        "neighbours": ("broker_id",),
        "subscribe": ("profile", "at", "subscriber", "profile_id", "sink", "delivery"),
        "publish": ("event", "at"),
        "publish_batch": ("events", "at"),
        "stats": (),
        "broker_stats": ("broker_id",),
        "broker": ("broker_id",),
        "handle": ("subscription_id", "at"),
        "handles": (),
        "drain": (),
        "close": ("drain",),
    },
    "SubscriptionStore": {
        "open": (),
        "append": (
            "op",
            "subscription_id",
            "profile",
            "subscriber",
            "delivery",
            "endpoint",
        ),
        "flush": (),
        "compact": (),
        "close": (),
        "entries": (),
        "stats": (),
    },
}


# Read-only properties of the facade classes, locked by name.
API_PROPERTIES = {
    "SubscriptionHandle": (
        "subscription_id",
        "profile",
        "subscriber",
        "home_broker",
        "state",
        "is_active",
        "is_paused",
        "is_cancelled",
    ),
    "NetworkService": ("schema", "clock"),
}


def _parameter_names(callable_) -> tuple:
    return tuple(
        name
        for name in inspect.signature(callable_).parameters
        if name not in ("self", "args", "kwargs")
    )


def test_api_surface_is_locked():
    assert sorted(repro.api.__all__) == sorted(API_SURFACE), (
        "repro.api exports changed; update the surface lock deliberately"
    )
    for name, expected in API_SURFACE.items():
        obj = getattr(repro.api, name)
        if expected is None:
            continue
        assert _parameter_names(obj) == expected, f"signature of repro.api.{name} changed"


@pytest.mark.parametrize("class_name", sorted(API_METHODS))
def test_api_methods_are_locked(class_name):
    cls = getattr(repro.api, class_name)
    for method_name, expected in API_METHODS[class_name].items():
        method = getattr(cls, method_name)
        assert _parameter_names(method) == expected, (
            f"signature of repro.api.{class_name}.{method_name} changed"
        )


@pytest.mark.parametrize("class_name", sorted(API_PROPERTIES))
def test_api_properties_are_locked(class_name):
    cls = getattr(repro.api, class_name)
    for name in API_PROPERTIES[class_name]:
        assert isinstance(getattr(cls, name), property), f"repro.api.{class_name}.{name}"


# -- engine roster and tree matcher surface lock -------------------------------
#
# The engine roster is a closed table, and the tree matcher is the paper's
# filter; the roster's names and function signatures and the tree
# matcher's public methods are pinned, so adding or removing one is an
# explicit diff here.

REGISTRY_ALL = (
    "AUTO_ENGINE",
    "BUILDERS",
    "Candidate",
    "ENGINES",
    "REOPTIMISERS",
    "engine_family",
)

TREE_MATCHER_METHODS = (
    "add_profile",
    "add_profiles",
    "adopt",
    "configuration",
    "match",
    "match_batch",
    "partitions",
    "reconfigure",
    "remove_profile",
    "tree",
)


def _public_members(cls) -> tuple:
    return tuple(sorted(name for name in vars(cls) if not name.startswith("_")))


def test_registry_and_tree_matcher_surfaces_are_locked():
    from repro.matching import registry

    assert tuple(sorted(registry.__all__)) == REGISTRY_ALL
    assert registry.ENGINES == ("tree", "index", "naive", "auto")
    assert _public_members(TreeMatcher) == TREE_MATCHER_METHODS
    assert _parameter_names(registry.Candidate) == (
        "predicted_current",
        "cost",
        "label",
        "apply",
    )
    for build in registry.BUILDERS.values():
        assert _parameter_names(build) == ("profiles", "policy")
    for reoptimise in registry.REOPTIMISERS.values():
        assert _parameter_names(reoptimise) == ("matcher", "policy", "distributions")


# -- the index planner's knobs and the retired names --------------------------
#
# The planner has one mode (per-structure verdicts), so its constructor is
# pinned, and every name deleted with the binary mode, the ``hybrid``
# family, the cost calibrator and the family-switch cooldown is listed
# here (the planner's ``hybrid=`` flag by the constructor lock), as are the
# registry's ownership tests (an engine reports the spec it resolved), the
# plug-in engine registry itself (the roster is a closed table), the
# per-notification ``DeliveryTask`` (a plan is two columns), the
# discrete-event simulator (the overlay keeps its own clock), the
# overlay's ``cover_counters`` (``NetworkService.stats`` sums the same
# counters), and the second network class and handle (``NetworkService``
# is the overlay, and hands out ``SubscriptionHandle`` views): re-adding
# one is an explicit diff.

INDEX_PLANNER_PARAMETERS = ("event_distributions", "attribute_measure")

RETIRED = {
    ("repro.analysis", None): ("CalibrationSample", "CalibrationSnapshot", "CostCalibrator"),
    ("repro.service.adaptive", None): ("SWITCH_COOLDOWN_INTERVALS",),
    ("repro.service.adaptive", "AdaptationRecord"): ("suppressed", "correction_factor"),
    ("repro.service.adaptive", "AdaptationPolicy"): ("engine_registry",),
    ("repro.service.adaptive", "AdaptiveFilterEngine"): (
        "calibration",
        "calibrator",
        "registry",
        "_adopt_matcher",
    ),
    ("repro.api", None): (
        "EngineRegistry",
        "EngineSpec",
        "default_registry",
        "NetworkSubscriptionHandle",
    ),
    ("repro.api", "FilterService"): ("registry",),
    ("repro.api", "ServiceStats"): ("calibration",),
    ("repro.matching", None): (
        "EngineCandidate",
        "EngineContext",
        "EngineRegistry",
        "EngineSpec",
        "default_registry",
    ),
    ("repro.matching.registry", None): (
        "EngineCandidate",
        "EngineContext",
        "EngineRegistry",
        "EngineSpec",
        "builtin_specs",
        "default_registry",
        "_tree_owns",
        "_index_owns",
        "_naive_owns",
    ),
    ("repro.service.delivery", None): ("DeliveryTask",),
    ("repro.service.delivery.base", None): ("DeliveryTask",),
    ("repro.matching.index", "AttributePlan"): ("use_index", "is_hybrid"),
    ("repro.service.broker", "Broker"): ("publish_all",),
    ("repro.core", None): ("SimulationError",),
    ("repro.core.errors", None): ("SimulationError",),
    ("repro.service", None): ("NetworkSubscriptionHandle", "OverlayNetwork"),
    ("repro.service.routing", None): (
        "PerHopLatency",
        "NetworkSubscriptionHandle",
        "OverlayNetwork",
    ),
    ("repro.service.routing.overlay", None): ("OverlayNetwork",),
    ("repro.service.routing.service", None): ("NetworkSubscriptionHandle",),
    ("repro.service.routing.latency", None): ("PerHopLatency",),
    ("repro.service.routing", "NetworkService"): ("cover_counters", "network"),
}


def test_index_planner_has_one_mode():
    from repro.matching.index import IndexPlanner

    assert _parameter_names(IndexPlanner) == INDEX_PLANNER_PARAMETERS


@pytest.mark.parametrize(
    ("owner", "names"),
    RETIRED.items(),
    ids=[".".join(filter(None, owner)) for owner in RETIRED],
)
def test_retired_names_stay_gone(owner, names):
    module_name, class_name = owner
    owner_object = importlib.import_module(module_name)
    if class_name is not None:
        owner_object = getattr(owner_object, class_name)
    fields = getattr(owner_object, "__dataclass_fields__", {})
    for name in names:
        assert not hasattr(owner_object, name) and name not in fields, (owner, name)


def test_the_calibration_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.analysis.calibration")


def test_the_simulation_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.simulation")


# -- repro.workloads.profiles surface lock ------------------------------------
#
# The declarative scenario-corpus API is the replacement for the legacy
# ``*_spec()`` callables, so its loader/registry names are pinned the same
# way the facade is.

WORKLOADS_PROFILES_SURFACE = {
    "load_profile": ("name_or_path",),
    "get_profile": ("name",),
    "list_profiles": (),
    "dump_profile": ("profile", "path"),
    "ScenarioProfile": (
        "name",
        "spec",
        "run",
        "engine",
        "description",
        "extends",
        "source",
    ),
    "RunShape": ("batch_size", "delivery", "churn_rate"),
    "EngineHints": (
        "engine",
        "families",
        "reoptimize_interval",
        "warmup_events",
        "improvement_threshold",
    ),
    "WorkloadSpecError": ("key", "message"),
}

#: ``repro.workloads.__all__``, sorted: adding or removing a public name
#: is an explicit diff here.
WORKLOADS_ALL = (
    "AttributeSpec",
    "EngineHints",
    "MixGroup",
    "RunShape",
    "ScenarioProfile",
    "Workload",
    "WorkloadSpec",
    "WorkloadSpecError",
    "build_workload",
    "dump_profile",
    "environmental_profiles",
    "environmental_schema",
    "example2_temperature_distribution",
    "example3_event_distributions",
    "example_event",
    "generate_events",
    "generate_profiles",
    "get_profile",
    "list_profiles",
    "load_profile",
)


def test_workloads_profiles_surface_is_locked():
    from repro.workloads import profiles

    for name, expected in WORKLOADS_PROFILES_SURFACE.items():
        obj = getattr(profiles, name)
        assert _parameter_names(obj) == expected, (
            f"signature of repro.workloads.profiles.{name} changed"
        )


def test_workloads_exports_are_locked():
    import repro.workloads as workloads

    assert tuple(sorted(workloads.__all__)) == WORKLOADS_ALL


def test_filter_service_is_a_context_manager():
    """``with FilterService(...)`` drains and closes on exit (the
    delivery life-cycle is part of the locked surface)."""
    from repro.api import FilterService, where
    from repro.core.errors import DeliveryError

    with FilterService(environmental_schema(), delivery="threadpool") as service:
        received = []
        service.subscribe(
            where("temperature").at_least(20), sink=received.append, subscriber="a"
        )
        service.publish(example_event())
        service.drain()
        assert len(received) == 1
        assert service.stats().delivery.delivered == 1
    with pytest.raises(DeliveryError):
        service.publish(example_event())


def test_api_quickstart_flow_matches_docstring():
    """The package docstring's tour works verbatim."""
    from repro.api import FilterService, where

    service = FilterService(environmental_schema())
    alarm = service.subscribe(
        where("temperature").at_least(20) & where("humidity").between(80, 100),
        subscriber="alice",
    )
    outcome = service.publish(example_event())
    assert alarm.profile.profile_id in outcome.match_result.matched_profile_ids
    alarm.pause()
    alarm.modify(where("temperature").at_least(50))
    alarm.resume()
    alarm.cancel()
    assert service.stats().events == 1
