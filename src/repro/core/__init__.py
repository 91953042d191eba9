"""Core data model: schemas, domains, events, predicates, profiles, sub-ranges.

This package implements the event/profile model of Section 3 of the paper:
events and profiles are collections of ``(attribute, value)`` pairs over a
firm attribute set, and each attribute's domain is decomposed into the at
most ``2p - 1`` sub-ranges referred to by the ``p`` profiles plus the
zero-subdomain ``D_0``.
"""

from repro.core.builder import AttributeClause, ProfileBuilder, build_profiles, where
from repro.core.domains import ContinuousDomain, DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import (
    DistributionError,
    DomainError,
    EventError,
    ExperimentError,
    MatchingError,
    PredicateError,
    ProfileError,
    ReproError,
    RoutingError,
    SchemaError,
    SelectivityError,
    ServiceError,
    SubscriptionError,
    TreeConstructionError,
    WorkloadError,
)
from repro.core.events import Event, column_counts
from repro.core.intervals import Interval, decompose_intervals
from repro.core.predicates import (
    DONT_CARE,
    DontCare,
    Equals,
    NotEquals,
    OneOf,
    Predicate,
    RangePredicate,
)
from repro.core.profiles import Profile, ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.core.subranges import (
    AttributePartition,
    Subrange,
    build_partition,
    build_partitions,
)

__all__ = [
    "Attribute",
    "AttributeClause",
    "AttributePartition",
    "ContinuousDomain",
    "DiscreteDomain",
    "Domain",
    "DomainError",
    "DONT_CARE",
    "DontCare",
    "DistributionError",
    "Equals",
    "Event",
    "EventError",
    "ExperimentError",
    "IntegerDomain",
    "Interval",
    "MatchingError",
    "NotEquals",
    "OneOf",
    "Predicate",
    "PredicateError",
    "Profile",
    "ProfileBuilder",
    "ProfileError",
    "ProfileSet",
    "RangePredicate",
    "ReproError",
    "RoutingError",
    "Schema",
    "SchemaError",
    "SelectivityError",
    "ServiceError",
    "Subrange",
    "SubscriptionError",
    "TreeConstructionError",
    "WorkloadError",
    "build_partition",
    "build_partitions",
    "build_profiles",
    "column_counts",
    "decompose_intervals",
    "profile",
    "where",
]
