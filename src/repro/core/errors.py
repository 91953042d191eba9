"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SchemaError",
    "DomainError",
    "PredicateError",
    "ProfileError",
    "EventError",
    "DistributionError",
    "MatchingError",
    "TreeConstructionError",
    "SelectivityError",
    "ServiceError",
    "SubscriptionError",
    "DeliveryError",
    "StoreError",
    "StoreCorruptionError",
    "RoutingError",
    "WorkloadError",
    "WorkloadSpecError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class SchemaError(ReproError):
    """A schema is malformed (duplicate attributes, unknown attribute, ...)."""


class DomainError(ReproError):
    """A value does not belong to an attribute domain, or a domain is invalid."""


class PredicateError(ReproError):
    """A predicate is malformed or incompatible with its attribute domain."""


class ProfileError(ReproError):
    """A profile is malformed (unknown attribute, conflicting predicates, ...)."""


class EventError(ReproError):
    """An event is malformed (missing attribute, value outside the domain, ...)."""


class DistributionError(ReproError):
    """A probability distribution is malformed or used incorrectly."""


class MatchingError(ReproError):
    """A matcher was used incorrectly (unbuilt index, unknown profile id, ...)."""


class TreeConstructionError(MatchingError):
    """The profile tree could not be constructed."""


class SelectivityError(ReproError):
    """A selectivity measure could not be evaluated."""


class ServiceError(ReproError):
    """Generic failure inside the event notification service layer."""


class SubscriptionError(ServiceError):
    """A subscription operation failed (duplicate id, unknown id, ...)."""


class DeliveryError(ServiceError):
    """A notification-delivery operation failed (closed executor, ...)."""


class StoreError(ServiceError):
    """A durable subscription-store operation failed (closed store, ...)."""


class StoreCorruptionError(StoreError):
    """A subscription store's journal or snapshot is corrupt beyond repair.

    A *torn tail* — the final record truncated by a crash mid-write — is
    not corruption: stores repair it silently on open.  This error means
    damage in the interior of the log, which replay cannot skip safely.
    """


class RoutingError(ServiceError):
    """A broker-network routing operation failed."""


class WorkloadError(ReproError):
    """A workload specification is invalid."""


class WorkloadSpecError(WorkloadError):
    """A declarative scenario-profile file is invalid.

    ``key`` names the offending location as a dotted path into the file
    (e.g. ``"attributes.price.event_distribution"``), so a loader failure
    points at the exact table entry to fix.  The path is always part of
    ``str(error)`` too.
    """

    def __init__(self, key: str, message: str) -> None:
        super().__init__(f"{key}: {message}")
        self.key = key


class ExperimentError(ReproError):
    """An experiment definition or run is invalid."""
