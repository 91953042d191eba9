"""Profiles (subscriptions) and profile sets.

A profile is a set of predicates over ``(attribute, value)`` pairs; a
profile matches an event when every specified predicate is satisfied
(attributes not mentioned are don't-care, written ``*`` in the paper).  The
set of profiles registered with an ENS is denoted ``P`` with ``|P| = p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.errors import ProfileError
from repro.core.events import Event
from repro.core.predicates import DONT_CARE, Equals, Predicate
from repro.core.schema import Schema

__all__ = ["Profile", "ProfileSet", "profile"]


@dataclass(frozen=True)
class Profile:
    """A single user profile (subscription).

    Parameters
    ----------
    profile_id:
        Unique identifier within a :class:`ProfileSet` (e.g. ``"P1"``).
    predicates:
        Mapping of attribute name to :class:`~repro.core.predicates.Predicate`.
        Attributes absent from the mapping (or mapped to
        :data:`~repro.core.predicates.DONT_CARE`) are unconstrained.
    subscriber:
        Optional identifier of the subscribing user; used by the service
        layer for notification delivery and per-profile statistics.
    priority:
        Optional user-assigned priority; the paper's user-centric measures
        (V2/V3) favour "profiles with high priority", which in our workloads
        corresponds to profiles over frequent profile values.
    """

    profile_id: str
    predicates: Mapping[str, Predicate]
    subscriber: str | None = None
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.profile_id:
            raise ProfileError("profile_id must be a non-empty string")
        cleaned: dict[str, Predicate] = {}
        for name, predicate in dict(self.predicates).items():
            if not isinstance(predicate, Predicate):
                raise ProfileError(
                    f"predicate for attribute {name!r} must be a Predicate, "
                    f"got {type(predicate).__name__}"
                )
            cleaned[name] = predicate
        object.__setattr__(self, "predicates", cleaned)

    # -- predicate access -----------------------------------------------------
    def predicate(self, attribute: str) -> Predicate:
        """Return the predicate for ``attribute`` (don't-care when absent)."""
        return self.predicates.get(attribute, DONT_CARE)

    def constrains(self, attribute: str) -> bool:
        """Return ``True`` when the profile constrains ``attribute``."""
        pred = self.predicates.get(attribute)
        return pred is not None and not pred.is_dont_care

    def constrained_attributes(self) -> list[str]:
        """Return the names of all constrained attributes."""
        return [name for name in self.predicates if self.constrains(name)]

    # -- matching -------------------------------------------------------------
    def matches(self, event: Event) -> bool:
        """Return ``True`` when the event satisfies every predicate.

        This is the reference (oracle) semantics used by the naive matcher
        and by the test suite to validate the tree matcher.
        """
        for name, predicate in self.predicates.items():
            if predicate.is_dont_care:
                continue
            if name not in event:
                return False
            if not predicate.matches(event[name]):
                return False
        return True

    # -- validation -------------------------------------------------------------
    def validate(self, schema: Schema) -> None:
        """Validate all predicates against ``schema``."""
        for name, predicate in self.predicates.items():
            if name not in schema:
                raise ProfileError(
                    f"profile {self.profile_id!r} constrains unknown attribute {name!r}"
                )
            if not predicate.is_dont_care:
                try:
                    predicate.validate(schema.domain(name))
                except Exception as exc:
                    raise ProfileError(
                        f"profile {self.profile_id!r}, attribute {name!r}: {exc}"
                    ) from exc

    def __str__(self) -> str:  # pragma: no cover - display helper
        parts = []
        for name, predicate in self.predicates.items():
            parts.append(f"{name} {predicate.describe()}")
        body = "; ".join(parts) if parts else "*"
        return f"profile[{self.profile_id}]({body})"


def profile(
    profile_id: str,
    subscriber: str | None = None,
    priority: int = 0,
    **constraints: object,
) -> Profile:
    """Convenience constructor turning plain values into predicates.

    ``profile("P1", temperature=RangePredicate.at_least(35), humidity=90)``
    builds a profile where plain (non-:class:`Predicate`) values become
    equality tests and ``None`` becomes don't-care, mirroring the terse
    notation of the paper's examples.
    """
    predicates: dict[str, Predicate] = {}
    for name, value in constraints.items():
        if value is None:
            predicates[name] = DONT_CARE
        elif isinstance(value, Predicate):
            predicates[name] = value
        else:
            predicates[name] = Equals(value)
    return Profile(profile_id, predicates, subscriber=subscriber, priority=priority)


class ProfileSet:
    """The set ``P`` of profiles registered with the service.

    Profile ids are unique; insertion order is preserved (it defines the
    natural per-profile reporting order used by Fig. 5(b)).
    """

    def __init__(self, schema: Schema, profiles: Iterable[Profile] = ()) -> None:
        self._schema = schema
        self._profiles: dict[str, Profile] = {}
        for item in profiles:
            self.add(item)

    # -- mutation ---------------------------------------------------------------
    def add(self, item: Profile) -> None:
        """Add a profile, validating it against the schema."""
        if item.profile_id in self._profiles:
            raise ProfileError(f"duplicate profile id {item.profile_id!r}")
        item.validate(self._schema)
        self._profiles[item.profile_id] = item

    def _admit(self, item: Profile) -> None:
        """Add a profile the caller has already validated against the schema.

        Only the duplicate-id check runs; the broker's subscription registry
        validates every profile it accepts before it reaches the filter.
        """
        if item.profile_id in self._profiles:
            raise ProfileError(f"duplicate profile id {item.profile_id!r}")
        self._profiles[item.profile_id] = item

    def remove(self, profile_id: str) -> Profile:
        """Remove and return the profile with ``profile_id``."""
        try:
            return self._profiles.pop(profile_id)
        except KeyError as exc:
            raise ProfileError(f"unknown profile id {profile_id!r}") from exc

    # -- access -----------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    def __len__(self) -> int:
        return len(self._profiles)

    def __iter__(self) -> Iterator[Profile]:
        return iter(self._profiles.values())

    def __contains__(self, profile_id: object) -> bool:
        return profile_id in self._profiles

    def get(self, profile_id: str) -> Profile:
        try:
            return self._profiles[profile_id]
        except KeyError as exc:
            raise ProfileError(f"unknown profile id {profile_id!r}") from exc

    def ids(self) -> list[str]:
        """Return all profile ids in insertion order."""
        return list(self._profiles)

    def profiles(self) -> Sequence[Profile]:
        """Return all profiles in insertion order."""
        return list(self._profiles.values())

    # -- reference matching -------------------------------------------------------
    def matching(self, event: Event) -> list[Profile]:
        """Return all profiles matching ``event`` (oracle semantics)."""
        return [p for p in self if p.matches(event)]

    def constrained_by_attribute(self, attribute: str) -> list[Profile]:
        """Return the profiles that constrain ``attribute``."""
        return [p for p in self if p.constrains(attribute)]

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"ProfileSet(p={len(self)}, schema={self._schema!r})"
