"""Profile covering.

In distributed notification services such as Siena, a broker only forwards a
subscription towards publishers when it is not *covered* by a subscription
it already forwarded: profile A covers profile B when every event matched by
B is also matched by A.  Covering keeps routing tables small and is the
standard complement to the early-rejection idea of the paper ("the concept
of early rejection on event-level is used for a distributed service").

Covering is decided per attribute on the predicate level:

* a don't-care predicate covers everything;
* an equality covers the same equality (and a one-of containing it);
* a range covers any range/equality whose accepted set lies inside it.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.domains import Domain
from repro.core.predicates import Equals, NotEquals, OneOf, Predicate, RangePredicate
from repro.core.profiles import Profile
from repro.core.schema import Schema

__all__ = ["predicate_covers", "profile_covers", "minimal_cover"]


def predicate_covers(general: Predicate, specific: Predicate, domain: Domain) -> bool:
    """Return ``True`` when ``general`` accepts every value ``specific`` accepts."""
    if general.is_dont_care:
        return True
    if specific.is_dont_care:
        # A constrained predicate can only cover * if it accepts the whole
        # domain, which we conservatively treat as "does not cover".
        return False
    if isinstance(general, Equals):
        if isinstance(specific, Equals):
            return general.value == specific.value
        if isinstance(specific, OneOf):
            return all(v == general.value for v in specific.values)
        return False
    if isinstance(general, OneOf):
        if isinstance(specific, Equals):
            return specific.value in general.values
        if isinstance(specific, OneOf):
            return all(v in general.values for v in specific.values)
        return False
    if isinstance(general, NotEquals):
        if isinstance(specific, Equals):
            return specific.value != general.value
        if isinstance(specific, OneOf):
            return general.value not in specific.values
        if isinstance(specific, NotEquals):
            return general.value == specific.value
        return False
    if isinstance(general, RangePredicate):
        if isinstance(specific, Equals):
            try:
                return general.matches(specific.value)
            except TypeError:  # pragma: no cover - non-numeric equality
                return False
        if isinstance(specific, OneOf):
            return all(general.matches(v) for v in specific.values)
        if isinstance(specific, RangePredicate):
            general_clamped = domain.clamp(general.interval)
            specific_clamped = domain.clamp(specific.interval)
            if specific_clamped is None:
                return True
            if general_clamped is None:
                return False
            return general_clamped.contains_interval(specific_clamped)
        return False
    return False


def profile_covers(general: Profile, specific: Profile, schema: Schema) -> bool:
    """Return ``True`` when ``general`` matches every event ``specific`` matches."""
    for attribute in schema:
        general_predicate = general.predicate(attribute.name)
        specific_predicate = specific.predicate(attribute.name)
        if not predicate_covers(general_predicate, specific_predicate, attribute.domain):
            return False
    return True


def minimal_cover(profiles: Iterable[Profile], schema: Schema) -> list[Profile]:
    """Return a minimal subset of ``profiles`` covering all of them.

    A profile is dropped when another retained profile covers it.  The result
    is what a broker forwards upstream; it is order-stable (earlier profiles
    win ties between mutually covering profiles).
    """
    retained: list[Profile] = []
    for candidate in profiles:
        covered = False
        for keeper in retained:
            if profile_covers(keeper, candidate, schema):
                covered = True
                break
        if covered:
            continue
        # Remove previously retained profiles that the candidate covers.
        retained = [
            keeper
            for keeper in retained
            if not profile_covers(candidate, keeper, schema)
        ]
        retained.append(candidate)
    return retained
