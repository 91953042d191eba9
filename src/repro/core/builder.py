"""Fluent profile builder.

Profiles are conjunctions of per-attribute predicates (Section 3 of the
paper); hand-building them means spelling out a predicate mapping::

    Profile("P1", {"symbol": Equals("MSFT"),
                   "price": RangePredicate.between(10, 20)})

:func:`where` offers the same thing as a readable chain::

    where("symbol").eq("MSFT") & where("price").between(10, 20)

Each comparison method returns a :class:`ProfileBuilder`; builders
conjoin with ``&`` (or by chaining ``.where(...)``) and compile with
:meth:`ProfileBuilder.build` into a plain
:class:`~repro.core.profiles.Profile`.  Compilation is **bit-identical**
to the hand-built mapping: the builder stores the very predicate objects
the comparison methods create, in chain order, so the compiled profile's
``predicates`` mapping — and therefore every matcher's
:class:`~repro.matching.interfaces.MatchResult`, including operation
accounting — is indistinguishable from a hand-built profile (the test
suite locks this property with hypothesis across the tree, index and
auto engines).

A profile is a conjunction with at most one predicate per attribute, so
constraining the same attribute twice raises
:class:`~repro.core.errors.ProfileError` at build time rather than
silently overwriting.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.errors import ProfileError
from repro.core.predicates import (
    DONT_CARE,
    Equals,
    NotEquals,
    OneOf,
    Predicate,
    RangePredicate,
)
from repro.core.profiles import Profile

__all__ = ["AttributeClause", "ProfileBuilder", "ProfileCompiler", "build_profiles", "where"]


def where(attribute: str) -> "AttributeClause":
    """Start a fluent profile: ``where("price").between(10, 20)``."""
    return AttributeClause(attribute)


class AttributeClause:
    """One attribute awaiting its comparison (returned by :func:`where`).

    Every comparison method returns a :class:`ProfileBuilder` holding the
    accumulated predicates, so clauses chain and conjoin freely.
    """

    __slots__ = ("_attribute", "_base")

    def __init__(self, attribute: str, base: "ProfileBuilder | None" = None) -> None:
        if not attribute:
            raise ProfileError("attribute name must be a non-empty string")
        self._attribute = attribute
        self._base = base

    def _bind(self, predicate: Predicate) -> "ProfileBuilder":
        base = self._base if self._base is not None else ProfileBuilder()
        return base._with(self._attribute, predicate)

    # -- comparisons -----------------------------------------------------------
    def eq(self, value: object) -> "ProfileBuilder":
        """Equality: ``attribute = value``."""
        return self._bind(Equals(value))

    def ne(self, value: object) -> "ProfileBuilder":
        """Inequality: ``attribute != value``."""
        return self._bind(NotEquals(value))

    def one_of(self, *values: object) -> "ProfileBuilder":
        """Set containment: ``one_of("A", "B")`` or ``one_of(["A", "B"])``."""
        if len(values) == 1 and not isinstance(values[0], (str, bytes)):
            try:
                values = tuple(values[0])  # type: ignore[arg-type]
            except TypeError:
                pass
        return self._bind(OneOf(values))

    def between(
        self,
        low: float,
        high: float,
        *,
        low_closed: bool = True,
        high_closed: bool = True,
    ) -> "ProfileBuilder":
        """Range: ``low <= attribute <= high`` (open bounds via keywords)."""
        return self._bind(
            RangePredicate.between(low, high, low_closed=low_closed, high_closed=high_closed)
        )

    def at_least(self, low: float) -> "ProfileBuilder":
        """``attribute >= low``."""
        return self._bind(RangePredicate.at_least(low))

    def at_most(self, high: float) -> "ProfileBuilder":
        """``attribute <= high``."""
        return self._bind(RangePredicate.at_most(high))

    def greater_than(self, low: float) -> "ProfileBuilder":
        """``attribute > low``."""
        return self._bind(RangePredicate.greater_than(low))

    def less_than(self, high: float) -> "ProfileBuilder":
        """``attribute < high``."""
        return self._bind(RangePredicate.less_than(high))

    def any_value(self) -> "ProfileBuilder":
        """Explicit don't-care (the paper's ``*``) — documents intent."""
        return self._bind(DONT_CARE)

    def satisfies(self, predicate: Predicate) -> "ProfileBuilder":
        """Attach a ready-made :class:`Predicate` (escape hatch)."""
        if not isinstance(predicate, Predicate):
            raise ProfileError(
                f"satisfies() needs a Predicate, got {type(predicate).__name__}"
            )
        return self._bind(predicate)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"where({self._attribute!r})"


class ProfileBuilder:
    """Accumulated conjunction of per-attribute predicates."""

    __slots__ = ("_predicates",)

    def __init__(self, predicates: Mapping[str, Predicate] | None = None) -> None:
        self._predicates: dict[str, Predicate] = dict(predicates or {})

    def _with(self, attribute: str, predicate: Predicate) -> "ProfileBuilder":
        if attribute in self._predicates:
            raise ProfileError(
                f"attribute {attribute!r} is already constrained; a profile is a "
                "conjunction with at most one predicate per attribute"
            )
        merged = dict(self._predicates)
        merged[attribute] = predicate
        return ProfileBuilder(merged)

    def where(self, attribute: str) -> AttributeClause:
        """Continue the chain: ``where("a").eq(1).where("b").between(2, 3)``."""
        return AttributeClause(attribute, base=self)

    def __and__(self, other: "ProfileBuilder") -> "ProfileBuilder":
        """Conjoin two builders; overlapping attributes raise."""
        if not isinstance(other, ProfileBuilder):
            return NotImplemented
        merged = self
        for attribute, predicate in other._predicates.items():
            merged = merged._with(attribute, predicate)
        return merged

    # -- inspection ------------------------------------------------------------
    def predicates(self) -> dict[str, Predicate]:
        """Return a copy of the accumulated predicate mapping."""
        return dict(self._predicates)

    def constrained_attributes(self) -> list[str]:
        """Return the constrained attribute names, in chain order."""
        return [
            name
            for name, predicate in self._predicates.items()
            if not predicate.is_dont_care
        ]

    def __len__(self) -> int:
        return len(self._predicates)

    # -- compilation -----------------------------------------------------------
    def build(
        self,
        profile_id: str,
        *,
        subscriber: str | None = None,
        priority: int = 0,
    ) -> Profile:
        """Compile to a :class:`~repro.core.profiles.Profile`.

        The result is bit-identical to hand-building the profile with the
        same predicate mapping: the builder hands over its own predicate
        objects in chain order.
        """
        return Profile(
            profile_id,
            dict(self._predicates),
            subscriber=subscriber,
            priority=priority,
        )

    def __repr__(self) -> str:  # pragma: no cover - display helper
        parts = " & ".join(
            f"{name} {predicate.describe()}" for name, predicate in self._predicates.items()
        )
        return f"ProfileBuilder({parts or '*'})"


def build_profiles(
    builders: Iterable[ProfileBuilder],
    *,
    id_prefix: str = "profile",
    subscriber: str | None = None,
) -> list[Profile]:
    """Compile many builders with generated ids (``profile-1``, ...)."""
    return [
        builder.build(f"{id_prefix}-{index}", subscriber=subscriber)
        for index, builder in enumerate(builders, start=1)
    ]


class ProfileCompiler:
    """Turn a facade's ``subscribe`` arguments into a :class:`Profile`.

    A builder compiles under ``profile_id``, or under the next
    ``profile-N`` that ``taken`` does not claim (a user may have
    hand-picked ``profile-3``); a ready-made profile passes through.
    Each facade owns one, with its own notion of which ids are taken.
    """

    def __init__(self, taken: Callable[[str], bool]) -> None:
        self._taken = taken
        self._counter = 0

    def _next_id(self) -> str:
        while True:
            self._counter += 1
            candidate = f"profile-{self._counter}"
            if not self._taken(candidate):
                return candidate

    def compile(
        self,
        profile: Profile | ProfileBuilder,
        profile_id: str | None,
        subscriber: str,
    ) -> Profile:
        if isinstance(profile, ProfileBuilder):
            if profile_id is None:
                profile_id = self._next_id()
            return profile.build(profile_id, subscriber=subscriber)
        if not isinstance(profile, Profile):
            raise ProfileError(
                f"subscribe() needs a Profile or ProfileBuilder, got {type(profile).__name__}"
            )
        if profile_id is not None and profile_id != profile.profile_id:
            raise ProfileError(
                f"profile_id={profile_id!r} conflicts with the profile's own id "
                f"{profile.profile_id!r}; pass one or the other"
            )
        return profile
