"""Distribution interfaces.

The paper models the value of each event attribute as a random variable
``X`` whose distribution is given either as a continuous density function or
as discrete probability values (Section 3).  The continuous distribution of
an attribute "can be reformed as a distribution of, at the most, ``2p - 1``
discrete values" by integrating the density over each defined sub-range,
plus the probability of the zero-subdomain ``x_0``.

This module defines the :class:`Distribution` interface used everywhere in
the library and the :class:`SubrangeDistribution` — the discretised form
obtained by projecting a distribution onto an
:class:`~repro.core.subranges.AttributePartition`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.domains import Domain
from repro.core.errors import DistributionError
from repro.core.intervals import Interval
from repro.core.subranges import AttributePartition, Subrange

__all__ = ["Distribution", "SubrangeDistribution", "project_onto_partition"]

_PROBABILITY_TOLERANCE = 1e-9


class Distribution:
    """Probability distribution over one attribute domain."""

    #: The domain this distribution is defined over.
    domain: Domain

    def probability_of_value(self, value: object) -> float:
        """Return ``P(X = value)``.

        For continuous distributions this is zero except for degenerate
        point masses; it is primarily useful for discrete domains.
        """
        raise NotImplementedError

    def probability_of_interval(self, interval: Interval) -> float:
        """Return ``P(X in interval)`` (interval over values or, for
        :class:`~repro.core.domains.DiscreteDomain`, over natural-order
        indexes)."""
        raise NotImplementedError

    def sample(self, rng: random.Random) -> object:
        """Draw one value from the distribution using ``rng``."""
        raise NotImplementedError

    def mean(self) -> float:
        """Return the mean of the distribution (numeric domains only)."""
        raise NotImplementedError

    # -- derived helpers -----------------------------------------------------
    def slab_masses(self, boundaries: Sequence[float]) -> tuple[list[float], list[float]]:
        """Return the masses of the slabs that sorted ``boundaries`` cut the line into.

        ``gaps[j]`` is the mass strictly between boundaries ``j - 1`` and
        ``j`` (gap 0 and gap ``n`` are unbounded on their outer side) and
        ``points[i]`` the mass at boundary ``i``.  This default prices
        each slab as an :class:`Interval` clamped to the domain through
        :meth:`probability_of_interval`; an empty clamp and a point at an
        infinite boundary have no mass.  A distribution that can read the
        masses off the boundaries directly overrides it
        (:meth:`DiscreteDistribution.slab_masses
        <repro.distributions.discrete.DiscreteDistribution.slab_masses>`).
        """
        edges = [-math.inf, *boundaries, math.inf]
        gaps = [
            self._mass(low, high, False, False) if low < high else 0.0
            for low, high in zip(edges, edges[1:])
        ]
        points = [self._mass(value, value, True, True) for value in boundaries]
        return gaps, points

    def _mass(self, low, high, low_closed: bool, high_closed: bool) -> float:
        """Return the mass of the interval with these ends, clamped to the
        domain: what :meth:`probability_of_interval` answers for the clamped
        interval, and ``0.0`` when the clamp is empty.  This default builds
        the interval; a distribution that can read the mass off the ends
        overrides it (:class:`~repro.distributions.discrete.DiscreteDistribution`).
        """
        clamped = self.domain.clamp(Interval(low, high, low_closed, high_closed))
        return 0.0 if clamped is None else self.probability_of_interval(clamped)

    def probability_of_subrange(self, subrange: Subrange) -> float:
        """Return the probability mass of one defined sub-range."""
        if subrange.value is not None:
            return self.probability_of_value(subrange.value)
        if subrange.interval is None:
            raise DistributionError("subrange carries neither a value nor an interval")
        return self.probability_of_interval(subrange.interval)

    def validate(self) -> None:
        """Check that the distribution integrates/sums to one."""
        total = self.probability_of_interval(self.domain.full_interval())
        if abs(total - 1.0) > 1e-6:
            raise DistributionError(
                f"distribution mass over the full domain is {total:.6f}, expected 1.0"
            )


@dataclass(frozen=True)
class SubrangeDistribution:
    """A distribution projected onto the sub-ranges of one attribute.

    This is exactly the discretisation of Section 3: ``probabilities[i]`` is
    ``P(X = x_i)`` for the ``i``-th defined sub-range (natural order), and
    :attr:`zero_probability` is ``P(X = x_0)`` — the probability that an
    event value falls into the zero-subdomain ``D_0``.
    """

    partition: AttributePartition
    probabilities: tuple[float, ...]
    zero_probability: float

    def __post_init__(self) -> None:
        if len(self.probabilities) != len(self.partition.subranges):
            raise DistributionError(
                "one probability per defined sub-range is required "
                f"({len(self.partition.subranges)} sub-ranges, "
                f"{len(self.probabilities)} probabilities)"
            )
        if any(p < -_PROBABILITY_TOLERANCE for p in self.probabilities):
            raise DistributionError("sub-range probabilities must be non-negative")
        if self.zero_probability < -_PROBABILITY_TOLERANCE:
            raise DistributionError("zero-subdomain probability must be non-negative")
        total = sum(self.probabilities) + self.zero_probability
        if total > 1.0 + 1e-6:
            raise DistributionError(
                f"sub-range probabilities sum to {total:.6f} > 1"
            )

    @property
    def subranges(self) -> Sequence[Subrange]:
        return self.partition.subranges

    def probability(self, subrange: Subrange) -> float:
        """Return the probability of one sub-range of the partition."""
        return self.probabilities[subrange.index]

    def probability_by_index(self, index: int) -> float:
        return self.probabilities[index]

    def total_defined_probability(self) -> float:
        """Return ``P(X != x_0)`` — mass on the defined sub-ranges."""
        return sum(self.probabilities)

    def as_mapping(self) -> Mapping[int, float]:
        """Return ``{subrange index: probability}`` plus ``-1`` for ``x_0``."""
        mapping = {s.index: p for s, p in zip(self.partition.subranges, self.probabilities)}
        mapping[-1] = self.zero_probability
        return mapping

    def normalised(self) -> "SubrangeDistribution":
        """Return a copy rescaled so the total mass is exactly one."""
        total = self.total_defined_probability() + self.zero_probability
        if total <= 0:
            raise DistributionError("cannot normalise a zero-mass distribution")
        return SubrangeDistribution(
            self.partition,
            tuple(p / total for p in self.probabilities),
            self.zero_probability / total,
        )


def project_onto_partition(
    distribution: Distribution, partition: AttributePartition
) -> SubrangeDistribution:
    """Project ``distribution`` onto the defined sub-ranges of ``partition``.

    The probability of each defined sub-range is the integral of the density
    (or sum of the probability masses) over the sub-range; the remaining mass
    is assigned to the zero-subdomain ``x_0``.
    """
    probabilities = []
    for subrange in partition.subranges:
        probabilities.append(max(0.0, distribution.probability_of_subrange(subrange)))
    zero = max(0.0, 1.0 - sum(probabilities))
    return SubrangeDistribution(partition, tuple(probabilities), zero)
