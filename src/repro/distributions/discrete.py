"""Discrete probability distributions.

The evaluation prototype of the paper supports equality tests over
enumerable attribute domains and simulates event/profile distributions with
per-value counters (Section 4.2 "Statistics").  The classes here provide the
corresponding per-value probability distributions, including the uniform
("equally distributed") baseline, peaked distributions ("a small range of
values is requested by many users"), falling/rising ramps and discretised
Gaussians, all of which appear in the test scenarios of Section 4.3.
"""

from __future__ import annotations

import bisect
import math
import random
from itertools import accumulate
from typing import Mapping, Sequence

from repro.core.domains import DiscreteDomain, Domain, IntegerDomain
from repro.core.errors import DistributionError
from repro.core.intervals import Interval
from repro.distributions.base import Distribution

__all__ = [
    "DiscreteDistribution",
    "uniform_discrete",
    "peaked_discrete",
    "falling_discrete",
    "rising_discrete",
    "gaussian_discrete",
    "relocated_gaussian_discrete",
]


class DiscreteDistribution(Distribution):
    """A probability mass function over a finite attribute domain."""

    def __init__(self, domain: Domain, weights: Mapping[object, float]) -> None:
        if not isinstance(domain, (DiscreteDomain, IntegerDomain)):
            raise DistributionError(
                "DiscreteDistribution requires a DiscreteDomain or IntegerDomain"
            )
        if not weights:
            raise DistributionError("at least one value must carry probability mass")
        total = float(sum(weights.values()))
        if total <= 0:
            raise DistributionError("total probability mass must be positive")
        cleaned: dict[object, float] = {}
        for value, weight in weights.items():
            if weight < 0:
                raise DistributionError(f"negative weight {weight} for value {value!r}")
            if value not in domain:
                raise DistributionError(f"value {value!r} is outside the domain")
            if weight > 0:
                cleaned[value] = float(weight) / total
        self._install(domain, cleaned)

    @classmethod
    def _of_counts(cls, domain: Domain, counts: Mapping[object, int]) -> "DiscreteDistribution":
        """Build the distribution of positive counts the caller already checked.

        The unchecked half of the constructor, as
        :meth:`~repro.distributions.estimation.FrequencyCounter._add_counts` is of
        ``record``: a frequency counter only ever holds positive counts of
        values it admitted into ``domain``, so no weight or membership is
        checked again.  The result equals ``DiscreteDistribution(domain,
        counts)`` field by field.
        """
        total = float(sum(counts.values()))
        distribution = cls.__new__(cls)
        distribution._install(
            domain, {value: float(count) / total for value, count in counts.items()}
        )
        return distribution

    def _install(self, domain: Domain, pmf: dict[object, float]) -> None:
        """Adopt a checked, normalised ``pmf`` and build the prefix-sum tables.

        The support is ordered the domain's natural way: by value on an
        IntegerDomain, by natural-order index on a DiscreteDomain (sorting
        the indexes of the support, not scanning the whole domain).
        Sampling bisects ``_cumulative`` (deterministic given a seeded
        random.Random) and interval queries difference it.
        """
        self.domain = domain
        self._pmf = pmf
        #: Sorted positions the interval queries bisect: the values
        #: themselves on an IntegerDomain, their natural-order indexes on
        #: a DiscreteDomain (whose intervals range over indexes).
        self._positions: Sequence
        if isinstance(domain, DiscreteDomain):
            self._positions = sorted(map(domain.index_of, pmf))
            ordered = domain.ordered_values
            self._values = [ordered[position] for position in self._positions]
        else:
            self._values = self._positions = sorted(pmf)
        self._cumulative = list(accumulate(pmf[value] for value in self._values))

    # -- helpers ---------------------------------------------------------------
    def support(self) -> list:
        """Return the values carrying positive probability, in natural order."""
        return list(self._values)

    def pmf(self) -> Mapping[object, float]:
        """Return the full probability mass function as a mapping."""
        return dict(self._pmf)

    # -- Distribution interface -------------------------------------------------
    def probability_of_value(self, value: object) -> float:
        return self._pmf.get(value, 0.0)

    def probability_of_interval(self, interval: Interval) -> float:
        """Return the mass inside ``interval`` in O(log n)."""
        return self._mass(interval.low, interval.high, interval.low_closed, interval.high_closed)

    def _mass(self, low, high, low_closed: bool, high_closed: bool) -> float:
        """Two bisects over the sorted support positions pick the half-open
        run of support entries the ends enclose — a closed bound keeps a
        position equal to it, an open bound drops it — and the run's mass
        is a prefix-sum difference.  No interval is built, and none is
        clamped: every position lies in the domain."""
        positions = self._positions
        first = (
            bisect.bisect_left(positions, low)
            if low_closed
            else bisect.bisect_right(positions, low)
        )
        stop = (
            bisect.bisect_right(positions, high)
            if high_closed
            else bisect.bisect_left(positions, high)
        )
        if stop <= first:
            return 0.0
        cumulative = self._cumulative
        return cumulative[stop - 1] - (cumulative[first - 1] if first else 0.0)

    def slab_masses(self, boundaries: Sequence[float]) -> tuple[list[float], list[float]]:
        """Return the masses of the slabs that sorted ``boundaries`` cut the line into.

        ``gaps[j]`` is the mass strictly between boundaries ``j - 1`` and
        ``j`` (gap 0 and gap ``n`` are unbounded on their outer side) and
        ``points[i]`` the mass at boundary ``i``: bit for bit what
        :meth:`probability_of_interval` answers for that open gap or
        point, from one ``bisect_left`` / ``bisect_right`` pair per
        boundary and no interval object.  (The prefix table gains a
        leading ``0.0`` so an empty run is ``x - x`` and a run from the
        first entry ``x - 0.0``, both exactly what the query returns.)
        """
        positions = self._positions
        below = [bisect.bisect_left(positions, boundary) for boundary in boundaries]
        through = [
            bisect.bisect_right(positions, boundary, first)
            for boundary, first in zip(boundaries, below)
        ]
        prefix = [0.0, *self._cumulative]
        points = [prefix[stop] - prefix[first] for first, stop in zip(below, through)]
        gaps = [
            prefix[stop] - prefix[first]
            for first, stop in zip([0, *through], [*below, len(positions)])
        ]
        return gaps, points

    def sample(self, rng: random.Random) -> object:
        u = rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        index = min(index, len(self._values) - 1)
        return self._values[index]

    def mean(self) -> float:
        if isinstance(self.domain, DiscreteDomain):
            raise DistributionError("mean is undefined for unordered discrete domains")
        return sum(float(v) * p for v, p in self._pmf.items())

    def reweighted(self, overrides: Mapping[object, float]) -> "DiscreteDistribution":
        """Return a copy with some weights replaced (then renormalised).

        This mirrors the paper's statistics objects whose counters are
        "manipulated in order to simulate a distribution".
        """
        weights = dict(self._pmf)
        weights.update(overrides)
        return DiscreteDistribution(self.domain, weights)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"DiscreteDistribution(support={len(self._values)} values)"


def _domain_values(domain: Domain) -> Sequence:
    if isinstance(domain, DiscreteDomain):
        return list(domain.values())
    if isinstance(domain, IntegerDomain):
        return list(domain.values())
    raise DistributionError("a finite domain is required")


def uniform_discrete(domain: Domain) -> DiscreteDistribution:
    """Return the "equally distributed" baseline over a finite domain."""
    values = _domain_values(domain)
    weight = 1.0 / len(values)
    return DiscreteDistribution(domain, {v: weight for v in values})


def peaked_discrete(
    domain: Domain,
    *,
    peak_fraction: float,
    peak_mass: float,
    location: str = "high",
) -> DiscreteDistribution:
    """Return a distribution with a peak over a small range of the domain.

    ``peak_fraction`` of the values (rounded up, at least one) carry
    ``peak_mass`` of the probability, the rest is spread uniformly.  The peak
    sits at the low end, the high end or the centre of the natural order
    (``location`` in ``{"low", "high", "center"}``).  This models the
    "95 % high" / "95 % low" profile distributions of Fig. 5 and the
    catastrophe-warning scenario where "users are mainly interested in a
    small range of values".
    """
    if not 0 < peak_fraction <= 1:
        raise DistributionError("peak_fraction must be in (0, 1]")
    if not 0 <= peak_mass <= 1:
        raise DistributionError("peak_mass must be in [0, 1]")
    if location not in {"low", "high", "center"}:
        raise DistributionError("location must be one of 'low', 'high', 'center'")
    values = _domain_values(domain)
    count = len(values)
    peak_count = max(1, math.ceil(peak_fraction * count))
    if location == "low":
        peak_values = values[:peak_count]
    elif location == "high":
        peak_values = values[count - peak_count :]
    else:
        start = max(0, (count - peak_count) // 2)
        peak_values = values[start : start + peak_count]
    peak_set = set(peak_values)
    rest_values = [v for v in values if v not in peak_set]
    weights: dict[object, float] = {}
    for v in peak_values:
        weights[v] = peak_mass / len(peak_values)
    if rest_values:
        rest_mass = 1.0 - peak_mass
        for v in rest_values:
            weights[v] = rest_mass / len(rest_values)
    return DiscreteDistribution(domain, weights)


def falling_discrete(domain: Domain) -> DiscreteDistribution:
    """Return a linearly decreasing distribution over the natural order."""
    values = _domain_values(domain)
    count = len(values)
    weights = {v: float(count - i) for i, v in enumerate(values)}
    return DiscreteDistribution(domain, weights)


def rising_discrete(domain: Domain) -> DiscreteDistribution:
    """Return a linearly increasing distribution over the natural order."""
    values = _domain_values(domain)
    weights = {v: float(i + 1) for i, v in enumerate(values)}
    return DiscreteDistribution(domain, weights)


def gaussian_discrete(
    domain: Domain, *, mean_fraction: float = 0.5, stddev_fraction: float = 0.15
) -> DiscreteDistribution:
    """Return a discretised (truncated) Gauss distribution.

    ``mean_fraction`` and ``stddev_fraction`` position the bell relative to
    the natural order of the domain (0 = first value, 1 = last value).  The
    paper uses the plain Gauss distribution and a *relocated* Gauss whose
    centre is shifted towards the low or high values (Section 4.3).
    """
    if stddev_fraction <= 0:
        raise DistributionError("stddev_fraction must be positive")
    values = _domain_values(domain)
    count = len(values)
    mean = mean_fraction * (count - 1)
    stddev = max(stddev_fraction * count, 1e-9)
    weights = {
        v: math.exp(-0.5 * ((i - mean) / stddev) ** 2) for i, v in enumerate(values)
    }
    return DiscreteDistribution(domain, weights)


def relocated_gaussian_discrete(
    domain: Domain, *, location: str = "low", stddev_fraction: float = 0.15
) -> DiscreteDistribution:
    """Return the paper's "relocated Gauss": the bell shifted to one end."""
    if location not in {"low", "high"}:
        raise DistributionError("location must be 'low' or 'high'")
    mean_fraction = 0.08 if location == "low" else 0.92
    return gaussian_discrete(
        domain, mean_fraction=mean_fraction, stddev_fraction=stddev_fraction
    )
