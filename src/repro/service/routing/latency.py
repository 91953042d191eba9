"""Link latency models for the broker overlay.

The paper evaluates a single-node filter; the "distributed" aspect of the
venue (and of the cited Siena/Elvin systems) enters through broker networks
where event routing crosses links with non-zero latency.  A model gives
each forwarded batch its delay, and
:class:`~repro.service.routing.service.NetworkService` stamps deliveries
on its own clock with it.  The models are deterministic (seeded) so runs
repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import RoutingError

__all__ = ["LatencyModel", "ConstantLatency", "UniformLatency"]


class LatencyModel:
    """Base class: returns a delay (in network time units) per message."""

    def delay(self, source: str, destination: str) -> float:
        """Return the latency of one message from ``source`` to ``destination``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every link has the same fixed latency."""

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value < 0:
            raise RoutingError("latency must be non-negative")

    def delay(self, source: str, destination: str) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` with a seeded generator."""

    def __init__(self, low: float, high: float, *, seed: int = 0) -> None:
        if low < 0 or high < low:
            raise RoutingError("need 0 <= low <= high for uniform latency")
        self._low = low
        self._high = high
        self._rng = random.Random(seed)

    def delay(self, source: str, destination: str) -> float:
        return self._rng.uniform(self._low, self._high)
