"""Measured-cost calibration for the ``auto`` arbitration.

The adaptive engine picks structures from *analytical* cost estimates
(:mod:`repro.analysis.cost_model`).  Those estimates share a currency —
comparison operations per event — but each family's model simplifies
differently, so the predictions carry family-specific bias: the index
model may undercount rejection probes, the tree model may overcount a
short-circuiting walk.  Left uncorrected, a consistently optimistic
model wins arbitrations it should lose.

:class:`CostCalibrator` closes the loop the way Cozy's ``CostModel``
does for synthesized implementations: whenever a predicted cost can be
paired with the cost actually *measured* over the following interval,
the calibrator updates a per-family correction factor

    ``factor ← (1 − α) · factor + α · (measured / predicted)``

an exponentially-weighted mean of the observed misprediction ratio,
with α = :data:`SMOOTHING`.
Future predictions for that family are multiplied by the factor before
they are compared.  With a stationary workload the ratio is roughly
constant, so the factor converges geometrically and the *calibrated*
misprediction ``|calibrated − measured| / measured`` shrinks toward
zero at rate ``(1 − α)`` per observation — the property the
calibration-convergence tests pin.

The calibrator is deliberately tiny and engine-agnostic: families are
plain string keys, predictions are floats, and the adaptive engine owns
the pairing of predictions with measurements (see
``AdaptiveFilterEngine._arbitrate``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "CalibrationSample",
    "CalibrationSnapshot",
    "CostCalibrator",
]

#: How many recent samples a snapshot retains for observability.
_RECENT_SAMPLES = 16

#: EWMA weight α of the newest misprediction ratio.
SMOOTHING = 0.5


@dataclass(frozen=True)
class CalibrationSample:
    """One paired (predicted, measured) cost observation for a family.

    ``predicted`` is the raw analytical estimate; ``calibrated`` is that
    estimate scaled by the correction factor *in effect when the
    prediction was made* — i.e. the number the arbitration actually
    compared.  ``measured`` is the cost observed over the interval the
    prediction covered (comparison operations per event).
    """

    family: str
    predicted: float
    calibrated: float
    measured: float

    @property
    def error(self) -> float:
        """Relative misprediction of the *calibrated* estimate."""
        if self.measured <= 0.0:
            return 0.0
        return abs(self.calibrated - self.measured) / self.measured

    @property
    def raw_error(self) -> float:
        """Relative misprediction of the raw analytical estimate."""
        if self.measured <= 0.0:
            return 0.0
        return abs(self.predicted - self.measured) / self.measured

    def to_dict(self) -> dict[str, float | str]:
        return {
            "family": self.family,
            "predicted": self.predicted,
            "calibrated": self.calibrated,
            "measured": self.measured,
            "error": self.error,
        }


@dataclass(frozen=True)
class CalibrationSnapshot:
    """Read-only view of a calibrator's state for ``ServiceStats``."""

    factors: dict[str, float] = field(default_factory=dict)
    observations: int = 0
    recent: tuple[CalibrationSample, ...] = ()

    def factor(self, family: str) -> float:
        return self.factors.get(family, 1.0)

    def to_dict(self) -> dict:
        return {
            "factors": dict(self.factors),
            "observations": self.observations,
            "recent": [sample.to_dict() for sample in self.recent],
        }


class CostCalibrator:
    """Per-family exponentially-weighted correction of predicted costs."""

    def __init__(self) -> None:
        self._factors: dict[str, float] = {}
        self._observations = 0
        self._recent: deque[CalibrationSample] = deque(maxlen=_RECENT_SAMPLES)

    def factor(self, family: str) -> float:
        """The current correction factor for ``family`` (1.0 = model taken as-is)."""
        return self._factors.get(family, 1.0)

    def has_observed(self, family: str) -> bool:
        """Whether any ratio-carrying observation reached ``family``."""
        return family in self._factors

    def calibrate(self, family: str, predicted: float) -> float:
        """Scale a raw analytical estimate by the learned correction."""
        return predicted * self.factor(family)

    def observe(
        self, family: str, predicted: float, measured: float
    ) -> CalibrationSample:
        """Fold one paired observation into the family's factor.

        Returns the sample describing the misprediction *before* the
        update, so callers can report the error the arbitration actually
        incurred.  Non-positive predictions or measurements carry no
        ratio information and leave the factor untouched.
        """
        sample = CalibrationSample(
            family=family,
            predicted=predicted,
            calibrated=self.calibrate(family, predicted),
            measured=measured,
        )
        if predicted > 0.0 and measured > 0.0:
            previous = self._factors.get(family, 1.0)
            self._factors[family] = (1.0 - SMOOTHING) * previous + SMOOTHING * (
                measured / predicted
            )
        self._observations += 1
        self._recent.append(sample)
        return sample

    def snapshot(self) -> CalibrationSnapshot:
        return CalibrationSnapshot(
            factors=dict(self._factors),
            observations=self._observations,
            recent=tuple(self._recent),
        )
