"""Calibration convergence at the engine level.

A registry family with a deliberately wrong analytical cost model feeds
the adaptive engine constant mispredictions; the measured-cost feedback
loop must shrink the calibrated misprediction monotonically, and an
``auto`` arbitration must stop believing an optimistic-but-wrong model
once one interval has been measured.
"""

import pytest

from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.matching.interfaces import MatchResult
from repro.matching.registry import EngineCandidate, EngineSpec
from repro.service.adaptive import AdaptationPolicy, AdaptiveFilterEngine


def tiny_profiles() -> ProfileSet:
    schema = Schema([Attribute("v", IntegerDomain(0, 9))])
    return ProfileSet(schema, [profile("P1", v=3)])


class _ConstantOpsMatcher:
    """Deterministic stand-in: every event costs exactly ``ops`` comparisons."""

    def __init__(self, profiles: ProfileSet, ops: int) -> None:
        self.profiles = profiles
        self.ops = ops

    def match(self, event: Event) -> MatchResult:
        return MatchResult((), self.ops, visited_levels=1)

    def match_batch(self, events):
        return [self.match(event) for event in events]

    def add_profile(self, profile) -> None:
        self.profiles.add(profile)

    def add_profiles(self, profiles) -> None:
        for item in profiles:
            self.profiles.add(item)

    def remove_profile(self, profile_id: str) -> None:
        self.profiles.remove(profile_id)


class _LiarMatcher(_ConstantOpsMatcher):
    pass


class _HonestMatcher(_ConstantOpsMatcher):
    pass


def constant_spec(
    name: str,
    cls,
    *,
    true_ops: int,
    predicted: float,
    auto_rank: int,
    calibration_prior: str | None = None,
) -> EngineSpec:
    """A family whose model claims ``predicted`` but always costs ``true_ops``."""

    def candidate(ctx, matcher, distributions, could_win):
        return EngineCandidate(
            name,
            predicted,
            f"{name}[constant]",
            lambda: cls(ctx.profiles, true_ops),
            predicted_current=predicted if type(matcher) is cls else None,
        )

    return EngineSpec(
        name=name,
        factory=lambda ctx: cls(ctx.profiles, true_ops),
        owns=lambda matcher: type(matcher) is cls,
        candidate=candidate,
        calibration_prior=calibration_prior,
        auto_rank=auto_rank,
        description=f"constant-cost stub ({name})",
    )


def drive(engine: AdaptiveFilterEngine, count: int) -> None:
    for index in range(count):
        engine.match(Event({"v": index % 10}))


class TestConvergence:
    @pytest.fixture(autouse=True)
    def roster(self, engine_roster):
        # The model claims 70 ops/event; the matcher always costs 7.
        engine_roster(
            [constant_spec("stub", _ConstantOpsMatcher, true_ops=7, predicted=70.0, auto_rank=0)]
        )

    def make_engine(self) -> AdaptiveFilterEngine:
        return AdaptiveFilterEngine(
            tiny_profiles(),
            policy=AdaptationPolicy(
                engine="auto",
                reoptimize_interval=100,
                warmup_events=100,
                improvement_threshold=0.5,
            ),
        )

    def test_misprediction_shrinks_strictly_and_monotonically(self):
        engine = self.make_engine()
        drive(engine, 1200)
        samples = [s for s in engine.calibration().recent if s.family == "stub"]
        assert len(samples) >= 6
        # Every interval measures exactly 7 ops/event against the raw
        # prediction 70 — a constant 10x misprediction ratio.
        assert all(s.measured == pytest.approx(7.0) for s in samples)
        assert all(s.predicted == pytest.approx(70.0) for s in samples)
        assert all(s.raw_error == pytest.approx(9.0) for s in samples)
        errors = [s.error for s in samples]
        assert all(late < early for early, late in zip(errors, errors[1:])), (
            f"calibrated misprediction not strictly decreasing: {errors}"
        )
        # Geometric convergence at rate (1 - smoothing) per observation.
        assert errors[-1] < errors[0] / 16
        assert engine.calibrator.factor("stub") == pytest.approx(0.1, rel=0.05)

    def test_records_pair_raw_predictions_with_measurements(self):
        engine = self.make_engine()
        drive(engine, 800)
        records = engine.adaptations()
        assert records
        # Raw model numbers stay on the record; the learned correction is
        # reported separately and drifts toward the true 0.1 ratio.
        assert all(r.predicted_candidate == pytest.approx(70.0) for r in records)
        measured = [r.measured_ops_per_event for r in records[1:]]
        assert all(m == pytest.approx(7.0) for m in measured)
        assert records[0].correction_factor == pytest.approx(1.0)
        factors = [r.correction_factor for r in records]
        assert all(late <= early for early, late in zip(factors, factors[1:]))
        assert factors[-1] == pytest.approx(0.1, rel=0.1)
        payload = records[-1].to_dict()
        assert payload["measured_ops_per_event"] == pytest.approx(7.0)
        assert payload["correction_factor"] == factors[-1]


class TestCalibratedArbitration:
    def test_auto_abandons_an_optimistic_model_after_one_measurement(self, engine_roster):
        """The liar family predicts 2 ops/event but costs 20; the honest
        family predicts its true 10.  Uncalibrated arbitration would run
        the liar forever — one measured interval flips it."""
        engine_roster(
            [
                constant_spec("liar", _LiarMatcher, true_ops=20, predicted=2.0, auto_rank=0),
                constant_spec("honest", _HonestMatcher, true_ops=10, predicted=10.0, auto_rank=1),
            ]
        )
        engine = AdaptiveFilterEngine(
            tiny_profiles(),
            policy=AdaptationPolicy(
                engine="auto",
                reoptimize_interval=100,
                warmup_events=100,
                improvement_threshold=0.05,
            ),
        )
        assert isinstance(engine.matcher, _LiarMatcher)  # lowest rank starts
        drive(engine, 1000)
        records = engine.adaptations()
        # First check: nothing measured yet, the liar's 2 < 10 wins.
        assert records[0].engine == "liar"
        # As soon as the 20-ops reality is observed, honest wins for good.
        assert any(r.engine == "honest" and r.applied for r in records)
        switched_at = next(i for i, r in enumerate(records) if r.engine == "honest")
        assert all(r.engine == "honest" for r in records[switched_at:])
        assert isinstance(engine.matcher, _HonestMatcher)
        # The measured side of the switch record carries the liar's cost.
        switch = records[switched_at]
        assert switch.measured_ops_per_event == pytest.approx(20.0)
        assert engine.calibrator.factor("liar") > 1.0


class TestCalibrationPrior:
    """A never-measured family borrows its ``calibration_prior``'s factor."""

    def make_engine(self, engine_roster, prior: str | None) -> AdaptiveFilterEngine:
        # The incumbent's model is 2x optimistic; the sibling shares that
        # model and predicts 4 % less — under the 5 % threshold.
        engine_roster(
            [
                constant_spec("base", _LiarMatcher, true_ops=20, predicted=10.0, auto_rank=0),
                constant_spec(
                    "sibling",
                    _HonestMatcher,
                    true_ops=19,
                    predicted=9.6,
                    auto_rank=1,
                    calibration_prior=prior,
                ),
            ]
        )
        return AdaptiveFilterEngine(
            tiny_profiles(),
            policy=AdaptationPolicy(
                engine="auto",
                reoptimize_interval=100,
                warmup_events=100,
                improvement_threshold=0.05,
            ),
        )

    def test_without_a_prior_the_unmeasured_sibling_wins_on_neutral_trust(self, engine_roster):
        engine = self.make_engine(engine_roster, prior=None)
        drive(engine, 300)
        # base is corrected to ~15+ ops while the sibling still reads 9.6.
        assert isinstance(engine.matcher, _HonestMatcher)

    def test_the_prior_holds_until_the_family_is_measured_itself(self, engine_roster):
        engine = self.make_engine(engine_roster, prior="base")
        drive(engine, 600)
        records = engine.adaptations()
        assert len(records) == 6 and not any(r.applied for r in records)
        assert all(r.engine == "sibling" for r in records)
        # The sibling's candidate was scored with base's learned factor.
        assert records[-1].correction_factor == pytest.approx(
            engine.calibrator.factor("base")
        )
        assert not engine.calibrator.has_observed("sibling")
        # Once measured, the sibling's own factor takes over.
        engine.calibrator.observe("sibling", 9.6, 4.8)
        drive(engine, 100)
        switch = engine.adaptations()[-1]
        assert switch.applied and switch.engine == "sibling"
        assert switch.correction_factor == pytest.approx(0.75)
        assert isinstance(engine.matcher, _HonestMatcher)

    def test_builtin_hybrid_borrows_from_index(self):
        engine = AdaptiveFilterEngine(tiny_profiles(), policy=AdaptationPolicy(engine="auto"))
        hybrid = engine.registry.spec("hybrid")
        assert hybrid.calibration_prior == "index"
        assert engine.registry.spec("index").calibration_prior is None
        engine.calibrator.observe("index", 10.0, 30.0)
        assert engine._correction(hybrid) == engine.calibrator.factor("index") == 2.0
        engine.calibrator.observe("hybrid", 10.0, 5.0)
        assert engine._correction(hybrid) == engine.calibrator.factor("hybrid") == 0.75


class TestUnboundedMemoryUnderDrift:
    """The EWMA has unbounded memory: a workload-regime change leaves the
    previous regime as a geometric tail in the correction factor."""

    @pytest.fixture(autouse=True)
    def roster(self, engine_roster):
        engine_roster(
            [constant_spec("stub", _ConstantOpsMatcher, true_ops=7, predicted=70.0, auto_rank=0)]
        )

    def make_engine(self) -> AdaptiveFilterEngine:
        return AdaptiveFilterEngine(
            tiny_profiles(),
            policy=AdaptationPolicy(
                engine="auto",
                reoptimize_interval=100,
                warmup_events=100,
                improvement_threshold=0.5,
            ),
        )

    def test_unbounded_memory_keeps_the_stale_tail(self):
        """Regime A (7 ops against the 70 prediction) then regime B (140
        ops): the pre-drift regime lingers, so the factor never matches a
        fresh engine's."""
        drifted = self.make_engine()
        drive(drifted, 1200)
        drifted.matcher.ops = 140
        drive(drifted, 900)

        fresh = self.make_engine()
        fresh.matcher.ops = 140
        drive(fresh, 900)

        assert drifted.calibrator.factor("stub") != fresh.calibrator.factor("stub")
