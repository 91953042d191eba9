"""Unit tests of the measured-cost calibrator (EWMA correction factors)."""

import pytest

from repro.analysis.calibration import CalibrationSnapshot, CostCalibrator


class TestConstruction:
    def test_unobserved_families_are_trusted(self):
        calibrator = CostCalibrator()
        assert calibrator.factor("index") == 1.0
        assert calibrator.calibrate("index", 12.0) == 12.0
        assert not calibrator.has_observed("index")


class TestObserve:
    def test_factor_moves_toward_the_observed_ratio(self):
        calibrator = CostCalibrator()
        calibrator.observe("index", predicted=10.0, measured=30.0)
        # EWMA from the neutral prior 1.0 toward ratio 3.0.
        assert calibrator.factor("index") == pytest.approx(2.0)
        assert calibrator.has_observed("index")
        calibrator.observe("index", predicted=10.0, measured=30.0)
        assert calibrator.factor("index") == pytest.approx(2.5)

    def test_families_are_independent(self):
        calibrator = CostCalibrator()
        calibrator.observe("index", predicted=10.0, measured=20.0)
        assert calibrator.factor("index") == pytest.approx(1.5)
        assert calibrator.factor("tree") == 1.0

    def test_nonpositive_observations_carry_no_ratio(self):
        calibrator = CostCalibrator()
        calibrator.observe("index", predicted=0.0, measured=5.0)
        calibrator.observe("index", predicted=5.0, measured=0.0)
        assert calibrator.factor("index") == 1.0
        assert not calibrator.has_observed("index")
        # Still counted and retained for observability.
        snapshot = calibrator.snapshot()
        assert snapshot.observations == 2
        assert len(snapshot.recent) == 2

    def test_sample_reports_the_error_the_arbitration_incurred(self):
        calibrator = CostCalibrator()
        first = calibrator.observe("index", predicted=10.0, measured=20.0)
        assert first.calibrated == pytest.approx(10.0)  # factor before update
        assert first.error == pytest.approx(0.5)
        assert first.raw_error == pytest.approx(0.5)
        second = calibrator.observe("index", predicted=10.0, measured=20.0)
        assert second.calibrated == pytest.approx(15.0)
        assert second.error == pytest.approx(0.25)
        assert second.raw_error == pytest.approx(0.5)  # raw bias unchanged

    def test_error_converges_geometrically_for_a_constant_ratio(self):
        calibrator = CostCalibrator()
        errors = [
            calibrator.observe("index", predicted=10.0, measured=40.0).error
            for _ in range(8)
        ]
        assert errors == sorted(errors, reverse=True)
        assert all(late < early for early, late in zip(errors, errors[1:]))
        assert errors[-1] < 0.02


class TestSnapshot:
    def test_snapshot_is_detached_and_serialisable(self):
        calibrator = CostCalibrator()
        calibrator.observe("index", predicted=10.0, measured=20.0)
        snapshot = calibrator.snapshot()
        assert isinstance(snapshot, CalibrationSnapshot)
        assert snapshot.factor("index") == pytest.approx(1.5)
        assert snapshot.factor("tree") == 1.0
        payload = snapshot.to_dict()
        assert payload["observations"] == 1
        assert payload["factors"]["index"] == pytest.approx(1.5)
        assert payload["recent"][0]["family"] == "index"
        # Detached: further observations do not mutate the snapshot.
        calibrator.observe("index", predicted=10.0, measured=20.0)
        assert snapshot.observations == 1

    def test_recent_samples_are_bounded(self):
        calibrator = CostCalibrator()
        for _ in range(40):
            calibrator.observe("index", predicted=10.0, measured=20.0)
        snapshot = calibrator.snapshot()
        assert snapshot.observations == 40
        assert len(snapshot.recent) == 16
