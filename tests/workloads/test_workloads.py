"""Tests for workload specs, generators and scenarios."""

import pytest

from repro.core.errors import WorkloadError
from repro.workloads.generators import build_workload
from repro.workloads.profiles import get_profile
from repro.workloads.spec import AttributeSpec, WorkloadSpec


class TestSpecs:
    def test_attribute_spec_validation(self):
        AttributeSpec()
        with pytest.raises(WorkloadError):
            AttributeSpec(dont_care_probability=1.5)
        with pytest.raises(WorkloadError):
            AttributeSpec(predicate="regex")
        with pytest.raises(WorkloadError):
            AttributeSpec(range_width_fraction=0)

    def test_workload_spec_validation(self):
        spec = get_profile("single-attribute").spec
        with pytest.raises(WorkloadError):
            spec.with_counts(profile_count=0)
        with pytest.raises(WorkloadError):
            WorkloadSpec(
                name="bad",
                schema=spec.schema,
                attributes={"unknown": AttributeSpec()},
            )

    def test_with_distributions_sweeps_all_attributes(self):
        spec = get_profile("stock-ticker").spec.with_distributions(events="d5", profiles="d9")
        for name in spec.schema.names:
            assert spec.spec_for(name).event_distribution == "d5"
            assert spec.spec_for(name).profile_distribution == "d9"

    def test_with_seed_and_counts(self):
        spec = get_profile("single-attribute").spec.with_seed(99).with_counts(event_count=5)
        assert spec.seed == 99
        assert spec.event_count == 5

    def test_spec_for_unknown_attribute(self):
        with pytest.raises(WorkloadError):
            get_profile("single-attribute").spec.spec_for("nope")


class TestGenerators:
    def test_build_workload_is_reproducible(self):
        spec = get_profile("single-attribute").spec.with_counts(profile_count=20, event_count=50)
        first = build_workload(spec)
        second = build_workload(spec)
        assert [str(p) for p in first.profiles] == [str(p) for p in second.profiles]
        assert [e.values for e in first.events] == [e.values for e in second.events]

    def test_different_seeds_give_different_workloads(self):
        first = build_workload(
            get_profile("single-attribute").spec.with_counts(event_count=50).with_seed(1)
        )
        second = build_workload(
            get_profile("single-attribute").spec.with_counts(event_count=50).with_seed(2)
        )
        assert [e.values for e in first.events] != [e.values for e in second.events]

    def test_profiles_and_events_validate_against_schema(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=50, event_count=100)
        )
        for item in workload.profiles:
            item.validate(workload.schema)
        for event in workload.events:
            event.validate(workload.schema)

    def test_profile_count_and_event_count_respected(self):
        workload = build_workload(
            get_profile("facility").spec.with_counts(profile_count=30, event_count=40)
        )
        assert len(workload.profiles) == 30
        assert len(workload.events) == 40

    def test_every_profile_constrains_something(self):
        workload = build_workload(
            get_profile("facility").spec.with_counts(profile_count=60, event_count=1)
        )
        for item in workload.profiles:
            assert item.constrained_attributes()

    def test_dont_care_probability_produces_unconstrained_attributes(self):
        workload = build_workload(
            get_profile("environmental").spec.with_counts(profile_count=100, event_count=1)
        )
        radiation_unconstrained = sum(
            1 for p in workload.profiles if not p.constrains("radiation")
        )
        assert radiation_unconstrained > 10

    def test_joint_event_distribution_samples_valid_events(self):
        import random

        workload = build_workload(get_profile("single-attribute").spec.with_counts(event_count=1))
        joint = workload.joint_event_distribution()
        event = joint.sample_event(random.Random(0))
        event.validate(workload.schema)


class TestScenarios:
    def test_all_scenarios_build(self):
        for spec in [
            get_profile("stock-ticker").spec.with_counts(profile_count=30, event_count=30),
            get_profile("environmental").spec.with_counts(profile_count=30, event_count=30),
            get_profile("facility").spec.with_counts(profile_count=30, event_count=30),
            get_profile("single-attribute").spec.with_counts(profile_count=10, event_count=10),
            get_profile("wide-range").spec.with_counts(profile_count=30, event_count=30),
        ]:
            workload = build_workload(spec)
            assert len(workload.profiles) == spec.profile_count
            assert len(workload.events) == spec.event_count

    def test_stock_ticker_profiles_concentrate_on_high_prices(self):
        workload = build_workload(
            get_profile("stock-ticker").spec.with_counts(profile_count=200, event_count=1)
        )
        prices = []
        for item in workload.profiles:
            predicate = item.predicate("price")
            if not predicate.is_dont_care and hasattr(predicate, "value"):
                prices.append(predicate.value)
        assert prices
        high = sum(1 for p in prices if p >= 180)
        assert high / len(prices) > 0.5
