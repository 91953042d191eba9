"""Tests for schemas and events."""

import pytest

from repro.core.domains import ContinuousDomain, IntegerDomain
from repro.core.errors import EventError, SchemaError
from repro.core.events import Event, column_counts
from repro.core.schema import Attribute, Schema


def sample_schema() -> Schema:
    return Schema(
        [
            Attribute("temperature", ContinuousDomain(-30, 50), unit="°C"),
            Attribute("humidity", IntegerDomain(0, 100), unit="%"),
        ]
    )


class TestSchema:
    def test_names_in_natural_order(self):
        assert sample_schema().names == ["temperature", "humidity"]

    def test_lookup_by_name_and_position(self):
        schema = sample_schema()
        assert schema["humidity"].unit == "%"
        assert schema[0].name == "temperature"
        assert schema.position("humidity") == 1

    def test_unknown_attribute_raises(self):
        with pytest.raises(SchemaError):
            sample_schema().attribute("pressure")

    def test_duplicate_names_rejected(self):
        attribute = Attribute("x", IntegerDomain(0, 1))
        with pytest.raises(SchemaError):
            Schema([attribute, attribute])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_reordered_is_a_permutation(self):
        schema = sample_schema()
        reordered = schema.reordered(["humidity", "temperature"])
        assert reordered.names == ["humidity", "temperature"]
        with pytest.raises(SchemaError):
            schema.reordered(["humidity"])

    def test_validate_assignment(self):
        schema = sample_schema()
        schema.validate_assignment({"temperature": 20})
        with pytest.raises(SchemaError):
            schema.validate_assignment({"pressure": 1})

    def test_equality_and_hash(self):
        assert sample_schema() == sample_schema()
        assert hash(sample_schema()) == hash(sample_schema())

    def test_attribute_name_must_be_nonempty(self):
        with pytest.raises(SchemaError):
            Attribute("", IntegerDomain(0, 1))


class TestEvent:
    def test_value_access(self):
        event = Event({"temperature": 30, "humidity": 90})
        assert event["temperature"] == 30
        assert event.get("radiation") is None
        assert "humidity" in event
        assert len(event) == 2
        assert set(event.attributes()) == {"temperature", "humidity"}

    def test_missing_attribute_raises(self):
        event = Event({"temperature": 30})
        with pytest.raises(EventError):
            event["humidity"]

    def test_empty_event_rejected(self):
        with pytest.raises(EventError):
            Event({})

    def test_validate_against_schema(self):
        schema = sample_schema()
        Event({"temperature": 30, "humidity": 90}).validate(schema)

    def test_validate_missing_attribute(self):
        schema = sample_schema()
        with pytest.raises(EventError):
            Event({"temperature": 30}).validate(schema)
        # Partial events are fine when completeness is not required.
        Event({"temperature": 30}).validate(schema, require_all=False)

    def test_validate_unknown_attribute(self):
        with pytest.raises(EventError):
            Event({"pressure": 1}).validate(sample_schema(), require_all=False)

    def test_validate_out_of_domain_value(self):
        with pytest.raises(EventError):
            Event({"temperature": 500, "humidity": 10}).validate(sample_schema())

    def test_restricted_to(self):
        event = Event({"temperature": 30, "humidity": 90}, timestamp=4.0, source="s1")
        reduced = event.restricted_to(["humidity"])
        assert reduced.values == {"humidity": 90}
        assert reduced.timestamp == 4.0
        assert reduced.source == "s1"

    def test_values_are_copied(self):
        source = {"temperature": 30}
        event = Event(source)
        source["temperature"] = 99
        assert event["temperature"] == 30


class TestColumnCounts:
    """The columnar batch admission: counts, or ``None`` for "ask per event"."""

    def test_counts_every_column_of_a_valid_batch(self):
        events = [
            Event({"temperature": 30.5, "humidity": 90}),
            Event({"humidity": 90, "temperature": 12.0}),
            Event({"temperature": 30.5, "humidity": 10}),
        ]
        counts = column_counts(events, sample_schema())
        assert list(counts) == ["temperature", "humidity"]
        assert counts["temperature"] == {30.5: 2, 12.0: 1}
        assert counts["humidity"] == {90: 2, 10: 1}

    @pytest.mark.parametrize(
        "bad",
        [
            {"temperature": 30},  # partial
            {"temperature": 30, "pressure": 1},  # unknown name in place of a column
            {"temperature": 30, "humidity": 90, "pressure": 1},  # unknown extra name
            {"temperature": 500, "humidity": 90},  # outside the domain
            {"temperature": 30, "humidity": [90]},  # unhashable
            {"temperature": 30, "humidity": 90.0},  # 90 == 90.0, but not an integer
            {"temperature": 30, "humidity": True},  # True == 1, but not an integer
        ],
    )
    def test_anything_not_provably_valid_answers_none(self, bad):
        good = Event({"temperature": 30, "humidity": 1})
        assert column_counts([good, good], sample_schema()) is not None
        assert column_counts([good, Event(bad), good], sample_schema()) is None

    def test_mixed_types_in_a_column_answer_none_even_when_each_is_valid(self):
        # ``Counter([30, 30.0])`` has one key; the per-event path decides.
        events = [
            Event({"temperature": 30, "humidity": 1}),
            Event({"temperature": 30.0, "humidity": 1}),
        ]
        for event in events:
            event.validate(sample_schema())
        assert column_counts(events, sample_schema()) is None

    def test_a_raising_domain_answers_none(self):
        class Exploding(IntegerDomain):
            def __contains__(self, value):
                raise RuntimeError("boom")

        schema = Schema([Attribute("x", Exploding(0, 9))])
        assert column_counts([Event({"x": 1})], schema) is None

    def test_empty_batch_answers_none(self):
        assert column_counts([], sample_schema()) is None
