"""Tests for joint distributions, frequency counters and history estimation."""

import random

import pytest
from history_reference import PerEventHistory
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import ContinuousDomain, DiscreteDomain, IntegerDomain
from repro.core.errors import DistributionError, EventError
from repro.core.events import Event
from repro.core.profiles import ProfileSet, profile
from repro.core.schema import Attribute, Schema
from repro.core.subranges import build_partition
from repro.distributions.discrete import DiscreteDistribution, uniform_discrete
from repro.distributions.estimation import (
    EventHistory,
    FrequencyCounter,
    estimate_event_distribution,
    estimate_profile_distribution,
)
from repro.distributions.joint import (
    ConditionalJointDistribution,
    IndependentJointDistribution,
)


def two_attribute_schema() -> Schema:
    return Schema(
        [
            Attribute("price", IntegerDomain(0, 9)),
            Attribute("volume", IntegerDomain(0, 4)),
        ]
    )


class TestIndependentJoint:
    def test_sample_event_covers_all_attributes(self):
        schema = two_attribute_schema()
        joint = IndependentJointDistribution(
            schema,
            {
                "price": uniform_discrete(IntegerDomain(0, 9)),
                "volume": uniform_discrete(IntegerDomain(0, 4)),
            },
        )
        event = joint.sample_event(random.Random(1))
        event.validate(schema)

    def test_missing_marginal_rejected(self):
        schema = two_attribute_schema()
        with pytest.raises(DistributionError):
            IndependentJointDistribution(
                schema, {"price": uniform_discrete(IntegerDomain(0, 9))}
            )

    def test_unknown_marginal_rejected(self):
        schema = two_attribute_schema()
        with pytest.raises(DistributionError):
            IndependentJointDistribution(
                schema,
                {
                    "price": uniform_discrete(IntegerDomain(0, 9)),
                    "volume": uniform_discrete(IntegerDomain(0, 4)),
                    "extra": uniform_discrete(IntegerDomain(0, 4)),
                },
            )

    def test_conditional_equals_marginal(self):
        schema = two_attribute_schema()
        marginals = {
            "price": uniform_discrete(IntegerDomain(0, 9)),
            "volume": uniform_discrete(IntegerDomain(0, 4)),
        }
        joint = IndependentJointDistribution(schema, marginals)
        assert joint.conditional("volume", {"price": 3}) is marginals["volume"]

    def test_sample_events_have_increasing_timestamps(self):
        schema = two_attribute_schema()
        joint = IndependentJointDistribution(
            schema,
            {
                "price": uniform_discrete(IntegerDomain(0, 9)),
                "volume": uniform_discrete(IntegerDomain(0, 4)),
            },
        )
        events = joint.sample_events(5, random.Random(0), start_time=10, interval=2)
        assert [e.timestamp for e in events] == [10, 12, 14, 16, 18]


class TestConditionalJoint:
    def test_conditional_distribution_depends_on_prefix(self):
        schema = two_attribute_schema()
        marginals = {
            "price": uniform_discrete(IntegerDomain(0, 9)),
            "volume": uniform_discrete(IntegerDomain(0, 4)),
        }

        def volume_given(previous):
            if previous["price"] >= 5:
                return DiscreteDistribution(IntegerDomain(0, 4), {4: 1})
            return DiscreteDistribution(IntegerDomain(0, 4), {0: 1})

        joint = ConditionalJointDistribution(schema, marginals, {"volume": volume_given})
        rng = random.Random(2)
        for _ in range(50):
            event = joint.sample_event(rng)
            if event["price"] >= 5:
                assert event["volume"] == 4
            else:
                assert event["volume"] == 0

    def test_unknown_conditional_attribute_rejected(self):
        schema = two_attribute_schema()
        marginals = {
            "price": uniform_discrete(IntegerDomain(0, 9)),
            "volume": uniform_discrete(IntegerDomain(0, 4)),
        }
        with pytest.raises(DistributionError):
            ConditionalJointDistribution(schema, marginals, {"extra": lambda prev: None})


class TestFrequencyCounter:
    def test_record_and_frequency(self):
        counter = FrequencyCounter(IntegerDomain(0, 9))
        counter.record(3)
        counter.record(3)
        counter.record(7)
        assert counter.total == 3
        assert counter.frequency(3) == pytest.approx(2 / 3)
        assert counter.frequency(9) == 0.0

    def test_set_count_simulates_a_distribution(self):
        # Section 4.2: "we manipulate the counters in order to simulate a
        # distribution".
        counter = FrequencyCounter(IntegerDomain(0, 9))
        counter.set_count(0, 80)
        counter.set_count(1, 20)
        dist = counter.to_distribution()
        assert dist.probability_of_value(0) == pytest.approx(0.8)
        counter.set_count(0, 0)
        assert counter.total == 20

    def test_forget(self):
        counter = FrequencyCounter(IntegerDomain(0, 9))
        counter.record(5, weight=3)
        counter.forget(5)
        assert counter.total == 2
        counter.forget(5, weight=10)
        assert counter.total == 0

    def test_out_of_domain_rejected(self):
        counter = FrequencyCounter(IntegerDomain(0, 9))
        with pytest.raises(DistributionError):
            counter.record(99)
        with pytest.raises(DistributionError):
            counter.set_count(99, 1)

    def test_empty_counter_has_no_distribution(self):
        with pytest.raises(DistributionError):
            FrequencyCounter(IntegerDomain(0, 9)).to_distribution()

    def test_continuous_counter_builds_histogram(self):
        counter = FrequencyCounter(ContinuousDomain(0, 10))
        for value in [1.0, 1.5, 2.0, 9.0]:
            counter.record(value)
        dist = counter.to_distribution(bins=10)
        assert dist.probability_of_interval(
            __import__("repro.core.intervals", fromlist=["Interval"]).Interval.closed(0, 3)
        ) == pytest.approx(0.75)


COUNTER_DOMAINS = [IntegerDomain(0, 30), DiscreteDomain([f"s{i}" for i in (7, 2, 9, 0, 5, 3, 8)])]


@st.composite
def counter_operations(draw):
    """A domain and a sequence of counter edits over (part of) it."""
    domain = draw(st.sampled_from(COUNTER_DOMAINS))
    value = st.sampled_from(list(domain.values()))
    operation = st.one_of(
        st.tuples(st.just("record"), value, st.integers(1, 5)),
        st.tuples(st.just("forget"), value, st.integers(1, 5)),
        st.tuples(st.just("set_count"), value, st.integers(0, 9)),
        st.tuples(st.just("_add_counts"), st.dictionaries(value, st.integers(1, 4), max_size=4)),
    )
    return domain, draw(st.lists(operation, min_size=1, max_size=30))


class TestCounterDistribution:
    """``to_distribution`` builds through the constructor's unchecked half."""

    @given(counter_operations())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_checked_constructor_field_by_field(self, data):
        domain, operations = data
        counter = FrequencyCounter(domain)
        for name, *arguments in operations:
            getattr(counter, name)(*arguments)
            if counter.total == 0:
                continue
            fast = counter.to_distribution()
            checked = DiscreteDistribution(domain, counter.counts())
            assert fast.domain is checked.domain
            assert list(fast.pmf().items()) == list(checked.pmf().items())
            assert fast.support() == checked.support()
            assert fast._positions == checked._positions
            assert fast._cumulative == checked._cumulative

    def test_discrete_support_follows_the_natural_order_not_the_labels(self):
        domain = DiscreteDomain(["c", "a", "b"])
        counter = FrequencyCounter(domain)
        for value in ["b", "a", "c", "b"]:
            counter.record(value)
        distribution = counter.to_distribution()
        assert distribution.support() == ["c", "a", "b"]
        assert list(distribution.pmf()) == ["b", "a", "c"]
        assert distribution._cumulative == [0.25, 0.5, 1.0]


class TestEventHistory:
    def make_history(self, max_length=100):
        return EventHistory(two_attribute_schema(), max_length=max_length)

    def test_observe_and_estimate(self):
        history = self.make_history()
        for _ in range(10):
            history.observe(Event({"price": 3, "volume": 1}))
        for _ in range(10):
            history.observe(Event({"price": 7, "volume": 1}))
        schema = two_attribute_schema()
        profiles = ProfileSet(schema, [profile("P1", price=3), profile("P2", price=8)])
        partition = build_partition(profiles, "price")
        estimated = estimate_event_distribution(history, partition)
        assert estimated.probability_by_index(0) == pytest.approx(0.5)  # value 3
        assert estimated.probability_by_index(1) == pytest.approx(0.0)  # value 8
        assert estimated.zero_probability == pytest.approx(0.5)

    def test_sliding_window_evicts_old_events(self):
        history = self.make_history(max_length=5)
        for i in range(10):
            history.observe(Event({"price": i % 10, "volume": 0}))
        assert len(history) == 5
        assert history.counter("price").total == 5

    def test_estimate_requires_observations(self):
        history = self.make_history()
        schema = two_attribute_schema()
        profiles = ProfileSet(schema, [profile("P1", price=3)])
        partition = build_partition(profiles, "price")
        with pytest.raises(DistributionError):
            estimate_event_distribution(history, partition)

    def test_clear(self):
        history = self.make_history()
        history.observe(Event({"price": 1, "volume": 1}))
        history.clear()
        assert len(history) == 0
        assert history.counter("price").total == 0


class TestProfileDistributionEstimation:
    def test_counts_profile_references_per_subrange(self):
        schema = two_attribute_schema()
        profiles = ProfileSet(
            schema,
            [profile("P1", price=3), profile("P2", price=3), profile("P3", price=8)],
        )
        partition = build_partition(profiles, "price")
        estimated = estimate_profile_distribution(profiles, partition)
        assert estimated.probability_by_index(0) == pytest.approx(2 / 3)  # value 3
        assert estimated.probability_by_index(1) == pytest.approx(1 / 3)  # value 8
        assert estimated.zero_probability == 0.0

    def test_unconstrained_attribute_gets_zero_mass_everywhere(self):
        schema = two_attribute_schema()
        profiles = ProfileSet(schema, [profile("P1", price=3)])
        partition = build_partition(profiles, "volume")
        estimated = estimate_profile_distribution(profiles, partition)
        assert estimated.total_defined_probability() == 0.0
        assert estimated.zero_probability == pytest.approx(1.0)


# -- observe_all ≡ the per-event loop ---------------------------------------------------
#
# ``EventHistory.observe_all`` admits a batch column by column, and both
# entry points only queue what they admit until the next read counts it;
# the oracle (``history_reference.PerEventHistory``) admits and counts
# event by event.  After any interleaving of ``observe``, ``observe_all``
# and ``clear`` — with reads (``counter``, ``events``, ``len``) at random
# points, runs of ``observe`` longer than the window between two of them,
# and ``clear`` while events are still queued — every read must see the
# same window and the same counters, and a call the oracle rejects must
# raise the same exception with the same prefix counted.

#: Values that are equal as counter keys but not as domain members, an
#: unhashable one, and one no domain below contains.
AWKWARD = [1, 1.0, True, 0, 0.0, False, [1], "zz", None, 99, 99.5]

DOMAIN_POOLS = {
    "discrete": (DiscreteDomain(["a", "b", "c", 1, 2.5]), ["a", "b", "c", 1, 2.5]),
    "integer": (IntegerDomain(0, 4), [0, 1, 2, 3, 4]),
    "continuous": (ContinuousDomain(0.0, 4.0), [0.0, 0.5, 1.0, 2.25, 4.0]),
    # Integers are members of a continuous domain too: an all-int column
    # takes the columnar path, an int/float mix the per-event one.
    "continuous-ints": (ContinuousDomain(0.0, 4.0), [0, 1, 2, 1.0, 3.5]),
}


@st.composite
def history_schemas(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(DOMAIN_POOLS)), min_size=1, max_size=3))
    return [(f"a{i}", *DOMAIN_POOLS[kind]) for i, kind in enumerate(kinds)]


@st.composite
def history_events(draw, columns, flavour):
    """One event of a ``clean`` (complete, in-domain), ``partial`` (in-domain,
    attributes missing: valid, but never columnar), ``twins`` (complete, some
    values swapped for an equal one of another type) or ``dirty`` (anything
    goes) batch."""
    values = {}
    for name, _, pool in columns:
        value = draw(st.sampled_from(pool))
        oddity = 0
        if flavour in ("twins", "dirty"):
            oddity = draw(st.integers(1 if flavour == "twins" else 0, 6))
        if oddity == 1 and value in (0, 1, 2, 3, 4):
            # A twin: equal to a pool value (the same counter key), of
            # another type (not the same domain member).
            twins = [int(value), float(value)] + ([bool(value)] if value in (0, 1) else [])
            value = draw(st.sampled_from(twins))
        elif oddity == 2 and flavour == "dirty":
            value = draw(st.sampled_from(AWKWARD))
        values[name] = value
    if flavour == "partial" and len(values) > 1 and draw(st.booleans()):
        del values[draw(st.sampled_from(sorted(values)))]
    if flavour == "dirty":
        mutation = draw(st.integers(0, 9))
        if mutation == 0 and len(values) > 1:
            del values[draw(st.sampled_from(sorted(values)))]  # partial event
        elif mutation == 1:
            values["nope"] = draw(st.sampled_from(AWKWARD))  # unknown extra name
        elif mutation == 2:
            # An unknown name *in place of* a column: the event keeps the
            # length of a complete one.
            del values[draw(st.sampled_from(sorted(values)))]
            values["nope"] = 1
    return Event(values)


@st.composite
def history_scripts(draw):
    columns = draw(history_schemas())
    batch_size = draw(st.integers(1, 12))
    # Windows from a single event up to three batches.
    max_length = draw(st.integers(1, 3 * batch_size))
    reads = ["len", "events", *(name for name, _, _ in columns)]
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["batch", "batch", "one", "run", "clear", "read", "read"]))
        if kind == "clear":
            steps.append(("clear", None))
            continue
        if kind == "read":
            steps.append(("read", draw(st.sampled_from(reads))))
            continue
        flavour = draw(st.sampled_from(["clean", "clean", "partial", "twins", "dirty"]))
        if kind == "one":
            steps.append(("observe", draw(history_events(columns, flavour))))
        elif kind == "run":
            # More one-by-one events than the window holds, with no read
            # in between: the queue fills, folds itself, and overflows.
            for _ in range(draw(st.integers(max_length + 1, 2 * max_length + 1))):
                steps.append(("observe", draw(history_events(columns, flavour))))
        else:
            size = draw(st.integers(0, batch_size))
            events = [draw(history_events(columns, flavour)) for _ in range(size)]
            steps.append(("observe_all", events))
    return columns, max_length, steps


def history_read(history, what):
    """One read of a history: its length, its window, or one counter."""
    if what == "len":
        return len(history)
    if what == "events":
        return [id(event) for event in history.events()]
    counter = history.counter(what)
    return counter.counts(), counter.total


def history_state(history, names):
    """Everything the equivalence covers, in a comparable form."""
    state = {"length": len(history), "events": [id(event) for event in history.events()]}
    for name in names:
        counter = history.counter(name)
        state[name] = (counter.counts(), counter.total)
        if counter.total:
            distribution = counter.to_distribution(bins=8)
            state[f"P_e({name})"] = (
                distribution.pmf()
                if hasattr(distribution, "pmf")
                else distribution.bin_masses()
            )
    return state


def outcome_of(call, *args):
    try:
        call(*args)
    except Exception as exc:  # the oracle decides what is an error
        return type(exc), str(exc)
    return None


class TestObserveAllEqualsPerEventLoop:
    @settings(max_examples=300, deadline=None)
    @given(history_scripts())
    def test_same_errors_after_every_step_and_same_state_at_every_read(self, script):
        columns, max_length, steps = script
        schema = Schema([Attribute(name, domain) for name, domain, _ in columns])
        names = schema.names
        history = EventHistory(schema, max_length=max_length)
        oracle = PerEventHistory(schema, max_length=max_length)
        for method, argument in steps:
            if method == "read":
                assert history_read(history, argument) == history_read(oracle, argument)
                continue
            arguments = () if argument is None else (argument,)
            expected = outcome_of(getattr(oracle, method), *arguments)
            assert outcome_of(getattr(history, method), *arguments) == expected
        assert history_state(history, names) == history_state(oracle, names)

    def test_window_shorter_than_the_batch_keeps_the_tail(self):
        schema = two_attribute_schema()
        events = [Event({"price": i % 10, "volume": i % 5}) for i in range(23)]
        history = EventHistory(schema, max_length=4)
        history.observe_all(events)
        assert history.events() == events[-4:]
        assert history.counter("price").counts() == {9: 1, 0: 1, 1: 1, 2: 1}
        assert history.counter("volume").total == 4

    def test_partial_events_expire_from_under_a_columnar_batch(self):
        schema = two_attribute_schema()
        history = EventHistory(schema, max_length=3)
        history.observe_all([Event({"price": 1}), Event({"volume": 2}), Event({"price": 1})])
        assert history.counter("price").total == 2
        history.observe_all([Event({"price": 5, "volume": 0})] * 2)
        assert len(history) == 3
        assert history.counter("price").counts() == {1: 1, 5: 2}
        assert history.counter("volume").counts() == {0: 2}

    def test_invalid_batch_counts_the_valid_prefix(self):
        schema = two_attribute_schema()
        history = EventHistory(schema)
        good = Event({"price": 1, "volume": 1})
        with pytest.raises(EventError, match="outside the domain of attribute 'volume'"):
            history.observe_all([good, good, Event({"price": 1, "volume": 77}), good])
        assert len(history) == 2
        assert history.counter("price").counts() == {1: 2}

    def test_true_is_not_counted_as_the_integer_one(self):
        history = EventHistory(two_attribute_schema())
        with pytest.raises(EventError, match="True"):
            history.observe_all(
                [Event({"price": 1, "volume": 1}), Event({"price": True, "volume": 1})]
            )
        assert history.counter("price").counts() == {1: 1}

    def test_accepts_any_iterable(self):
        history = EventHistory(two_attribute_schema())
        history.observe_all(Event({"price": i, "volume": 0}) for i in range(3))
        assert history.counter("price").total == 3
