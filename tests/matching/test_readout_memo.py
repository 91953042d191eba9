"""Tests for the index family's read-out memo.

The read-out turns a match mask into profile ids.  A multi-bit mask is
decoded once for the matcher's life (``_readouts``), and its tuple of
profile ids is built once per epoch and shared by every result of the
mask.  The epoch moves when a bit gets a new owner: a subscribe onto a
recycled id, and a rebuild (a bulk ``add_profiles``).  A cancel, a
fresh id and a ``replan``, which keeps every structure and id, leave it
alone.  The memo is emptied when it reaches the index's size (live
profiles + slabs + hash values).
"""

from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import IntegerDomain
from repro.core.events import Event
from repro.core.predicates import Equals, NotEquals, OneOf, RangePredicate
from repro.core.profiles import Profile, ProfileSet
from repro.core.schema import Attribute, Schema
from repro.distributions.discrete import DiscreteDistribution
from repro.matching.index import PredicateIndexMatcher, kernel
from repro.matching.index import matcher as matcher_module
from repro.matching.naive import NaiveMatcher
from repro.workloads import build_workload, get_profile

DOMAIN_SIZE = 8
ATTRIBUTES = ("a", "b")


def make_schema() -> Schema:
    return Schema([Attribute(name, IntegerDomain(0, DOMAIN_SIZE - 1)) for name in ATTRIBUTES])


def count_decodes(monkeypatch) -> list[int]:
    """Record every mask handed to ``_dense_ids``."""
    decoded: list[int] = []
    dense_ids = matcher_module._dense_ids

    def counting(mask):
        decoded.append(mask)
        return dense_ids(mask)

    monkeypatch.setattr(matcher_module, "_dense_ids", counting)
    return decoded


def count_tuple_builds(monkeypatch) -> list[tuple[int, ...]]:
    """Record the dense ids of every id tuple built through a memo getter."""
    built: list[tuple[int, ...]] = []

    def counting_itemgetter(*ids):
        getter = itemgetter(*ids)

        def read(pid_of):
            built.append(ids)
            return getter(pid_of)

        return read

    monkeypatch.setattr(matcher_module, "itemgetter", counting_itemgetter)
    return built


def mask_of(matcher: PredicateIndexMatcher, profile_ids) -> int:
    mask = 0
    for profile_id in profile_ids:
        mask |= 1 << matcher._id_of[profile_id]
    return mask


@st.composite
def predicates(draw):
    values = st.integers(0, DOMAIN_SIZE - 1)
    result = {}
    for name in ATTRIBUTES:
        kind = draw(st.sampled_from(["skip", "eq", "range", "oneof", "ne"]))
        if kind == "eq":
            result[name] = Equals(draw(values))
        elif kind == "range":
            low = draw(values)
            result[name] = RangePredicate.between(low, draw(st.integers(low, DOMAIN_SIZE - 1)))
        elif kind == "oneof":
            result[name] = OneOf(sorted(draw(st.sets(values, min_size=1, max_size=3))))
        elif kind == "ne":
            result[name] = NotEquals(draw(values))
    return result


@st.composite
def churn_scripts(draw):
    """A profile pool and a script of toggles, replans and bulk loads.

    ``("toggle", i)`` subscribes pool profile ``i`` when absent and cancels
    it when present (a later subscribe recycles the freed dense id);
    ``("replan", hot)`` replans under a distribution skewed towards
    ``hot``; ``("bulk", None)`` hands every absent pool profile to one
    ``add_profiles`` call, which rebuilds when the batch is large.
    """
    pool = [
        Profile(f"P{index}", draw(predicates()))
        for index in range(draw(st.integers(min_value=3, max_value=10)))
    ]
    step = st.one_of(
        st.tuples(st.just("toggle"), st.integers(0, len(pool) - 1)),
        st.tuples(st.just("replan"), st.integers(0, DOMAIN_SIZE - 1)),
        st.tuples(st.just("bulk"), st.none()),
    )
    return pool, draw(st.lists(step, min_size=1, max_size=25))


def _batch() -> list[Event]:
    """Every value pair once plus partial events: a kernel-sized batch."""
    events = [Event({"a": a, "b": b}) for a in range(DOMAIN_SIZE) for b in range(DOMAIN_SIZE)]
    events += [Event({"a": value}) for value in range(DOMAIN_SIZE)]
    assert len(events) >= kernel.MIN_COLUMNAR_BATCH
    return events


@given(churn_scripts())
@settings(max_examples=80, deadline=None)
def test_warm_memo_reads_out_the_oracle_through_churn(data):
    pool, script = data
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    batch = _batch()
    for number, (action, argument) in enumerate(script):
        live = {profile.profile_id for profile in matcher.profiles}
        if action == "toggle":
            profile = pool[argument]
            if profile.profile_id in live:
                matcher.remove_profile(profile.profile_id)
            else:
                matcher.add_profile(profile)
        elif action == "replan":
            domain = schema.domain("a")
            weights = {value: 10.0 if value == argument else 1.0 for value in range(DOMAIN_SIZE)}
            skewed = DiscreteDistribution(domain, weights)
            matcher.replan({name: skewed for name in ATTRIBUTES})
        else:
            matcher.add_profiles([p for p in pool if p.profile_id not in live])
        oracle = NaiveMatcher(ProfileSet(schema, list(matcher.profiles)))
        expected = [oracle.match(event).matched_profile_ids for event in batch]
        # Alternate which path warms the memo for the other.
        if number % 2:
            batched = [r.matched_profile_ids for r in matcher.match_batch(batch)]
            single = [matcher.match(event).matched_profile_ids for event in batch]
        else:
            single = [matcher.match(event).matched_profile_ids for event in batch]
            batched = [r.matched_profile_ids for r in matcher.match_batch(batch)]
        assert batched == expected
        assert single == expected
        assert len(matcher._readouts) <= matcher._readout_bound


def test_each_distinct_mask_is_decoded_once_across_batches(monkeypatch):
    workload = build_workload(get_profile("wide-range").spec.with_counts(event_count=1024))
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    decoded = count_decodes(monkeypatch)
    results = []
    for _ in range(2):
        for start in range(0, len(events), 256):
            results += matcher.match_batch(events[start : start + 256])
    multi_bit = {
        mask_of(matcher, r.matched_profile_ids) for r in results if len(r.matched_profile_ids) > 1
    }
    assert len(multi_bit) > 100
    assert sorted(decoded) == sorted(multi_bit)


def test_recycled_id_reads_out_its_new_owner(monkeypatch):
    schema = make_schema()
    everything = RangePredicate.at_least(0)
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    for name in ("P0", "P1", "P2"):
        matcher.add_profile(Profile(name, {"a": everything}))
    event = Event({"a": 3, "b": 0})
    assert matcher.match(event).matched_profile_ids == ("P0", "P1", "P2")
    mask = mask_of(matcher, ("P0", "P1", "P2"))
    assert mask in matcher._readouts

    matcher.remove_profile("P1")
    matcher.add_profile(Profile("P3", {"a": everything}))
    # P3 took P1's dense id, so the event's mask is the memoised one.
    assert mask_of(matcher, ("P0", "P2", "P3")) == mask
    decoded = count_decodes(monkeypatch)
    assert matcher.match(event).matched_profile_ids == ("P0", "P2", "P3")
    batched = [r.matched_profile_ids for r in matcher.match_batch([event] * 16)]
    assert batched == [("P0", "P2", "P3")] * 16
    assert decoded == []


def test_memo_is_emptied_at_the_index_size(monkeypatch):
    """``N`` ``a`` profiles and ``N`` ``b`` profiles make ``N * N``
    two-bit masks against an index of ``4 * N`` (live + hash values)."""
    schema = make_schema()
    profiles = [Profile(f"A{v}", {"a": Equals(v)}) for v in range(DOMAIN_SIZE)]
    profiles += [Profile(f"B{v}", {"b": Equals(v)}) for v in range(DOMAIN_SIZE)]
    matcher = PredicateIndexMatcher(ProfileSet(schema, profiles))
    decoded = count_decodes(monkeypatch)
    for a in range(DOMAIN_SIZE):
        for b in range(DOMAIN_SIZE):
            ids = matcher.match(Event({"a": a, "b": b})).matched_profile_ids
            assert ids == (f"A{a}", f"B{b}")
            assert len(matcher._readouts) <= 4 * DOMAIN_SIZE
    assert matcher._readout_bound == 4 * DOMAIN_SIZE
    assert len(decoded) == DOMAIN_SIZE * DOMAIN_SIZE
    # The last masks survived the last emptying and are read, not decoded.
    assert matcher.match(Event({"a": DOMAIN_SIZE - 1, "b": DOMAIN_SIZE - 1})).matched_profile_ids
    assert len(decoded) == DOMAIN_SIZE * DOMAIN_SIZE


def test_single_bit_masks_skip_the_memo(monkeypatch):
    schema = make_schema()
    matcher = PredicateIndexMatcher(
        ProfileSet(schema, [Profile(f"A{v}", {"a": Equals(v)}) for v in range(DOMAIN_SIZE)])
    )
    decoded = count_decodes(monkeypatch)
    events = [Event({"a": v % DOMAIN_SIZE, "b": 0}) for v in range(32)]
    results = matcher.match_batch(events) + [matcher.match(event) for event in events]
    expected = [(f"A{v % DOMAIN_SIZE}",) for v in range(32)] * 2
    assert [r.matched_profile_ids for r in results] == expected
    assert decoded == []
    assert matcher._readouts == {}


@given(churn_scripts())
@settings(max_examples=60, deadline=None)
def test_results_of_earlier_steps_keep_their_ids_through_churn(data):
    """Every step's results still read what the oracle said at that step
    once the whole script, and every reuse of their masks, has run."""
    pool, script = data
    schema = make_schema()
    matcher = PredicateIndexMatcher(ProfileSet(schema))
    batch = _batch()
    kept = []
    for action, argument in script:
        live = {profile.profile_id for profile in matcher.profiles}
        if action == "toggle":
            profile = pool[argument]
            if profile.profile_id in live:
                matcher.remove_profile(profile.profile_id)
            else:
                matcher.add_profile(profile)
        elif action == "replan":
            domain = schema.domain("a")
            weights = {value: 10.0 if value == argument else 1.0 for value in range(DOMAIN_SIZE)}
            skewed = DiscreteDistribution(domain, weights)
            matcher.replan({name: skewed for name in ATTRIBUTES})
        else:
            matcher.add_profiles([p for p in pool if p.profile_id not in live])
        oracle = NaiveMatcher(ProfileSet(schema, list(matcher.profiles)))
        expected = [oracle.match(event).matched_profile_ids for event in batch]
        results = matcher.match_batch(batch) + [matcher.match(event) for event in batch]
        assert [r.matched_profile_ids for r in results] == expected + expected
        kept.append((results, expected + expected))
    for results, expected in kept:
        assert [tuple(r.matched_profile_ids) for r in results] == expected


EVERYTHING = RangePredicate.at_least(0)


def _three_and_an_outsider() -> PredicateIndexMatcher:
    """``P0``–``P2`` match every event; ``P3`` only events with ``b == 1``."""
    profiles = [Profile(f"P{n}", {"a": EVERYTHING}) for n in range(3)]
    profiles.append(Profile("P3", {"a": EVERYTHING, "b": Equals(1)}))
    return PredicateIndexMatcher(ProfileSet(make_schema(), profiles))


def _oracle_ids(matcher: PredicateIndexMatcher, event: Event) -> tuple[str, ...]:
    profiles = ProfileSet(matcher.profiles.schema, list(matcher.profiles))
    return NaiveMatcher(profiles).match(event).matched_profile_ids


def test_one_tuple_per_mask_across_match_and_batches():
    matcher = _three_and_an_outsider()
    events = [Event({"a": value, "b": 0}) for value in range(DOMAIN_SIZE)]
    events += [Event({"a": value}) for value in range(DOMAIN_SIZE)]
    first = matcher.match(events[0]).matched_profile_ids
    assert first == ("P0", "P1", "P2")
    results = [matcher.match(event) for event in events]
    for _ in range(3):
        results += matcher.match_batch(events * 2)
    assert all(r.matched_profile_ids is first for r in results)


def test_a_cancel_or_a_fresh_id_outside_the_mask_keeps_its_tuple():
    matcher = _three_and_an_outsider()
    event = Event({"a": 2, "b": 0})
    shared = matcher.match(event).matched_profile_ids
    # A fresh id: its bit lies above every memoised mask.
    matcher.add_profile(Profile("P4", {"b": Equals(5)}))
    assert matcher.match(event).matched_profile_ids is shared
    matcher.remove_profile("P3")
    assert matcher.match(event).matched_profile_ids is shared
    assert matcher.match_batch([event] * 16)[0].matched_profile_ids is shared


def test_a_recycled_id_gives_its_mask_a_new_tuple():
    matcher = _three_and_an_outsider()
    event = Event({"a": 2, "b": 0})
    before = [matcher.match(event), matcher.match_batch([event] * 16)[0]]
    mask = mask_of(matcher, ("P0", "P1", "P2"))
    matcher.remove_profile("P1")
    matcher.add_profile(Profile("P5", {"a": EVERYTHING}))
    # P5 took P1's dense id, so the event's mask is the memoised one.
    assert mask_of(matcher, ("P0", "P2", "P5")) == mask
    expected = _oracle_ids(matcher, event)
    assert expected == ("P0", "P2", "P5")
    assert matcher.match(event).matched_profile_ids == expected
    assert matcher.match_batch([event] * 16)[0].matched_profile_ids == expected
    assert [tuple(r.matched_profile_ids) for r in before] == [("P0", "P1", "P2")] * 2


def _distribution() -> dict[str, DiscreteDistribution]:
    domain = make_schema().domain("a")
    skewed = DiscreteDistribution(domain, {v: 1.0 + v for v in range(DOMAIN_SIZE)})
    return {name: skewed for name in ATTRIBUTES}


def test_a_replan_keeps_every_structure_id_and_shared_tuple():
    """A replan re-plans the buckets it has: after churn (a cancel, a
    recycled id, a residual entry), every attribute state, bucket and
    entry object, the epoch, the dense ids and a memoised mask's shared
    id tuple survive it."""
    matcher = _three_and_an_outsider()
    matcher.remove_profile("P1")
    matcher.add_profile(Profile("P5", {"a": EVERYTHING}))  # takes P1's dense id
    matcher.add_profile(Profile("P6", {"a": RangePredicate.between(1, 3), "b": NotEquals(4)}))
    event = Event({"a": 2, "b": 0})
    shared = matcher.match(event).matched_profile_ids
    assert shared == _oracle_ids(matcher, event) == ("P0", "P2", "P5", "P6")
    states = dict(matcher._states)
    buckets = {name: (s.hash_bucket, s.interval_bucket) for name, s in states.items()}
    entries = {name: dict(s.entries) for name, s in states.items()}
    epoch, id_of = matcher._epoch, dict(matcher._id_of)

    matcher.replan(_distribution())

    assert matcher._states.keys() == states.keys()
    for name, state in matcher._states.items():
        assert state is states[name]
        hash_bucket, interval_bucket = buckets[name]
        assert state.hash_bucket is hash_bucket and state.interval_bucket is interval_bucket
        assert state.entries.keys() == entries[name].keys()
        assert all(state.entries[p] is entry for p, entry in entries[name].items())
    assert (matcher._epoch, matcher._id_of) == (epoch, id_of)
    assert matcher.match(event).matched_profile_ids is shared
    assert matcher.match_batch([event] * 16)[0].matched_profile_ids is shared


def test_a_bulk_load_gives_a_memoised_mask_its_new_owners():
    def bulk(matcher):
        extra = [Profile(f"Q{n}", {"b": Equals(7)}) for n in range(2)]
        assert len(extra) * 4 >= len(matcher.profiles) + len(extra)  # rebuilds
        matcher.add_profiles(extra)

    _check_rebuild(bulk)


def _check_rebuild(rebuild) -> None:
    """Memoise ``P0 P1 P2`` as dense ids 0–2, cancel ``P1`` and rebuild:
    the compacted ids make ``P0 P2 P3`` the same mask."""
    matcher = _three_and_an_outsider()
    outside, inside = Event({"a": 2, "b": 0}), Event({"a": 2, "b": 1})
    before = [matcher.match(outside), matcher.match_batch([outside] * 16)[0]]
    mask = mask_of(matcher, ("P0", "P1", "P2"))
    assert mask in matcher._readouts
    matcher.remove_profile("P1")
    rebuild(matcher)
    assert mask_of(matcher, ("P0", "P2", "P3")) == mask
    expected = _oracle_ids(matcher, inside)
    assert expected == ("P0", "P2", "P3")
    assert matcher.match(inside).matched_profile_ids == expected
    assert matcher.match_batch([inside] * 16)[0].matched_profile_ids == expected
    assert [tuple(r.matched_profile_ids) for r in before] == [("P0", "P1", "P2")] * 2


def test_each_distinct_mask_builds_one_id_tuple_across_batches(monkeypatch):
    """A clock-free guard of the read-out's work: repeated batches build
    one id tuple per distinct multi-bit mask, not one per result."""
    workload = build_workload(get_profile("wide-range").spec.with_counts(event_count=1024))
    matcher = PredicateIndexMatcher(workload.profiles)
    events = list(workload.events)
    built = count_tuple_builds(monkeypatch)
    results = []
    for _ in range(2):
        for start in range(0, len(events), 256):
            results += matcher.match_batch(events[start : start + 256])
    multi_bit = {
        mask_of(matcher, r.matched_profile_ids) for r in results if len(r.matched_profile_ids) > 1
    }
    assert len(multi_bit) > 100
    assert len(built) == len(multi_bit)
    assert {mask_of(matcher, [matcher._pid_of[d] for d in ids]) for ids in built} == multi_bit
