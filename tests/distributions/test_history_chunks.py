"""The chunked event window equals a per-event loop after every step.

``EventHistory`` keeps its window as admitted chunks of ``[events,
column counts]`` and forgets a chunk that leaves whole with the counts it
was admitted with; only the chunk cut by the window edge is counted
again.  The oracle (``history_reference.PerEventHistory``) validates,
appends, counts and evicts the oldest event one event at a time.

Scripts interleave the unchecked entry points the broker uses —
``_admit`` (one event), ``_admit_all`` with the batch's column counts and
with ``None`` (the pending path) — with partial events, batch sizes that
do not divide the window, ``clear()`` and reads.  Two histories follow
each script: one is read after every step (every admission is folded at
once), the other only where the script reads (admissions queue up and
fold together), and both must equal the oracle.
"""

from collections import Counter

from history_reference import PerEventHistory
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.domains import DiscreteDomain, IntegerDomain
from repro.core.events import Event, column_counts
from repro.core.schema import Attribute, Schema
from repro.distributions.estimation import EventHistory

SCHEMA = Schema(
    [
        Attribute("price", IntegerDomain(0, 9)),
        Attribute("venue", DiscreteDomain(["a", "b", "c"])),
        Attribute("volume", IntegerDomain(0, 3)),
    ]
)
READS = ("len", "events", *SCHEMA.names)


@st.composite
def events(draw, partial):
    values = {
        "price": draw(st.integers(0, 9)),
        "venue": draw(st.sampled_from(["a", "b", "c"])),
        "volume": draw(st.integers(0, 3)),
    }
    if partial:
        for name in draw(st.sets(st.sampled_from(SCHEMA.names), max_size=2)):
            del values[name]
    return Event(values)


@st.composite
def scripts(draw):
    max_length = draw(st.integers(1, 30))
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["one", "counted", "counted", "uncounted", "clear", "read"]))
        if kind == "clear":
            steps.append(("clear", None))
        elif kind == "read":
            steps.append(("read", draw(st.sampled_from(READS))))
        elif kind == "one":
            steps.append(("one", draw(events(draw(st.booleans())))))
        else:
            # Up to a little over a window: sizes that divide it and sizes
            # that cut a chunk at the window edge (an empty batch has no
            # column counts).
            size = draw(st.integers(1 if kind == "counted" else 0, max_length + 3))
            # Only complete events have column counts; the pending path
            # takes partial ones as well.
            partial = kind == "uncounted" and draw(st.booleans())
            steps.append((kind, [draw(events(partial)) for _ in range(size)]))
    return max_length, steps


def apply(history, kind, argument):
    if kind == "one":
        history._admit(argument)
    elif kind == "counted":
        counts = column_counts(argument, SCHEMA)
        assert counts is not None
        history._admit_all(list(argument), counts)
    elif kind == "uncounted":
        history._admit_all(list(argument), None)
    else:
        history.clear()


def apply_to_oracle(oracle, kind, argument):
    if kind == "clear":
        oracle.clear()
        return
    for event in [argument] if kind == "one" else argument:
        oracle.observe(event)


def read(history, what):
    if what == "len":
        return len(history)
    if what == "events":
        return [id(event) for event in history.events()]
    counter = history.counter(what)
    return counter.counts(), counter.total


def state(history):
    return [read(history, what) for what in READS]


def assert_chunks_are_consistent(history):
    """Every chunk holds what it was counted with; the chunks fill the window."""
    assert history._length == sum(len(chunk_events) for chunk_events, _ in history._chunks)
    assert history._length <= history.max_length
    for chunk_events, counts in history._chunks:
        assert chunk_events
        if counts is not None:
            for name in SCHEMA.names:
                column = [event.values[name] for event in chunk_events if name in event.values]
                assert counts[name] == Counter(column)


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_the_chunked_window_equals_the_per_event_loop(script):
    max_length, steps = script
    eager = EventHistory(SCHEMA, max_length=max_length)
    lazy = EventHistory(SCHEMA, max_length=max_length)
    oracle = PerEventHistory(SCHEMA, max_length=max_length)
    for kind, argument in steps:
        if kind == "read":
            assert read(lazy, argument) == read(oracle, argument)
            continue
        apply(eager, kind, argument)
        apply(lazy, kind, argument)
        apply_to_oracle(oracle, kind, argument)
        assert state(eager) == state(oracle)
        assert_chunks_are_consistent(eager)
    assert state(lazy) == state(oracle)
    assert_chunks_are_consistent(lazy)


def test_a_whole_chunk_leaves_with_its_admission_counts():
    history = EventHistory(SCHEMA, max_length=4)
    first = [Event({"price": 1, "venue": "a", "volume": 0})] * 2
    second = [Event({"price": 2, "venue": "b", "volume": 1})] * 2
    history._admit_all(first, column_counts(first, SCHEMA))
    history._admit_all(second, column_counts(second, SCHEMA))
    history._admit_all(second, column_counts(second, SCHEMA))
    assert len(history._chunks) == 2
    assert history.counter("price").counts() == {2: 4}
    assert history.counter("venue").total == 4


def test_the_chunk_cut_by_the_window_edge_is_counted_again_when_it_leaves():
    history = EventHistory(SCHEMA, max_length=5)
    batch = [Event({"price": p, "venue": "c", "volume": p % 4}) for p in range(3)]
    for _ in range(3):
        history._admit_all(list(batch), column_counts(batch, SCHEMA))
    # 9 admitted, 5 kept: the second chunk lost its first event.
    assert [len(chunk_events) for chunk_events, _ in history._chunks] == [2, 3]
    assert history._chunks[0][1] is None
    assert history.counter("price").counts() == {1: 2, 2: 2, 0: 1}
    history._admit_all(list(batch), column_counts(batch, SCHEMA))
    assert [len(chunk_events) for chunk_events, _ in history._chunks] == [2, 3]
    assert history.counter("price").counts() == {1: 2, 2: 2, 0: 1}
    assert history.counter("volume").total == 5
