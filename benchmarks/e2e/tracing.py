"""Span tracer: wraps the layers' public entry points from the outside.

Tracing lives entirely on the benchmark's side.  :func:`tracing` swaps
each listed method (class level) or function (module level) for a
wrapper that records one span per call and restores the originals on
exit.  Spans stay in memory; :func:`write_spans` dumps them when the run
ends.  A span's **self time** is its duration minus the part covered by
its child spans, so the self times of all spans under one root add up to
that root's duration.

(Named ``tracing`` rather than ``trace`` so the script directory on
``sys.path`` does not shadow the standard library's ``trace``.)
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from repro.api.service import FilterService, SubscriptionHandle
from repro.distributions.estimation import EventHistory, FrequencyCounter
from repro.matching.index import PredicateIndexMatcher
from repro.matching.index.planner import IndexPlanner
from repro.matching.tree import builder as tree_builder
from repro.matching.tree.matcher import TreeMatcher
from repro.service.adaptive import AdaptiveFilterEngine
from repro.service.broker import Broker
from repro.service.delivery import DeliveryDispatcher

__all__ = ["Span", "TARGETS", "Target", "Tracer", "tracing", "write_spans"]

#: Spans written per trace file; the header line carries the true total.
MAX_SPANS_WRITTEN = 100_000


def _operations(value) -> int:
    """Return the comparison operations of a match / match_batch result."""
    if isinstance(value, list):
        return sum(result.operations for result in value)
    return value.operations


@dataclass(frozen=True)
class Target:
    """One wrapped entry point and the layer its time is attributed to."""

    owner: object
    attribute: str
    layer: str
    #: Sub-division of a layer (``match`` / ``maintain`` / ``plan`` ...).
    kind: str
    #: Optional work count taken from the call's return value.
    count: Callable[[object], int] | None = None

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__
        return f"{owner}.{self.attribute}"


def _targets(owner, layer: str, kinds: dict[str, tuple[str, ...]], count=None) -> list[Target]:
    return [
        Target(owner, attribute, layer, kind, count if kind == "match" else None)
        for kind, attributes in kinds.items()
        for attribute in attributes
    ]


TARGETS: tuple[Target, ...] = tuple(
    _targets(
        FilterService,
        "api",
        {"publish": ("publish", "publish_batch"), "subscribe": ("subscribe", "subscribe_all")},
    )
    + _targets(SubscriptionHandle, "api", {"cancel": ("cancel",)})
    + _targets(
        Broker,
        "service.broker",
        {
            "publish": ("publish", "publish_batch"),
            "subscribe": ("subscribe", "subscribe_all", "unsubscribe"),
        },
    )
    + _targets(
        AdaptiveFilterEngine,
        "service.adaptive",
        {
            "match": ("match", "match_batch"),
            "maintain": ("add_profile", "add_profiles", "remove_profile"),
        },
    )
    + _targets(EventHistory, "distributions", {"history": ("observe", "observe_all")})
    + _targets(FrequencyCounter, "distributions", {"history": ("to_distribution",)})
    + _targets(
        PredicateIndexMatcher,
        "matching.index",
        {
            "match": ("match", "match_batch"),
            # The constructor is the bulk index build.
            "maintain": ("__init__", "add_profile", "add_profiles", "remove_profile"),
            "plan": ("replan", "estimated_cost", "recost_plans"),
        },
        count=_operations,
    )
    + _targets(IndexPlanner, "matching.index", {"plan": ("plan_profiles", "probe_order")})
    + _targets(TreeMatcher, "matching.tree", {"match": ("match", "match_batch")})
    + _targets(tree_builder, "matching.tree", {"build": ("build_tree",)})
    + _targets(
        DeliveryDispatcher, "service.delivery", {"dispatch": ("dispatch",), "drain": ("drain",)}
    )
)


class Span(NamedTuple):
    """One recorded call, derived from the tracer's raw records."""

    target: int  # index into TARGETS
    start: float
    end: float
    #: Index of the enclosing span (-1 for a root).
    parent: int
    #: Index of the root span: spans of one publish/churn call share it.
    call: int
    #: Duration minus the part covered by child spans.
    self_s: float
    #: Work counted at this boundary (0 where nothing is counted).
    count: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects raw span records on the thread that created it.

    Only the caller thread crosses the wrapped boundaries (delivery
    workers run executor internals and sinks, neither wrapped); calls on
    any other thread pass through unrecorded.  The wrapper does the least
    it can per call — a raw ``[target, start, end, parent, count]`` record
    with both clock reads outermost, so its own bookkeeping is billed to
    the span it records; :meth:`spans` derives call ids and self times
    afterwards.
    """

    def __init__(self) -> None:
        self._records: list[list] = []
        self._open: list[int] = []  # indexes of the spans in progress
        self._thread = threading.get_ident()

    def wrap(self, target_index: int, function: Callable) -> Callable:
        records, open_spans, owner_thread = self._records, self._open, self._thread
        count = TARGETS[target_index].count
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(function)
        def traced(*args, **kwargs):
            start = clock()
            if get_ident() != owner_thread:
                return function(*args, **kwargs)
            record = [target_index, start, 0.0, open_spans[-1] if open_spans else -1, 0]
            open_spans.append(len(records))
            records.append(record)
            try:
                value = function(*args, **kwargs)
                # Count at the outermost boundary only: a batch that falls
                # back to per-event match() must not be billed twice.
                if count is not None and (
                    record[3] < 0 or TARGETS[records[record[3]][0]].count is None
                ):
                    record[4] = count(value)
                return value
            finally:
                open_spans.pop()
                record[2] = clock()

        return traced

    def spans(self) -> list[Span]:
        """Return the finished spans with call ids and self times."""
        records = self._records
        covered = [0.0] * len(records)
        calls = [0] * len(records)
        for index, (_, start, end, parent, _) in enumerate(records):
            if parent < 0:
                calls[index] = index
            else:
                # Parents are recorded before their children.
                calls[index] = calls[parent]
                covered[parent] += end - start
        return [
            Span(target, start, end, parent, calls[index], end - start - covered[index], count)
            for index, (target, start, end, parent, count) in enumerate(records)
        ]


def _holders(target: Target, original: Callable) -> list:
    """Return every namespace that binds the target's original callable.

    A class binds its method once; a module-level function may have been
    imported by name into other ``repro`` modules (``build_tree`` is), and
    each of those bindings must be swapped for calls to be seen.
    """
    if isinstance(target.owner, type):
        return [target.owner]
    return [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("repro")
        and module is not None
        and vars(module).get(target.attribute) is original
    ]


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    tracer = Tracer()
    restore = []
    try:
        for index, target in enumerate(TARGETS):
            original = vars(target.owner)[target.attribute]
            wrapper = tracer.wrap(index, original)
            for holder in _holders(target, original):
                restore.append((holder, target.attribute, original))
                setattr(holder, target.attribute, wrapper)
        yield tracer
    finally:
        for holder, attribute, original in restore:
            setattr(holder, attribute, original)


def write_spans(path, workload: str, spans: list[Span]) -> None:
    """Write spans as JSON lines (times relative to the first span)."""
    origin = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        header = {
            "workload": workload,
            "spans_total": len(spans),
            "spans_written": min(len(spans), MAX_SPANS_WRITTEN),
        }
        handle.write(json.dumps(header) + "\n")
        names = [target.name for target in TARGETS]
        for index, span in enumerate(spans[:MAX_SPANS_WRITTEN]):
            record = {
                "id": index,
                "name": names[span.target],
                "layer": TARGETS[span.target].layer,
                "start": span.start - origin,
                "end": span.end - origin,
                "parent": span.parent,
                "call": span.call,
            }
            handle.write(json.dumps(record) + "\n")
