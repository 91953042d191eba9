"""One pass of a workload: set the program up, drive it, keep what it did.

The driver is **closed-loop with one caller thread**: the service is an
in-process library whose callers wait for ``publish`` to return, so the
next call is issued when the previous one returned.  A pass is set-up
(construct, subscribe the population, attach sinks, one discarded
warm-up batch) followed by the timed loop (every publish call, the
interleaved churn operations, the final ``drain()``).
"""

from __future__ import annotations

import gc
import time
from collections import deque
from dataclasses import dataclass, field

from repro.api import FilterService
from repro.core.profiles import ProfileSet
from repro.matching.index import PredicateIndexMatcher

from hostspeed import host_speed
from workloads import Inputs

__all__ = ["Pass", "flat_results", "run_pass"]

_clock = time.perf_counter


@dataclass
class Pass:
    """What one pass measured and what the program returned."""

    setup_s: float
    loop_started: float = 0.0
    loop_s: float = 0.0
    #: Host-speed readings (share of the reference) taken before set-up,
    #: between set-up and the loop, and after the loop.
    speeds: list[float] = field(default_factory=list)
    #: Start time and latency of every publish call, in call order.
    call_starts: list[float] = field(default_factory=list)
    call_latencies: list[float] = field(default_factory=list)
    #: What every publish call returned (``None`` where it raised).
    returned: list = field(default_factory=list)
    #: ``(id(event), perf_counter())`` per sink invocation.
    sink_log: list[tuple[int, float]] = field(default_factory=list)
    churn_ops: int = 0
    raised: int = 0
    #: ``ServiceStats`` before and after the loop (``None`` without a facade).
    before: object = None
    after: object = None
    #: ``KernelStats`` of the bare matcher (``matcher-direct`` only).
    kernel: object = None


def flat_results(inputs: Inputs, returned: list) -> list:
    """Return one ``MatchResult`` per event from a pass's return values."""
    results = []
    for value in returned:
        if inputs.definition.engine is None:
            results.extend(value)
        elif inputs.definition.batch == 1:
            results.append(value.match_result)
        else:
            results.extend(outcome.match_result for outcome in value)
    return results


def _timed_loop(run: Pass, call, calls, after_call=None) -> None:
    starts, latencies, returned = run.call_starts, run.call_latencies, run.returned
    for item in calls:
        start = _clock()
        try:
            value = call(item)
        except Exception:
            value = None
            run.raised += 1
        latencies.append(_clock() - start)
        starts.append(start)
        returned.append(value)
        if after_call is not None:
            after_call()


def run_pass(inputs: Inputs, *, engine: str | None = None, calls=None) -> Pass:
    """Set up and drive one pass; ``engine``/``calls`` serve the verifier.

    ``engine`` overrides the workload's engine (the naive replay) and
    ``calls`` limits the stream to a prefix of ``inputs.calls``.
    """
    definition = inputs.definition
    calls = inputs.calls if calls is None else calls
    if definition.engine is None:
        return _matcher_pass(inputs, calls)

    sink_log: list[tuple[int, float]] = []

    def sink(notification, _append=sink_log.append, _clock=_clock):
        _append((id(notification.event), _clock()))

    speeds = [host_speed()]
    started = _clock()
    service = FilterService.from_profile(
        inputs.corpus, engine=engine or definition.engine, **definition.service_kwargs
    )
    try:
        handles = service.subscribe_all(inputs.profiles)
        for handle in handles:
            handle.deliver_to(sink)
        service.publish_batch(inputs.warmup)
        service.drain()
        run = Pass(setup_s=_clock() - started, sink_log=sink_log, speeds=speeds)
        speeds.append(host_speed())
        sink_log.clear()
        run.before = service.stats()

        after_call = None
        if definition.churn:
            active = deque(handles)
            arrivals = iter(inputs.replacements)

            def after_call():
                # One cancel + one replacement per two published events.
                if len(run.call_starts) % 2:
                    return
                try:
                    active.popleft().cancel()
                    active.append(service.subscribe(next(arrivals), sink=sink))
                except Exception:
                    run.raised += 1
                run.churn_ops += 2

        call = service.publish if definition.batch == 1 else service.publish_batch
        gc.collect()
        gc.freeze()
        try:
            run.loop_started = _clock()
            _timed_loop(run, call, calls, after_call)
            service.drain()
            run.loop_s = _clock() - run.loop_started
        finally:
            gc.unfreeze()
        speeds.append(host_speed())
        run.after = service.stats()
    finally:
        service.close()
    return run


def _matcher_pass(inputs: Inputs, calls) -> Pass:
    speeds = [host_speed()]
    started = _clock()
    matcher = PredicateIndexMatcher(ProfileSet(inputs.corpus.spec.schema, inputs.profiles))
    matcher.match_batch(inputs.warmup)
    run = Pass(setup_s=_clock() - started, speeds=speeds)
    speeds.append(host_speed())
    gc.collect()
    gc.freeze()
    try:
        run.loop_started = _clock()
        _timed_loop(run, matcher.match_batch, calls)
        run.loop_s = _clock() - run.loop_started
    finally:
        gc.unfreeze()
    speeds.append(host_speed())
    run.kernel = matcher.kernel_stats
    return run
