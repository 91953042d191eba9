"""Output verifier of the e2e benchmark (runs untimed, after the passes).

Two checks, both counted in *failed operations*:

* **Matches**: the first :data:`VERIFY_EVENTS` events of the workload
  are replayed — same population, same churn script — through the naive
  scan (``engine="naive"``; a bare ``NaiveMatcher`` for
  ``matcher-direct``), and every event must have produced exactly the
  naive matched-id set in the measured pass.
* **Delivery**: over the whole pass, sink invocations ==
  ``ServiceStats.notifications`` == the notifications the publish calls
  returned, nothing ``failed`` / ``dropped`` / ``dead_lettered``, and
  nothing ``pending`` after ``drain()``.
"""

from __future__ import annotations

from repro.core.profiles import ProfileSet
from repro.matching.naive import NaiveMatcher

from driver import Pass, flat_results, run_pass
from workloads import Inputs

__all__ = ["VERIFY_EVENTS", "delivery_failures", "head_results", "match_failures", "naive_results"]

#: Events replayed through the naive scan.
VERIFY_EVENTS = 2_000


def _verified_calls(inputs: Inputs) -> int:
    return max(1, VERIFY_EVENTS // inputs.definition.batch)


def head_results(inputs: Inputs, run: Pass) -> list:
    """Return the measured ``MatchResult`` of each replayed event."""
    return flat_results(inputs, run.returned[: _verified_calls(inputs)])


def naive_results(inputs: Inputs) -> list:
    """Replay the head of the workload through the naive scan."""
    calls = inputs.calls[: _verified_calls(inputs)]
    if inputs.definition.engine is None:
        matcher = NaiveMatcher(ProfileSet(inputs.corpus.spec.schema, inputs.profiles))
        return [matcher.match(event) for call in calls for event in call]
    replay = run_pass(inputs, engine="naive", calls=calls)
    return flat_results(inputs, replay.returned)


def match_failures(expected: list, measured: list) -> int:
    """Count events whose matched ids differ from the naive scan's."""
    failed = abs(len(expected) - len(measured))
    for want, got in zip(expected, measured):
        ids = got.matched_profile_ids
        if len(set(ids)) != len(ids) or set(ids) != set(want.matched_profile_ids):
            failed += 1
    return failed


def delivery_failures(inputs: Inputs, run: Pass) -> int:
    """Count calls that raised plus lost, duplicated or failed notifications."""
    failed = run.raised
    if inputs.definition.engine is None or run.raised:
        # No delivery without a facade; a call that raised returned nothing.
        return failed
    returned = sum(
        outcome.delivered
        for value in run.returned
        for outcome in ((value,) if inputs.definition.batch == 1 else value)
    )
    notifications = run.after.notifications - run.before.notifications
    failed += abs(len(run.sink_log) - returned) + abs(notifications - returned)
    delivery = run.after.delivery
    return failed + delivery.failed + delivery.dropped + delivery.dead_lettered + delivery.pending
