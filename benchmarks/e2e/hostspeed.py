"""Host-speed reading: how fast is this machine *right now*?

The benchmark container shifts speed with its neighbours' load: for
minutes at a time everything runs 1.2-1.4x slower, which is more than
any bound this benchmark could gate on.  :func:`host_speed` times a
fixed, benchmark-owned piece of reference work - an allocation-free scan
over a few MB of small dicts, interpreter-bound like the program itself,
and untouched by any change to the program - and returns the rate as a
share of :data:`REFERENCE_ROWS_PER_S`.  The runner reads it around every
pass and expresses that pass's times at the reference speed (see
``run.py``); the suite reads it before every repetition to warn about an
unstable host.

A scan that also allocated (appending tuples to a list) tracked the
workloads slightly better but reads 20 % low after ``aml-auto``'s tree
builds have churned the heap; a pure counting loop does not see memory
contention.  The measured spreads of all three are in the README.
"""

from __future__ import annotations

import time

__all__ = ["REFERENCE_ROWS_PER_S", "host_speed"]

#: What this container sustains when its neighbours are quiet (median of
#: ~5 000 readings taken while sizing the benchmark).
REFERENCE_ROWS_PER_S = 24.0e6

_ROWS = [{"a": index % 97, "b": index % 89, "c": index % 83} for index in range(8_000)]


def host_speed(seconds: float = 0.15) -> float:
    """Return the host's current speed as a share of the reference."""
    clock = time.perf_counter
    rows = _ROWS
    rounds = total = 0
    started = clock()
    deadline = started + seconds
    while clock() < deadline:
        for row in rows:
            if row["a"] < 40 and row["b"] > 10:
                total += row["c"]
        rounds += 1
    return rounds * len(rows) / (clock() - started) / REFERENCE_ROWS_PER_S
