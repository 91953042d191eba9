#!/usr/bin/env python3
"""Run the declarative scenario corpus and append to ``BENCH_history.jsonl``.

Executes every committed profile (``src/repro/workloads/profiles/*.toml``)
through every engine family its hints declare applicable, via the same
:func:`repro.experiments.corpus.run_profile` runner the benchmark gate
uses, and appends one JSON line per run to the history file — the
committed, reviewable perf trajectory.  The deterministic metrics
(ops/event, matches/event) are bit-stable under the pinned seeds; pass
``--timing`` to record wall-clock too (informational, never gated).

Typical invocations::

    # full corpus, CI-sized, append to the committed history
    PYTHONPATH=src python benchmarks/run_corpus.py --events 600

    # one profile, full event streams, with wall-clock
    PYTHONPATH=src python benchmarks/run_corpus.py \\
        --profiles aml-transactions --timing --events 0

    # the headline events/s sweep of the index family; writes no history
    PYTHONPATH=src python benchmarks/run_corpus.py --sweep \\
        --profiles aml-transactions mixed-structure
"""

from __future__ import annotations

import argparse
import gc
import os
import subprocess
import sys
import time
from statistics import median

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.api import FilterService  # noqa: E402
from repro.experiments.corpus import append_history, run_profile  # noqa: E402
from repro.workloads import build_workload  # noqa: E402
from repro.workloads.profiles import get_profile, list_profiles  # noqa: E402

#: The headline sweep: per profile, subscribe the population to the
#: ``index`` family (``auto`` is the same family under another name),
#: publish one warm-up batch, collect garbage, then time one batch of the
#: next events.  The collection keeps the previous run's discarded service
#: out of the timed batch.  A cell is the median over the runs.
SWEEP_ENGINE = "index"
SWEEP_WARMUP_EVENTS = 500
SWEEP_TIMED_EVENTS = 1_500
SWEEP_RUNS = 7


def _git_revision() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def sweep_events_per_s(profile, workload) -> float:
    """Return the events/s of one timed batch after one warm-up batch.

    A full collection runs between the two, so the garbage of earlier
    services is not collected inside the timed batch.
    """
    events = list(workload.events)
    warmup, timed = events[:SWEEP_WARMUP_EVENTS], events[SWEEP_WARMUP_EVENTS:]
    with FilterService.from_profile(profile, engine=SWEEP_ENGINE) as service:
        service.subscribe_all(workload.profiles)
        service.publish_batch(warmup)
        gc.collect()
        started = time.perf_counter()
        service.publish_batch(timed)
        return len(timed) / (time.perf_counter() - started)


def sweep(names: list[str]) -> None:
    """Print the headline events/s table of ``names`` (no history written)."""
    print(f"| Profile | {SWEEP_ENGINE} |")
    print("|---|---:|")
    for name in names:
        profile = get_profile(name)
        spec = profile.spec.with_counts(event_count=SWEEP_WARMUP_EVENTS + SWEEP_TIMED_EVENTS)
        workload = build_workload(spec)
        rate = median(sweep_events_per_s(profile, workload) for _ in range(SWEEP_RUNS))
        print(f"| `{name}` | {rate:,.0f} |", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--history",
        default=os.path.join(_REPO_ROOT, "BENCH_history.jsonl"),
        help="history file to append to (default: BENCH_history.jsonl at the repo root)",
    )
    parser.add_argument(
        "--events",
        type=int,
        default=600,
        help="per-profile event cap; 0 runs each profile's full stream (default: 600)",
    )
    parser.add_argument(
        "--profiles",
        nargs="*",
        default=None,
        metavar="NAME",
        help="run only these corpus profiles (default: all)",
    )
    parser.add_argument(
        "--families",
        nargs="*",
        default=None,
        metavar="FAMILY",
        help="run only these engine families (intersected with each "
        "profile's applicable roster)",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock seconds per run (informational, never gated)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help=f"print events/s of {SWEEP_ENGINE} per profile: one "
        f"{SWEEP_WARMUP_EVENTS}-event warm-up batch, one timed {SWEEP_TIMED_EVENTS}-event "
        f"batch, median of {SWEEP_RUNS} runs (informational; writes no history)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the records without appending to the history file",
    )
    args = parser.parse_args(argv)

    names = args.profiles if args.profiles else list(list_profiles())
    if args.sweep:
        sweep(names)
        return 0
    cap = None if args.events == 0 else args.events
    records = []
    for name in names:
        profile = get_profile(name)
        families = profile.engine.families
        if args.families:
            families = tuple(f for f in families if f in args.families)
        for family in families:
            record = run_profile(profile, family, event_count=cap, timing=args.timing)
            records.append(record)
            wall = (
                f"  {record.wall_clock_seconds:8.3f}s"
                if record.wall_clock_seconds is not None
                else ""
            )
            print(
                f"{record.profile:18s} {record.family:8s} "
                f"ops/event={record.ops_per_event:10.3f} "
                f"matches/event={record.matches_per_event:8.3f}{wall}"
            )

    if not records:
        print("nothing to run (empty profile/family selection)", file=sys.stderr)
        return 1
    if args.dry_run:
        print(f"dry run: {len(records)} record(s) not appended")
        return 0
    appended = append_history(
        records, args.history, timestamp=time.time(), revision=_git_revision()
    )
    print(f"appended {appended} record(s) to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
