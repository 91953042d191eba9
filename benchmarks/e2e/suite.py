#!/usr/bin/env python3
"""Run the whole e2e benchmark the way its acceptance is judged.

::

    python3 benchmarks/e2e/suite.py                  # 10 seeds x 6 workloads
    python3 benchmarks/e2e/suite.py --check-repeat   # two sets, compared
    python3 benchmarks/e2e/suite.py --seeds 1 --trace

Each repetition is one child process running ``BENCHMARK.json``'s
``command`` from the repository root (fresh interpreter, so
``peak_rss_mb`` and heap state belong to one workload) with its own seed;
repetitions go **round-robin** across workloads (rep 1 of all, then rep
2, ...) so a slow phase of the host lands on every workload instead of
on one.  Reported per end-to-end metric: median, quartiles, minimum, and
the spread (inter-quartile distance as a share of the median, Python's
``statistics.quantiles(values, n=4)``) next to the metric's bound from
``BENCHMARK.json``.  ``--check-repeat`` runs two full sets back to back
and fails when a second-set median is worse than the first by more than
the bound.  A 0.3 s host-speed reading (:mod:`hostspeed`) before every
repetition detects host speed shifts (``host_unstable`` warning above
15 %); the ``raw`` column is the spread of the same runs' values as
measured, before the runner expressed them at the reference host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median, quantiles

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO_ROOT = os.path.dirname(os.path.dirname(_HERE))

sys.path.insert(0, _HERE)
from hostspeed import host_speed  # noqa: E402

PROBE_SECONDS = 0.3
PROBE_TOLERANCE = 0.15


def run_child(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run the registered command once and return its result object."""
    completed = subprocess.run(
        [
            *command,
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if not completed.stdout.strip():
        raise RuntimeError(f"{workload} seed {seed} printed no result:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2].removeprefix("detail "))
    result["exit_code"] = completed.returncode
    return result


def run_set(
    command: list[str], workloads: list[str], seeds: range, seconds: int, probes: list[float]
) -> dict:
    """Run one round-robin set; return ``{workload: [result per seed]}``."""
    results: dict[str, list[dict]] = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            probes.append(host_speed(PROBE_SECONDS))
            started = time.perf_counter()
            result = run_child(command, workload, seed, seconds, trace=0)
            result["wall_s"] = time.perf_counter() - started
            results[workload].append(result)
            print(
                f"  seed {seed:3d} {workload:18s} {result['wall_s']:5.1f}s "
                f"failed={result['failed']}/{result['attempted']} host_speed={probes[-1]:.2f}",
                flush=True,
            )
    return results


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, median(values), q3


def summarise(results: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    """Return ``{workload: {metric: statistics}}`` of one set."""
    summary: dict[str, dict] = {}
    for workload, runs in results.items():
        summary[workload] = {}
        for metric in end_to_end:
            name = metric["name"]
            values = [run["metrics"][name]["value"] for run in runs]
            q1, mid, q3 = _quartiles(values)
            row = {
                "values": values,
                "median": mid,
                "q1": q1,
                "q3": q3,
                "min": min(values),
                "spread": (q3 - q1) / mid,
            }
            if name in runs[0]["detail"]["as_measured"]:
                raw_q1, raw_mid, raw_q3 = _quartiles(
                    [run["detail"]["as_measured"][name] for run in runs]
                )
                row["spread_as_measured"] = (raw_q3 - raw_q1) / raw_mid
            summary[workload][name] = row
    return summary


def print_summary(summary: dict, end_to_end: list[dict]) -> bool:
    """Print one row per workload x metric; return whether all spreads fit."""
    within = True
    for workload, metrics in summary.items():
        print(f"\n{workload}")
        print(
            f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s}"
            "  spread  bound     raw"
        )
        for metric in end_to_end:
            row = metrics[metric["name"]]
            # setup_s is exempt from the spread rule (not from the repeat rule).
            ok = row["spread"] <= metric["bound"] or metric["name"] == "setup_s"
            within = within and ok
            raw = row.get("spread_as_measured")
            print(
                f"  {metric['name']:16s} {row['median']:12.6g} {row['q1']:12.6g} "
                f"{row['q3']:12.6g} {row['min']:12.6g} {row['spread']:6.1%} {metric['bound']:6.0%}"
                f"  {'' if raw is None else format(raw, '6.1%'):>6s}"
                f"  {metric['unit']}{'' if ok else '  SPREAD > BOUND'}"
            )
    return within


def compare_sets(first: dict, second: dict, end_to_end: list[dict]) -> bool:
    """Print second-vs-first medians; return whether all stay within bounds."""
    agree = True
    print("\ncheck-repeat: second set vs first (positive = worse)")
    for workload in first:
        for metric in end_to_end:
            a = first[workload][metric["name"]]["median"]
            b = second[workload][metric["name"]]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = worse <= metric["bound"]
            agree = agree and ok
            print(
                f"  {workload:18s} {metric['name']:16s} {a:12.6g} -> {b:12.6g} "
                f"{worse:+7.1%} (bound {metric['bound']:.0%}){'' if ok else '  DISAGREE'}"
            )
    return agree


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(_REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="repetitions (one seed each)")
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=names, choices=names, metavar="NAME")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--check-repeat", action="store_true", help="run two sets and compare")
    parser.add_argument(
        "--json",
        default=os.path.join(_REPO_ROOT, "benchmarks", "output", "e2e-suite.json"),
        help="where the per-repetition detail goes",
    )
    args = parser.parse_args(argv)

    command = contract["command"]
    end_to_end = contract["end_to_end"]
    probes: list[float] = []
    detail: dict = {"sets": [], "traced": {}}
    ok = True
    seeds = range(args.seed, args.seed + args.seeds)
    for number in range(2 if args.check_repeat else 1):
        print(f"set {number + 1}: {args.seeds} seeds x {len(args.workloads)} workloads")
        results = run_set(command, args.workloads, seeds, args.seconds, probes)
        summary = summarise(results, end_to_end)
        ok = print_summary(summary, end_to_end) and ok
        ok = ok and all(run["correct"] for runs in results.values() for run in runs)
        detail["sets"].append({"results": results, "summary": summary})
    if args.check_repeat:
        first, second = (entry["summary"] for entry in detail["sets"])
        ok = compare_sets(first, second, end_to_end) and ok

    if args.trace:
        for workload in args.workloads:
            result = run_child(command, workload, args.seed, args.seconds, trace=1)
            ok = ok and result["correct"]
            detail["traced"][workload] = result
            print(f"\n{workload} (traced)")
            for metric, reading in result["metrics"].items():
                print(f"  {metric:42s} {reading['value']:>16.6g} {reading['unit']}")

    detail["probes"] = probes
    if max(probes) > min(probes) * (1 + PROBE_TOLERANCE):
        print(
            f"\nwarning: host_unstable - host speed ranged {min(probes):.2f}-{max(probes):.2f} "
            "of the reference; trust medians, not single runs"
        )
    os.makedirs(os.path.dirname(args.json), exist_ok=True)
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(f"\ndetail written to {args.json}; {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
