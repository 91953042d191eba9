#!/usr/bin/env python3
"""Regression gate: compare a ``BENCH_summary.json`` against the baseline.

The benchmark suite dumps deterministic, timing-free numbers (mean
comparison operations per event, mean matches per event — fixed seeds make
them bit-stable across runs) into ``BENCH_summary.json``; a known-good
copy is committed as ``benchmarks/baseline.json``.  CI runs this script
after the benchmark smoke job and fails when

* a matcher/engine present in the baseline disappeared from the summary
  (coverage loss),
* ``mean_operations_per_event`` regressed beyond ``--tolerance`` (relative),
* ``mean_matches_per_event`` drifted at all (delivery counts are a
  correctness signal, not a performance one), or
* optional ``wall_clock_seconds`` entries regressed beyond the *much*
  looser ``--wall-tolerance`` — only when both sides carry them, which the
  timing-free CI smoke run does not (CI timing is untrustworthy; the
  deterministic metrics are the real gate there).

Improvements are reported but never fail the gate; refresh the baseline in
the same PR that makes things faster:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable \
        --bench-summary benchmarks/baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Metric gated with the relative --tolerance (higher is worse).
OPS_METRIC = "mean_operations_per_event"
#: Metric gated exactly (any drift is a behaviour change).
MATCHES_METRIC = "mean_matches_per_event"
#: Optional wall-clock metric gated with --wall-tolerance.
WALL_METRIC = "wall_clock_seconds"

#: Sections of the summary payload that hold per-engine metric dicts.
SECTIONS = (
    "matchers",
    "churn",
    "batch",
    "delivery",
    "durability",
    "routing",
    "corpus",
)


def compare_section(
    section: str,
    baseline: dict,
    current: dict,
    *,
    tolerance: float,
    wall_tolerance: float,
    failures: list[str],
    notes: list[str],
) -> None:
    for name, base_metrics in sorted(baseline.items()):
        current_metrics = current.get(name)
        if current_metrics is None:
            failures.append(f"{section}.{name}: missing from the current summary")
            continue

        base_ops = base_metrics.get(OPS_METRIC)
        current_ops = current_metrics.get(OPS_METRIC)
        if base_ops is not None and current_ops is not None and base_ops > 0:
            ratio = current_ops / base_ops
            if ratio > 1.0 + tolerance:
                failures.append(
                    f"{section}.{name}.{OPS_METRIC}: {current_ops:.3f} vs baseline "
                    f"{base_ops:.3f} (+{(ratio - 1) * 100:.1f}% > "
                    f"{tolerance * 100:.0f}% tolerance)"
                )
            elif ratio < 1.0 - tolerance:
                notes.append(
                    f"{section}.{name}.{OPS_METRIC}: improved to {current_ops:.3f} "
                    f"from {base_ops:.3f} ({(1 - ratio) * 100:.1f}%) — consider "
                    "refreshing the baseline"
                )

        base_matches = base_metrics.get(MATCHES_METRIC)
        current_matches = current_metrics.get(MATCHES_METRIC)
        if base_matches is not None and current_matches is not None:
            if abs(base_matches - current_matches) > 1e-9:
                failures.append(
                    f"{section}.{name}.{MATCHES_METRIC}: {current_matches!r} vs "
                    f"baseline {base_matches!r} — delivery behaviour changed "
                    "(fixed seeds make this metric exact)"
                )

        base_wall = base_metrics.get(WALL_METRIC)
        current_wall = current_metrics.get(WALL_METRIC)
        if base_wall is not None and current_wall is not None and base_wall > 0:
            wall_ratio = current_wall / base_wall
            if wall_ratio > 1.0 + wall_tolerance:
                failures.append(
                    f"{section}.{name}.{WALL_METRIC}: {current_wall:.4f}s vs baseline "
                    f"{base_wall:.4f}s (+{(wall_ratio - 1) * 100:.0f}% > "
                    f"{wall_tolerance * 100:.0f}% tolerance)"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("summary", help="freshly generated BENCH_summary.json")
    parser.add_argument(
        "baseline",
        nargs="?",
        default="benchmarks/baseline.json",
        help="committed known-good summary (default: benchmarks/baseline.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative ops/event regression tolerated (default: 0.10)",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=1.0,
        help="relative wall-clock regression tolerated when both summaries "
        "carry timings (default: 1.0, i.e. 2x)",
    )
    args = parser.parse_args(argv)

    with open(args.summary, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    failures: list[str] = []
    notes: list[str] = []
    for section in SECTIONS:
        compare_section(
            section,
            baseline.get(section, {}),
            current.get(section, {}),
            tolerance=args.tolerance,
            wall_tolerance=args.wall_tolerance,
            failures=failures,
            notes=notes,
        )

    for note in notes:
        print(f"note: {note}")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark regression(s) vs {args.baseline}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: no benchmark regressions vs {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
