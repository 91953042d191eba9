"""Benchmark-suite configuration.

Each figure benchmark both *times* the reproduction (via pytest-benchmark)
and *persists* the regenerated table under ``benchmarks/output/`` so the
numbers quoted in EXPERIMENTS.md can be refreshed with a single
``pytest benchmarks/ --benchmark-only`` run.

``--bench-summary [PATH]`` additionally dumps a ``BENCH_summary.json`` of
the mean comparison operations per event for every matcher the baselines
benchmark exercises — a timing-free regression guard that CI uploads as an
artifact (wall-clock numbers are too flaky to gate on in CI; the operation
counts are deterministic).
"""

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")

_OPS_SUMMARY: dict[str, dict[str, float]] = {}
_CHURN_SUMMARY: dict[str, dict[str, float]] = {}
_BATCH_SUMMARY: dict[str, dict[str, float]] = {}
_DELIVERY_SUMMARY: dict[str, dict[str, float]] = {}
_DURABILITY_SUMMARY: dict[str, dict[str, float]] = {}
_ROUTING_SUMMARY: dict[str, dict[str, float]] = {}
_CORPUS_SUMMARY: dict[str, dict[str, float]] = {}


def pytest_addoption(parser):
    """Register ``--bench-summary`` (effective when pytest targets this
    directory; a plain repo-root run never parses the option)."""
    parser.addoption(
        "--bench-summary",
        action="store",
        nargs="?",
        const=os.path.join(OUTPUT_DIR, "BENCH_summary.json"),
        default=None,
        metavar="PATH",
        help="dump a JSON summary of mean comparison operations per event "
        "per matcher (default path: benchmarks/output/BENCH_summary.json)",
    )


@pytest.fixture
def record_ops():
    """Record one matcher's FilterStatistics for the summary dump."""

    def _record(matcher_name: str, statistics) -> None:
        _OPS_SUMMARY[matcher_name] = {
            "mean_operations_per_event": statistics.average_operations_per_event(),
            "mean_matches_per_event": statistics.average_matches_per_event(),
            "events": float(statistics.events),
        }

    return _record


@pytest.fixture
def record_churn():
    """Record one engine's churn-workload statistics for the summary dump.

    Like ``record_ops`` these are timing-free, deterministic numbers (the
    matching cost observed while subscriptions churn), so the regression
    gate can compare them across CI runs.
    """

    def _record(engine_name: str, statistics, churn_ops: int) -> None:
        _CHURN_SUMMARY[engine_name] = {
            "mean_operations_per_event": statistics.average_operations_per_event(),
            "mean_matches_per_event": statistics.average_matches_per_event(),
            "events": float(statistics.events),
            "churn_ops": float(churn_ops),
        }

    return _record


@pytest.fixture
def record_batch():
    """Record one batch-kernel scenario for the summary dump.

    Besides the deterministic charged metrics, callers may pass extra
    keys — e.g. the kernel's executed ops/event and ``dedup_factor``
    (deterministic, gateable) or ``wall_clock_seconds`` (timing runs
    only, gated by ``compare_to_baseline.py`` solely when both summaries
    carry it).
    """

    def _record(scenario_name: str, statistics, **extra: float) -> None:
        entry = {
            "mean_operations_per_event": statistics.average_operations_per_event(),
            "mean_matches_per_event": statistics.average_matches_per_event(),
            "events": float(statistics.events),
        }
        entry.update(extra)
        _BATCH_SUMMARY[scenario_name] = entry

    return _record


@pytest.fixture
def record_delivery():
    """Record one delivery-executor scenario for the summary dump.

    The deterministic charged metrics (ops/event, matches/event) are
    identical across executors — matching is upstream of delivery — so
    the regression gate doubles as an executor-equivalence check.
    Timing runs add ``wall_clock_seconds`` (gated loosely, local only)
    and an informational ``events_per_second``.
    """

    def _record(scenario_name: str, statistics, **extra: float) -> None:
        entry = {
            "mean_operations_per_event": statistics.average_operations_per_event(),
            "mean_matches_per_event": statistics.average_matches_per_event(),
            "events": float(statistics.events),
        }
        entry.update(extra)
        _DELIVERY_SUMMARY[scenario_name] = entry

    return _record


@pytest.fixture
def record_durability():
    """Record one durability scenario for the summary dump.

    Journal accounting (records appended, subscriptions recovered) and
    post-replay matching cost are deterministic under fixed seeds, so
    the regression gate covers the durable boot path like any engine.
    Timing runs add ``wall_clock_seconds`` / per-op overhead keys, gated
    loosely and only when both summaries carry them.
    """

    def _record(scenario_name: str, statistics=None, **extra: float) -> None:
        entry: dict[str, float] = {}
        if statistics is not None:
            entry["mean_operations_per_event"] = (
                statistics.average_operations_per_event()
            )
            entry["mean_matches_per_event"] = (
                statistics.average_matches_per_event()
            )
            entry["events"] = float(statistics.events)
        entry.update(extra)
        _DURABILITY_SUMMARY[scenario_name] = entry

    return _record


@pytest.fixture
def record_routing():
    """Record one broker-overlay scenario for the summary dump.

    Everything the routing benchmark measures is deterministic under
    fixed seeds: suppression ratios, hop counts, covering-table sizes and
    cover-check counters come from exact integer accounting, and
    ``mean_matches_per_event`` (delivered notifications per published
    event) doubles as the delivery-equivalence signal the gate refuses to
    let drift.  Timing runs may add ``wall_clock_seconds``, gated loosely
    and only when both summaries carry it.
    """

    def _record(scenario_name: str, **metrics: float) -> None:
        _ROUTING_SUMMARY[scenario_name] = dict(metrics)

    return _record


@pytest.fixture
def record_corpus():
    """Record one corpus profile x engine-family run for the summary dump.

    Keys are ``"<profile>:<family>"``.  The corpus runner's ops/event and
    matches/event are deterministic (pinned seeds, pinned adaptation
    knobs), so ``compare_to_baseline.py`` gates every
    scenario of the corpus individually — a regression names the
    scenario that moved.  Timing runs add ``wall_clock_seconds``, gated
    loosely and only when both summaries carry it.
    """

    def _record(record, **extra: float) -> None:
        entry = {
            "mean_operations_per_event": record.ops_per_event,
            "mean_matches_per_event": record.matches_per_event,
            "events": float(record.events),
            "churn_ops": float(record.churn_ops),
        }
        if record.wall_clock_seconds is not None:
            entry["wall_clock_seconds"] = record.wall_clock_seconds
        entry.update(extra)
        _CORPUS_SUMMARY[f"{record.profile}:{record.family}"] = entry

    return _record


@pytest.fixture
def profile_service():
    """Factory for profile-configured services: ``profile_service(scenario=...)``.

    Builds a :class:`repro.api.FilterService` via ``from_profile`` so
    benchmarks stop duplicating engine/delivery setup; pass
    ``engine=`` (or any other constructor kwarg) to override the
    profile's hints.  Services are closed at teardown.
    """
    from repro.api import FilterService

    services = []

    def _make(*, scenario: str, **overrides):
        service = FilterService.from_profile(scenario, **overrides)
        services.append(service)
        return service

    yield _make
    for service in services:
        service.close()


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_summary.json when ``--bench-summary`` was given."""
    try:
        target = session.config.getoption("--bench-summary")
    except (ValueError, KeyError):
        return
    summaries = (
        _OPS_SUMMARY,
        _CHURN_SUMMARY,
        _BATCH_SUMMARY,
        _DELIVERY_SUMMARY,
        _DURABILITY_SUMMARY,
        _ROUTING_SUMMARY,
        _CORPUS_SUMMARY,
    )
    if not target or not any(summaries):
        return
    directory = os.path.dirname(target)
    if directory:
        os.makedirs(directory, exist_ok=True)
    payload = {
        "metric": "mean comparison operations per event",
        "scenario": "stock ticker (400 profiles, 1500 events)",
        "matchers": dict(sorted(_OPS_SUMMARY.items())),
        "churn": dict(sorted(_CHURN_SUMMARY.items())),
        "batch": dict(sorted(_BATCH_SUMMARY.items())),
        "delivery": dict(sorted(_DELIVERY_SUMMARY.items())),
        "durability": dict(sorted(_DURABILITY_SUMMARY.items())),
        "routing": dict(sorted(_ROUTING_SUMMARY.items())),
        "corpus": dict(sorted(_CORPUS_SUMMARY.items())),
    }
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def output_dir() -> str:
    """Directory where regenerated figure tables are written."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture
def save_table(output_dir):
    """Persist a FigureTable (text + CSV) and echo it to stdout."""

    def _save(table) -> None:
        text = table.to_text()
        print()
        print(text)
        base = os.path.join(output_dir, table.figure_id)
        with open(base + ".txt", "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        with open(base + ".csv", "w", encoding="utf-8") as handle:
            handle.write(table.to_csv() + "\n")

    return _save
