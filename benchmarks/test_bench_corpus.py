"""Corpus benchmark: every declarative profile through every applicable family.

This is the "breadth with teeth" gate of the scenario corpus
(``src/repro/workloads/profiles/*.toml``).  Each profile runs through
each engine family its hints declare applicable, via the
``FilterService`` facade and the profile's own run shape (batch size,
delivery mode, churn schedule).  Under the pinned seeds and adaptation
knobs the resulting ops/event and matches/event are
bit-stable, so:

* the per-scenario numbers land in the ``corpus`` section of
  ``BENCH_summary.json`` and are gated individually by
  ``compare_to_baseline.py`` — a regression names the scenario that
  moved;
* the *win coverage* is asserted outright: each production family
  (tree / index) must achieve the minimum ops/event
  on at least one corpus scenario, i.e. the corpus genuinely spans the
  space where the families disagree.

``benchmarks/run_corpus.py`` drives the same runner from the command
line and appends one record per run to the committed
``BENCH_history.jsonl`` — the reviewable perf trajectory; this module
also checks that file stays well-formed and covers the corpus.
"""

import os
import time

import pytest

from repro.experiments.corpus import append_history, iter_history, run_profile
from repro.workloads.profiles import get_profile, list_profiles

#: CI-sized event cap: large enough that pinned replans (aml-transactions
#: applies its replan at event 400) land inside the stream, small
#: enough that the full matrix stays in benchmark-smoke budget.
CI_EVENT_CAP = 600

#: Families whose corpus win the gate demands (the production roster).
REQUIRED_WINNERS = ("tree", "index")

_HISTORY = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCH_history.jsonl")

_RESULTS: dict[tuple[str, str], tuple] = {}


def _run(profile_name: str, family: str):
    if (profile_name, family) not in _RESULTS:
        profile = get_profile(profile_name)
        start = time.perf_counter()
        record = run_profile(profile, family, event_count=CI_EVENT_CAP)
        wall = time.perf_counter() - start
        _RESULTS[(profile_name, family)] = (record, wall)
    return _RESULTS[(profile_name, family)]


def _timing_enabled(request) -> bool:
    return not request.config.getoption("benchmark_disable", default=False)


def test_corpus_runs_every_profile_through_every_family(record_corpus, request):
    """≥8 committed profiles load and run; every run is recorded."""
    names = list_profiles()
    assert len(names) >= 8, f"corpus shrank to {len(names)} profiles: {names}"
    for name in names:
        profile = get_profile(name)
        assert profile.engine.families, name
        for family in profile.engine.families:
            record, wall = _run(name, family)
            assert record.events > 0 and record.ops_per_event > 0.0
            extra = {}
            if _timing_enabled(request):
                extra["wall_clock_seconds"] = wall
            record_corpus(record, **extra)
        # The same subscription state feeds every family (churn schedule
        # included), so delivered matches must agree across the roster.
        matches = {
            _run(name, family)[0].matches_per_event
            for family in profile.engine.families
        }
        assert len(matches) == 1, f"{name}: families disagree on matches {matches}"


def test_every_engine_family_wins_a_corpus_scenario():
    """The disagreement-space gate: each family is the cheapest somewhere."""
    wins: dict[str, list[str]] = {family: [] for family in REQUIRED_WINNERS}
    for name in list_profiles():
        profile = get_profile(name)
        ops = {
            family: _run(name, family)[0].ops_per_event
            for family in profile.engine.families
        }
        best = min(ops.values())
        for family, value in ops.items():
            if value <= best + 1e-9 and family in wins:
                wins[family].append(name)
    print(f"\ncorpus wins: {wins}")
    for family in REQUIRED_WINNERS:
        assert wins[family], (
            f"{family} wins no corpus scenario — the corpus no longer spans "
            f"its niche (wins: {wins})"
        )


def test_history_records_round_trip(tmp_path):
    """append_history → iter_history is lossless and stamps metadata."""
    profile = get_profile("single-attribute")
    records = [_run("single-attribute", family)[0] for family in profile.engine.families]
    path = tmp_path / "history.jsonl"
    appended = append_history(records, path, timestamp=1700000000.0, revision="deadbeef")
    assert appended == len(records)
    replayed = list(iter_history(path))
    assert [r["family"] for r in replayed] == list(profile.engine.families)
    assert all(r["revision"] == "deadbeef" for r in replayed)
    assert all(r["profile"] == "single-attribute" for r in replayed)


def test_sweep_prints_a_table_and_writes_no_history(tmp_path, monkeypatch, capsys):
    """``run_corpus.py --sweep``, shrunk: one row of events/s per profile."""
    import run_corpus

    monkeypatch.setattr(run_corpus, "SWEEP_WARMUP_EVENTS", 20)
    monkeypatch.setattr(run_corpus, "SWEEP_TIMED_EVENTS", 40)
    monkeypatch.setattr(run_corpus, "SWEEP_RUNS", 1)
    history = tmp_path / "history.jsonl"
    argv = ["--sweep", "--profiles", "single-attribute", "--history", str(history)]
    assert run_corpus.main(argv) == 0
    header, _, row = capsys.readouterr().out.splitlines()
    assert header == "| Profile | index |"
    assert row.startswith("| `single-attribute` | ") and row.count("|") == 3
    assert not history.exists()


def test_committed_history_is_well_formed_and_covers_the_corpus():
    """BENCH_history.jsonl parses and carries one record per profile x family."""
    if not os.path.exists(_HISTORY):
        pytest.skip("no committed BENCH_history.jsonl in this checkout")
    seen = {(record["profile"], record["family"]) for record in iter_history(_HISTORY)}
    missing = [
        (name, family)
        for name in list_profiles()
        for family in get_profile(name).engine.families
        if (name, family) not in seen
    ]
    assert not missing, (
        f"BENCH_history.jsonl lacks records for {missing}; run "
        "benchmarks/run_corpus.py to append them"
    )


def test_profile_service_fixture_builds_from_scenario(profile_service):
    """The bench fixture honours the profile's hints and overrides."""
    service = profile_service(scenario="smart-building")
    assert service.stats().engine == "tree"
    overridden = profile_service(scenario="smart-building", engine="index")
    assert overridden.stats().engine == "index"
