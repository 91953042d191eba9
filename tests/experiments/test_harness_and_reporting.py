"""Tests for the experiment harness and figure reporting."""


import pytest

from repro.core.errors import ExperimentError
from repro.experiments.harness import (
    STRATEGY_BINARY,
    STRATEGY_EVENT,
    STRATEGY_NATURAL,
    evaluate_analytically,
    evaluate_by_simulation,
)
from repro.experiments.reporting import FigureRow, FigureTable
from repro.workloads.generators import build_workload
from repro.workloads.profiles import get_profile

STRATEGIES = (STRATEGY_NATURAL, STRATEGY_EVENT, STRATEGY_BINARY)


def small_workload():
    return build_workload(
        get_profile("single-attribute")
        .spec.with_counts(profile_count=30, event_count=500)
        .with_seed(2)
        .with_distributions(events="95% high", profiles="95% high")
    )


class TestHarness:
    def test_analytic_evaluation_returns_one_entry_per_strategy(self):
        evaluations = evaluate_analytically(small_workload(), STRATEGIES)
        assert [e.strategy.name for e in evaluations] == [s.name for s in STRATEGIES]
        for evaluation in evaluations:
            assert evaluation.operations_per_event > 0
            assert 0 <= evaluation.match_probability <= 1
            assert evaluation.cost is not None
            assert evaluation.statistics is None

    def test_event_reordering_wins_on_peaked_distributions(self):
        evaluations = {
            e.strategy.name: e for e in evaluate_analytically(small_workload(), STRATEGIES)
        }
        assert (
            evaluations[STRATEGY_EVENT.name].operations_per_event
            <= evaluations[STRATEGY_NATURAL.name].operations_per_event
        )

    def test_simulation_evaluation_uses_workload_events(self):
        workload = small_workload()
        evaluations = evaluate_by_simulation(workload, (STRATEGY_NATURAL,))
        assert evaluations[0].statistics is not None
        assert evaluations[0].statistics.events == len(workload.events)
        assert evaluations[0].tree_nodes > 0

    def test_simulation_with_precision_stopping(self):
        workload = small_workload()
        evaluations = evaluate_by_simulation(
            workload, (STRATEGY_NATURAL,), precision_target=0.05, max_events=5000
        )
        statistics = evaluations[0].statistics
        assert statistics is not None
        assert statistics.events <= 5000
        assert statistics.events >= 30

    def test_simulation_agrees_with_analytic_evaluation(self):
        workload = small_workload()
        analytic = evaluate_analytically(workload, (STRATEGY_NATURAL,))[0]
        simulated = evaluate_by_simulation(
            workload, (STRATEGY_NATURAL,), precision_target=0.03, max_events=20_000
        )[0]
        assert simulated.operations_per_event == pytest.approx(
            analytic.operations_per_event, rel=0.15
        )

    def test_empty_strategy_list_rejected(self):
        with pytest.raises(ExperimentError):
            evaluate_analytically(small_workload(), ())


class TestFigureTable:
    def sample_table(self) -> FigureTable:
        return FigureTable(
            figure_id="figX",
            title="sample",
            metric="operations_per_event",
            series=("linear", "binary"),
            rows=(
                FigureRow("combo-1", {"linear": 2.0, "binary": 4.0}),
                FigureRow("combo-2", {"linear": 9.0, "binary": 4.5}),
            ),
        )

    def test_value_lookup(self):
        table = self.sample_table()
        assert table.value("combo-1", "linear") == 2.0
        with pytest.raises(ExperimentError):
            table.value("combo-1", "nope")
        with pytest.raises(ExperimentError):
            table.value("nope", "linear")

    def test_winners(self):
        assert self.sample_table().winners() == {"combo-1": "linear", "combo-2": "binary"}

    def test_text_rendering_contains_all_cells(self):
        text = self.sample_table().to_text()
        assert "combo-1" in text and "combo-2" in text
        assert "linear" in text and "binary" in text
        assert "9.00" in text

    def test_csv_rendering(self):
        csv = self.sample_table().to_csv()
        lines = csv.splitlines()
        assert lines[0] == "combination,linear,binary"
        assert lines[1].startswith("combo-1,")

    def test_markdown_rendering(self):
        markdown = self.sample_table().to_markdown()
        assert markdown.startswith("| combination |")
        assert "| combo-2 |" in markdown
