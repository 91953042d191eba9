"""Smoke test of the e2e benchmark (outside tier-1's ``testpaths``).

``python -m pytest benchmarks/e2e/test_e2e_smoke.py -q`` runs every
workload at 1/50 of its size — one untraced and one traced pass — and
checks the contract between the runner and ``BENCHMARK.json``.
"""

import json
import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import run as runner  # noqa: E402  (inserts src/ on sys.path itself)
from repro.matching.tree import builder, matcher  # noqa: E402
from tracing import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(_HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


def _declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in CONTRACT[section]}


def test_benchmark_json_names_what_the_runner_emits():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert {w["name"]: w["why"] for w in CONTRACT["workloads"]} == {
        definition.name: definition.why for definition in WORKLOADS.values()
    }
    assert _declared("end_to_end") == runner.END_TO_END
    assert _declared("per_layer") == runner.PER_LAYER
    bounds = {metric["name"]: metric["bound"] for metric in CONTRACT["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_verified_and_traced(name):
    originals = {
        (target.owner, target.attribute): getattr(target.owner, target.attribute)
        for target in TARGETS
    }

    untraced = runner.run_workload(name, 0, 0, False, scale=1 / 50, min_passes=1)
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] > 0
    assert {
        metric: reading["unit"] for metric, reading in untraced["metrics"].items()
    } == runner.END_TO_END
    assert all(reading["value"] > 0 for reading in untraced["metrics"].values())

    traced = runner.run_workload(name, 0, 0, True, scale=1 / 50, min_passes=2)
    assert traced["correct"] and traced["failed"] == 0
    assert {
        metric: reading["unit"] for metric, reading in traced["metrics"].items()
    } == runner.PER_LAYER
    assert traced["metrics"]["trace.coverage"]["value"] >= 0.9
    assert os.path.exists(os.path.join(runner.TRACE_DIR, f"e2e-trace-{name}.jsonl"))

    # The wrappers are gone: every entry point (``FilterService.publish_batch``
    # among them) is the original object again.
    for (owner, attribute), original in originals.items():
        assert getattr(owner, attribute) is original
    assert matcher.build_tree is builder.build_tree
