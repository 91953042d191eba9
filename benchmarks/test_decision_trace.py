"""``decision_trace.py --diff`` on two hand-written trace files.

A run present on one side only is labelled ``GONE``/``NEW`` and does not
fail the diff; a run present on both sides fails it only when it moved.
"""

from __future__ import annotations

import json

import pytest

from decision_trace import diff


def _run(matched: str, *records: list) -> dict:
    return {"matched": matched, "records": [list(record) for record in records]}


CHECK = [400, "index", False, False, 10.0, 12.0]
PARENT = {
    "a/index": _run("d1", CHECK),
    "a/retired": _run("d2", CHECK, CHECK),
    "b/tree": _run("d3"),
}


def _write(tmp_path, name: str, traces: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(traces))
    return str(path)


def _verdicts(output: str) -> dict[str, str]:
    lines = output.splitlines()[:-1]
    return {line.split()[1]: line.split()[0] for line in lines}


def test_one_sided_runs_are_labelled_and_do_not_fail(tmp_path, capsys):
    change = {"a/index": PARENT["a/index"], "b/tree": PARENT["b/tree"], "c/hybrid": _run("d4")}
    status = diff(_write(tmp_path, "parent.json", PARENT), _write(tmp_path, "change.json", change))
    output = capsys.readouterr().out
    assert status == 0
    assert _verdicts(output) == {
        "a/index": "same",
        "a/retired": "GONE",
        "b/tree": "same",
        "c/hybrid": "NEW",
    }
    assert output.splitlines()[-1] == (
        "3 runs, 1 checks, 0 differing, 1 gone, 1 new (worst relative cost deviation 0.0e+00)"
    )


@pytest.mark.parametrize(
    "moved",
    [
        _run("other-digest", CHECK),
        _run("d1", [400, "tree", True, False, 10.0, 12.0]),
        _run("d1", [400, "index", False, False, 10.0, 13.0]),
    ],
    ids=["digest", "decision", "cost"],
)
def test_a_moved_run_on_both_sides_fails(tmp_path, capsys, moved):
    change = {**PARENT, "a/index": moved}
    status = diff(_write(tmp_path, "parent.json", PARENT), _write(tmp_path, "change.json", change))
    output = capsys.readouterr().out
    assert status == 1
    assert _verdicts(output)["a/index"] == "DIFF"
    assert ", 1 differing, 0 gone, 0 new " in output.splitlines()[-1]
