"""``decision_trace.py --diff`` on two hand-written trace files.

A run present on one side only is labelled ``GONE``/``NEW`` and does not
fail the diff; a run present on both sides fails it only when it moved.
A record's ``check_seconds`` is reported, never compared, and a record
that still carries the retired ``suppressed`` field is read without it.
"""

from __future__ import annotations

import json

import pytest

from decision_trace import diff


def _run(matched: str, *records: list) -> dict:
    return {"matched": matched, "records": [list(record) for record in records]}


CHECK = [400, "index", False, 10.0, 12.0]
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
    rows = [line.split() for line in output.splitlines()]
    return {row[1]: row[0] for row in rows if row[0] in {"same", "DIFF", "GONE", "NEW"}}


def test_one_sided_runs_are_labelled_and_do_not_fail(tmp_path, capsys):
    change = {"a/index": PARENT["a/index"], "b/tree": PARENT["b/tree"], "c/added": _run("d4")}
    status = diff(_write(tmp_path, "parent.json", PARENT), _write(tmp_path, "change.json", change))
    output = capsys.readouterr().out
    assert status == 0
    assert _verdicts(output) == {
        "a/index": "same",
        "a/retired": "GONE",
        "b/tree": "same",
        "c/added": "NEW",
    }
    assert output.splitlines()[-1] == (
        "3 runs, 1 checks, 0 differing, 1 gone, 1 new (worst relative cost deviation 0.0e+00)"
    )


@pytest.mark.parametrize(
    "moved",
    [
        _run("other-digest", CHECK),
        _run("d1", [400, "tree", True, 10.0, 12.0]),
        _run("d1", [400, "index", False, 10.0, 13.0]),
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


def test_check_seconds_is_reported_and_never_compared(tmp_path, capsys):
    parent = {"a/index": _run("d1", [*CHECK, 0.020], [*CHECK, 0.031])}
    change = {"a/index": _run("d1", [*CHECK, 0.004], [*CHECK, 0.005])}
    status = diff(_write(tmp_path, "parent.json", parent), _write(tmp_path, "change.json", change))
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert _verdicts("\n".join(lines)) == {"a/index": "same"}
    assert lines[-2] == (
        "slowest check: parent 31.0 ms (a/index, check at 400 events); "
        "change 5.0 ms (a/index, check at 400 events)"
    )


def test_a_trace_without_check_seconds_says_so(tmp_path, capsys):
    change = {"a/index": _run("d1", [*CHECK, 0.004])}
    status = diff(_write(tmp_path, "parent.json", PARENT), _write(tmp_path, "change.json", change))
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[-2].startswith("slowest check: parent not recorded; change 4.0 ms")


def test_a_record_with_the_retired_suppressed_field_is_read_without_it(tmp_path, capsys):
    parent = {"a/index": _run("d1", [400, "index", False, False, 10.0, 12.0, 0.020])}
    change = {"a/index": _run("d1", [*CHECK, 0.004])}
    status = diff(_write(tmp_path, "parent.json", parent), _write(tmp_path, "change.json", change))
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert _verdicts("\n".join(lines)) == {"a/index": "same"}
    assert lines[-2].startswith("slowest check: parent 20.0 ms (a/index, check at 400 events)")
