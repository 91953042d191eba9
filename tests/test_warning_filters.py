"""The suite's warning filters let a failing hypothesis test report.

``pyproject.toml`` turns every ``DeprecationWarning`` into an error.  When a
``@given`` test fails, hypothesis imports ``libcst`` to print a patch of the
falsifying example, and that import warns through ``mypy_extensions``;
under ``error::DeprecationWarning`` alone the warning ends the session as an
``INTERNALERROR``, the example is lost and no later test runs.  A fresh
session under the suite's own settings must report the failure with its
example and go on to the next test.
"""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_reports_and_the_next_test_runs(pytester):
    pytester.makepyfile(
        test_two="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_next():
            pass
        """
    )
    result = pytester.runpytest_subprocess(
        "-c",
        str(PYPROJECT),
        "--rootdir",
        str(pytester.path),
        "-p",
        "no:cacheprovider",
        "test_two.py",
    )
    assert "INTERNALERROR" not in result.stdout.str()
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*"])
    result.assert_outcomes(failed=1, passed=1)
