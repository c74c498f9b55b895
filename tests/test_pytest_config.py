"""The repository's pytest settings, applied to a throwaway test run."""

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_reports_its_falsifying_example(pytester):
    """Warnings are errors, yet a failing Hypothesis property still gets
    its report instead of an INTERNALERROR."""
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    assert "Falsifying example" in result.stdout.str()
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
