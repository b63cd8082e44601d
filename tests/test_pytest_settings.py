"""The repository's pytest settings, exercised in a separate pytest session."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_does_not_end_the_session(pytester):
    # filterwarnings = error once turned a warning inside the hypothesis
    # plugin's report hook into INTERNALERROR, so no later test ran
    pair = pytester.makepyfile(
        """
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "--rootdir", str(pytester.path),
                                           "-p", "no:cacheprovider", str(pair))
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
