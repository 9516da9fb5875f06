"""The suite's own pytest configuration: a failing Hypothesis property must be
reported as a failure, with its falsifying example, and the tests after it
must still run.  Under ``filterwarnings = ["error"]`` a warning raised while
Hypothesis wrote its failure report once aborted the whole session
(INTERNALERROR, exit 3)."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROPERTY_FILE = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st

    @settings(database=None)
    @given(st.integers())
    def test_a_failing_property(n):
        assert n < 10

    def test_after_it():
        assert True
""")


def test_a_failing_property_fails_without_aborting_the_session(tmp_path):
    (tmp_path / "test_property.py").write_text(PROPERTY_FILE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 passed" in out and "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out
