"""The pytest configuration in ``pyproject.toml`` reports every test, even
when a Hypothesis test fails."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""

PASSING = """
def test_passes():
    pass
"""


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # A failing @given test makes Hypothesis's report hook import libcst,
    # whose DeprecationWarning, under filterwarnings = error, used to end
    # the run with an INTERNALERROR before the later test ran.
    (tmp_path / "test_a_fails.py").write_text(FAILING)
    (tmp_path / "test_b_passes.py").write_text(PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", "test_a_fails.py", "test_b_passes.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
