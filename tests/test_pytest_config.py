"""The suite's pytest configuration reports a failing hypothesis example as
a failure.

Hypothesis's failure report imports ``libcst``, whose import raises a
``DeprecationWarning`` from ``mypy_extensions``; ``pyproject.toml`` turns
deprecation warnings into errors, and an error there ends the session in
INTERNALERROR instead of a FAILED line.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "FAILED test_fails.py::test_fails" in done.stdout
    assert done.returncode == 1
