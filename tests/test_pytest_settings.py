"""The suite's own pytest settings: a warning fails a test, and a failing
property still reports its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_warning_fails():
    warnings.warn("any other warning", DeprecationWarning)
'''


def test_a_failing_property_prints_its_example_and_warnings_still_fail(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example: test_property_fails(" in out
    assert "INTERNALERROR" not in out
    assert "2 failed" in out
