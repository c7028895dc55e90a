"""The test suite's own hooks (``tests/conftest.py``)."""

import shutil
import subprocess
import sys
from pathlib import Path

FALSIFIED = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_falsified(x):
    assert x < 5
'''


def test_failing_given_test_reports_under_w_error(tmp_path):
    """A failing ``@given`` test run with ``-W error`` reports its
    assertion and falsifying example instead of an INTERNALERROR."""
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-W", "error",
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out  # 1: tests failed; 3: internal error
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "AssertionError" in out
