"""The suite's own reporting: a failing hypothesis test, under the
repository's pytest settings, leaves every other test reported."""

import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

THROWAWAY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_given_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_given_test_leaves_the_rest_reported(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY, encoding="utf-8")
    shutil.copy(TESTS / "conftest.py", tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "-q", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in proc.stdout, output[-2000:]
