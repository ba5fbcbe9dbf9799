"""The test configuration itself: a falsified hypothesis test ends as a
test failure that shows its example, not as a pytest INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FALSIFIED = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_always_falsified(x):
    assert x != x
'''


def test_falsified_hypothesis_test_is_reported(tmp_path):
    """hypothesis's failure report imports libcst, whose own
    DeprecationWarning the configuration must not turn into an error."""
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
