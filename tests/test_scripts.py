"""The experiment scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["cat_profile_sweep.py", "--steps", "3"],
    ["outcome_statistics.py", "--count", "2000"],
    ["feasibility_survey.py"],
], ids=lambda argv: argv[0])
def test_script_runs(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
