"""The experiment scripts run to completion on small inputs, report what the
command line reports, and use only public spincat names."""

import ast
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spincat import default_cat_grid
from spincat.cli import main

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


def run_script(cwd, name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_sweep_refuses_a_point_whose_grid_loses_mass(tmp_path, capsys, monkeypatch):
    """A spincat error ends the sweep with one stderr line and exit 3."""
    # xi2 = 5000 needs a truncation past 4096.
    run = run_script(tmp_path, "cat_profile_sweep.py", "--xi2", "5000", "--steps", "1")
    assert run.returncode == 3
    assert run.stdout == ""
    assert run.stderr.startswith("error: CapacityError: ")
    assert run.stderr.count("\n") == 1
    # No flag sets the grid, so the grid rule is replaced in-process by the
    # former margin of 8 past the peaks (the margin at infinite beta): at
    # mu_exact 3.55 that p grid holds 99.494 % of the norm.
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "scripts" / "cat_profile_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr("spincat.cat.default_cat_grid",
                        lambda mu, beta, n_eff: default_cat_grid(mu, math.inf, n_eff))
    mu = "3.552705833669105"
    monkeypatch.setattr(sys, "argv", [
        "cat_profile_sweep.py", "--xi2", "45.933626852860776", "--beta",
        "0.03197871375401286", "--mu-min", mu, "--mu-max", mu, "--steps", "1",
        "--csv", str(tmp_path / "sweep.csv")])
    with pytest.raises(SystemExit) as exited:
        sweep.main()
    assert exited.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ResolutionError: ") and err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_rows_are_the_cat_command_metrics(tmp_path, capsys):
    run = run_script(tmp_path, "cat_profile_sweep.py", "--steps", "7", "--csv", "sweep.csv")
    assert run.returncode == 0, run.stderr
    with open(tmp_path / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 7
    for row in rows:
        code = main(["cat", "--xi2", "20.0", "--beta", repr(1.0 / 3.0), "--pr", row["p_R"],
                     "--out-dir", str(tmp_path / "cat")])
        assert code == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert float(row["fringe_period"]) == metrics["fringe_period"]
        assert float(row["visibility"]) == metrics["visibility"]
        assert float(row["overlap_approx"]) == metrics["overlap_p_approx"]
        for condition in ("resolvable", "reachable", "combined"):
            assert row[condition] == str(metrics[condition])


def test_sweep_rejects_fewer_than_one_step(tmp_path):
    run = run_script(tmp_path, "cat_profile_sweep.py", "--steps", "0", "--csv", "f.csv")
    assert run.returncode == 2
    assert "--steps" in run.stderr
    assert not (tmp_path / "f.csv").exists()


def test_scripts_import_no_private_spincat_name():
    private = []
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spincat"):
                names = [node.module, *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names if alias.name.startswith("spincat")]
            else:
                continue
            private += [f"{path.name}:{node.lineno} {name}" for name in names
                        if any(part.startswith("_") for part in name.split("."))]
    assert private == []
