"""The experiment scripts run to completion on small inputs, report what the
command line reports, and use only public spincat names."""

import ast
import csv
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spincat.cli import main
from spincat.state import default_cat_grid

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_scripts():
    """argv lists of the `python3 scripts/...` lines in the shell block of
    the README's "Experiment scripts" section, the script path first."""
    section = README.read_text().split("## Experiment scripts", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("python3 scripts/")]


def run_script(cwd, name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_readme_runs_every_script():
    assert sorted(Path(argv[0]).name for argv in readme_scripts()) == sorted(
        path.name for path in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("argv", readme_scripts(), ids=lambda argv: Path(argv[0]).name)
def test_script_runs(tmp_path, argv):
    run = run_script(tmp_path, Path(argv[0]).name, *argv[1:])
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_outcome_counts_are_the_histogram_of_the_trajectories(tmp_path, capsys):
    """The observed counts are the p_R column of `trajectories` with the same
    flags, binned at the script's edges: open tails past the 0.1 % and
    99.9 % quantiles, and bins - 2 equal bins between them."""
    flags = ["--xi2", "20", "--beta", "0.5", "--count", "3000", "--seed", "11"]
    run = run_script(tmp_path, "outcome_statistics.py", *flags, "--bins", "12")
    assert run.returncode == 0, run.stderr
    observed = [int(line.split()[-2]) for line in run.stdout.splitlines()[1:13]]
    assert main(["trajectories", *flags, "--out-dir", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "trajectories.jsonl") as handle:
        p_r = np.array([json.loads(line)["p_R"] for line in handle])
    lo, hi = np.quantile(p_r, [0.001, 0.999])
    edges = np.concatenate(([-np.inf], np.linspace(lo, hi, 11), [np.inf]))
    assert observed == np.histogram(p_r, bins=edges)[0].tolist()


def test_survey_cells_are_the_feasibility_command_flags(tmp_path, capsys):
    """Each cell is the depth_flag of `feasibility` at the fields its labels
    and the script's defaults give, or regime! where the command exits 2
    or 3."""
    run = run_script(tmp_path, "feasibility_survey.py")
    assert run.returncode == 0, run.stderr
    codes = []
    for table in run.stdout.split("transmission T = ")[1:]:
        transmission, header, *rows = table.strip().splitlines()
        atoms = header.split()[3:]  # past "kappa0 \ N_a"
        for row in rows:
            kappa0, *cells = row.split()
            assert len(cells) == len(atoms) == 5
            for n_atoms, cell in zip(atoms, cells):
                code = main(["feasibility", "--kappa0", kappa0, "--gamma", "1",
                             "--delta", "1e4", "--n-atoms", n_atoms, "--n-photons", "1e6",
                             "--transmission", transmission,
                             "--out-dir", str(tmp_path / "out")])
                out = capsys.readouterr().out
                codes.append(code)
                assert cell == (json.loads(out)["report"]["depth_flag"] if code == 0
                                else "regime!"), (transmission, kappa0, n_atoms)
    assert len(codes) == 50 and set(codes) <= {0, 2, 3}


def test_sweep_refuses_a_point_whose_grid_loses_mass(tmp_path, capsys, monkeypatch):
    """A point the command refuses ends the sweep with the command's stderr
    line and exit code."""
    # xi2 = 5000 needs a truncation past 4096.
    run = run_script(tmp_path, "cat_profile_sweep.py", "--xi2", "5000", "--steps", "1")
    assert run.returncode == 3
    assert run.stdout == ""
    assert json.loads(run.stderr)["kind"] == "CapacityError"
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
    assert json.loads(err)["kind"] == "ResolutionError" and err.count("\n") == 1
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
        assert float(row["peak_abs"]) == abs(metrics["peak_positions"][1])
        assert float(row["mean_width"]) == metrics["peak_std"]
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
