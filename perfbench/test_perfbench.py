"""Short-mode tests of the benchmark itself.

    python3 -m pytest perfbench

They run each workload once with shrunken sizes and check that every metric
BENCHMARK.json names is emitted with its unit, that the output checks reject
deliberately perturbed output files, and that the benchmark refuses to run
without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SQUEEZE_XI2_RANGES", ((3.0, 3.5),))
    monkeypatch.setattr(workloads, "TRAJECTORY_COUNT", 300)
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.BATCHES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.BATCHES))
def test_every_named_metric_is_emitted(short, workload, trace):
    record = run.measure(workload, seed=3, seconds=0.0, trace=bool(trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert record["correct"] and record["attempted"] >= 1
    assert record["environment"]["threads"] <= record["environment"]["nproc"]
    if trace:
        assert record["work_counts_repeat"]


def _scale_csv_values(path, factor):
    lines = Path(path).read_text().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        coord, re, im, abs2 = line.split(",")
        rows.append(f"{coord},{float(re) * factor!r},{float(im) * factor!r},{abs2}")
    Path(path).write_text("\n".join(rows) + "\n")


def _edit_json_line(path, index, key, value):
    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[index])
    record[key] = value
    lines[index] = json.dumps(record)
    Path(path).write_text("\n".join(lines) + "\n")


def _edit_json(path, key, value):
    doc = json.loads(Path(path).read_text())
    doc[key] = value
    Path(path).write_text(json.dumps(doc))


PERTURBATIONS = {
    "squeeze": lambda files: _scale_csv_values(files["squeeze_exact_x"], 1.001),
    "cat": lambda files: _scale_csv_values(files["cat_p"], 0.999),
    "trajectories": lambda files: _edit_json_line(files["trajectories"], 7, "p_R", 0.25),
    "feasibility": lambda files: _edit_json(files["report"], "cat_lifetime", 1.0),
}


@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_check_rejects_perturbed_output(short, kind):
    import spincat.cli as cli

    batch = workloads.BATCHES["cat" if kind == "feasibility" else kind](3)
    cmd = next(c for c in batch if c.check == kind)
    outcome = run.run_batch(cli, [cmd], short)[0]
    assert run.verify(workloads, cmd, outcome) == []
    PERTURBATIONS[kind](json.loads(outcome["stdout"])["files"])
    assert run.verify(workloads, cmd, outcome)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
