import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincat
from helpers import (
    read_number_state_csv,
    reference_number_state_csv,
    reference_wavefunction_csv,
)
from spincat import (
    Basis,
    CatApproxParams,
    ResolutionError,
    alpha_from_xi2,
    apply_number_qnd,
    approx_p_wavefunction,
    approx_x_wavefunction,
    check_cat_conditions,
    choose_truncation,
    default_cat_grid,
    grid_for_state,
    mu_of_outcome,
    outcome_sampler,
    quadrature_variances,
    riemann_normalize,
    squeezed_state_exact,
    squeezed_state_stirling,
    to_quadrature,
)
from spincat.cli import FIELDS, TRAJECTORY_BLOCK, _check_coverage, main
from spincat.state import HERMITE_N_BUDGET, _expand, effective_max_index


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_json(out):
    return json.loads(out)


# ---------------------------------------------------------------------------
# squeeze


def test_squeeze_reference(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "squeeze", "--xi2", "20",
                           "--out-dir", str(tmp_path))
    assert code == 0
    result = stdout_json(out)
    assert result["summary"]["dx2"] == pytest.approx(1.0 / 40.0, rel=0.01)
    assert result["summary"]["dp2"] == pytest.approx(10.0, rel=0.01)
    for key in ("squeeze_exact_state", "squeeze_exact_p", "squeeze_exact_x",
                "squeeze_stirling_state", "summary"):
        assert (tmp_path / result["files"][key].split("/")[-1]).exists()


def test_squeeze_files_match_reference_writers(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "squeeze", "--xi2", "20",
                           "--out-dir", str(tmp_path))
    assert code == 0
    files = stdout_json(out)["files"]
    n_max = stdout_json(out)["summary"]["n_max"]
    exact = squeezed_state_exact(20.0, n_max)
    grid = grid_for_state(exact)
    for prefix, state in (("squeeze_exact", exact),
                          ("squeeze_stirling", squeezed_state_stirling(20.0, n_max))):
        assert Path(files[f"{prefix}_state"]).read_text() == \
            reference_number_state_csv(state)
        for basis in (Basis.P, Basis.X):
            assert Path(files[f"{prefix}_{basis.value}"]).read_text() == \
                reference_wavefunction_csv(to_quadrature(state, grid, basis))


def test_squeeze_vacuum(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "squeeze", "--xi2", "1",
                           "--out-dir", str(tmp_path))
    assert code == 0
    result = stdout_json(out)
    state = read_number_state_csv(result["files"]["squeeze_exact_state"])
    assert state.amplitudes[0] == 1.0
    assert np.all(state.amplitudes[1:] == 0.0)
    assert result["summary"]["stirling_overlap"] is None
    assert "squeeze_stirling_state" not in result["files"]


@pytest.mark.parametrize("xi2", ["0.5", "nan", "inf"])
def test_squeeze_invalid_xi2_is_config_error(tmp_path, capsys, xi2):
    code, out, err = run_cli(capsys, "squeeze", "--xi2", xi2,
                             "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "xi2" in err


def test_squeeze_truncation_capacity_is_numeric_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "squeeze", "--xi2", "5000",
                             "--out-dir", str(tmp_path))
    assert code == 3
    assert json.loads(err)["kind"] == "CapacityError"


def test_squeeze_grid_that_misses_the_state_writes_no_file(tmp_path, capsys):
    # +-3 holds 66 % of the p norm at xi2 = 20, where Delta p = 3.2.
    code, out, err = run_cli(capsys, "squeeze", "--xi2", "20", "--grid-half-width", "3",
                             "--grid-count", "256", "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "ResolutionError"
    assert list(tmp_path.iterdir()) == []


# 173.5 is the last xi2 whose occupancy stays within HERMITE_N_BUDGET.
@pytest.mark.parametrize("xi2", [1.0, 1.5, 2.0, 5.0, 20.0, 60.0, 100.0, 140.0, 173.5])
def test_default_squeeze_grids_pass_the_coverage_check(xi2):
    state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0, 1e-10))
    assert effective_max_index(state) <= HERMITE_N_BUDGET
    wavefunctions = _expand([(state, Basis.P), (state, Basis.X)], grid_for_state(state))
    _check_coverage(wavefunctions, *quadrature_variances(state))


def test_coverage_check_compares_each_second_moment():
    state = squeezed_state_exact(20.0, 230)
    wavefunctions = _expand([(state, Basis.P), (state, Basis.X)], grid_for_state(state))
    dx2, dp2 = quadrature_variances(state)
    for moments in ((1.002 * dx2, dp2), (dx2, 1.002 * dp2)):
        with pytest.raises(ResolutionError):
            _check_coverage(wavefunctions, *moments)


# ---------------------------------------------------------------------------
# cat


def test_cat_reference_outcome(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cat", "--xi2", "20",
                           "--beta", "0.3333333333333333",
                           "--pr-over-beta", "7", "--out-dir", str(tmp_path))
    assert code == 0
    result = stdout_json(out)
    metrics = json.loads((tmp_path / "cat_metrics.json").read_text())
    assert metrics["overlap_p_approx"] >= 0.95
    assert metrics["resolvable"] and metrics["reachable"] and metrics["combined"]
    assert len(metrics["peak_positions"]) == 2
    assert metrics["mu_exact"] == pytest.approx(6.5496, abs=1e-3)
    trace = json.loads((tmp_path / "cat_trace.json").read_text())
    assert trace["p_P"] is None
    assert trace["state_file"].endswith("cat_state.csv")
    for name in ("cat_state", "cat_p", "cat_x", "cat_approx_p", "cat_approx_x"):
        assert name in result["files"]


def test_cat_files_match_reference_writers(tmp_path, capsys):
    beta = 1.0 / 3.0
    code, out, _ = run_cli(capsys, "cat", "--xi2", "20", "--beta", repr(beta),
                           "--pr-over-beta", "7", "--out-dir", str(tmp_path))
    assert code == 0
    result = stdout_json(out)
    files, metrics = result["files"], result["metrics"]
    n_max = json.loads(Path(files["trace"]).read_text())["n_max"]
    cat = apply_number_qnd(squeezed_state_exact(20.0, n_max), beta, metrics["p_R"])
    grid = default_cat_grid(metrics["mu_exact"], effective_max_index(cat))
    params = CatApproxParams(mu=metrics["mu_exact"], beta=beta)
    expected = {
        "cat_p": riemann_normalize(to_quadrature(cat, grid, Basis.P)),
        "cat_x": riemann_normalize(to_quadrature(cat, grid, Basis.X)),
        "cat_approx_p": approx_p_wavefunction(params, grid),
        "cat_approx_x": approx_x_wavefunction(params, grid),
    }
    assert Path(files["cat_state"]).read_text() == reference_number_state_csv(cat)
    for name, wf in expected.items():
        assert Path(files[name]).read_text() == reference_wavefunction_csv(wf)


def test_cat_sampled_outcome_is_deterministic(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    code_a, _, _ = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3333",
                           "--sample", "--seed", "7", "--out-dir", str(dir_a))
    code_b, _, _ = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3333",
                           "--sample", "--seed", "7", "--out-dir", str(dir_b))
    assert code_a == code_b == 0
    # every file, the trace with its state_file too, is independent of
    # the output directory
    names = sorted(path.name for path in dir_a.iterdir())
    assert names == sorted(path.name for path in dir_b.iterdir())
    assert "cat_trace.json" in names
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    trace = json.loads((dir_a / "cat_trace.json").read_text())
    assert trace["p_P"] is not None
    assert trace["state_file"] == "cat_state.csv"


def test_cat_unresolvable_outcome_flags(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cat", "--xi2", "2", "--beta", "0.1",
                           "--pr", "0.05", "--out-dir", str(tmp_path))
    assert code == 0
    metrics = json.loads((tmp_path / "cat_metrics.json").read_text())
    assert metrics["resolvable"] is False
    assert metrics["mu_approx"] == pytest.approx(0.5, abs=1e-9)
    assert metrics["overlap_p_approx"] is None  # mu_exact < 0: no approximation


@pytest.mark.parametrize("argv", [
    ["--pr-over-beta", "7", "--grid-half-width", "12", "--grid-count", "128"],
    ["--pr", "2", "--grid-half-width", "12", "--grid-count", "127"],
    ["--pr", "0", "--grid-half-width", "5e-324", "--grid-count", "2"],
], ids=["too-coarse-for-the-fringes", "odd-count-too-coarse", "subnormal-spacing"])
def test_failing_cat_writes_no_file(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3333", *argv,
                             "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "ResolutionError"
    assert list(tmp_path.iterdir()) == []


def test_cat_improbable_outcome_exit_code(tmp_path, capsys):
    code, out, err = run_cli(capsys, "cat", "--xi2", "2", "--beta", "0.1",
                             "--pr", "150", "--out-dir", str(tmp_path))
    assert code == 4
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "improbable-outcome"
    assert doc["density"] == pytest.approx(0.0, abs=1e-30)


def test_cat_requires_exactly_one_outcome_source(tmp_path, capsys):
    code, _, err = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3",
                           "--out-dir", str(tmp_path))
    assert code == 2
    assert "exactly one" in err


@pytest.mark.parametrize("flags", [
    ["--beta", "inf", "--pr-over-beta", "7"],
    ["--beta", "0.3", "--pr", "nan"],
], ids=["beta-inf", "pr-nan"])
def test_cat_rejects_non_finite_numbers(tmp_path, capsys, flags):
    code, out, err = run_cli(capsys, "cat", "--xi2", "20", *flags,
                             "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "must be finite" in err


def test_cat_sampled_small_mu_is_resolved(tmp_path, capsys):
    # Seed 44 draws a small positive mu, whose fringe-sized default grid
    # alone is too coarse for the state's occupancy.
    code, out, _ = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3333",
                           "--sample", "--seed", "44", "--out-dir", str(tmp_path))
    assert code == 0
    assert 0.0 < stdout_json(out)["metrics"]["mu_exact"] < 2.0


def test_cat_rejects_negative_seed(tmp_path, capsys):
    code, _, err = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3",
                           "--sample", "--seed", "-4", "--out-dir", str(tmp_path))
    assert code == 2
    assert "seed" in err


# ---------------------------------------------------------------------------
# trajectories


def test_trajectories_byte_identical_rerun(tmp_path, capsys):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for target in (dir_a, dir_b):
        code, _, _ = run_cli(capsys, "trajectories", "--xi2", "20",
                             "--beta", "0.3333333333333333", "--count", "1",
                             "--seed", "9", "--out-dir", str(target))
        assert code == 0
    assert (dir_a / "trajectories.jsonl").read_bytes() == \
        (dir_b / "trajectories.jsonl").read_bytes()


@pytest.fixture(scope="module")
def two_block_trajectories(tmp_path_factory):
    """One trajectories run whose count crosses a block boundary, and its
    stdout document."""
    out_dir = tmp_path_factory.mktemp("two_blocks")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["trajectories", "--xi2", "20", "--beta", repr(1.0 / 3.0),
                     "--count", str(TRAJECTORY_BLOCK + 10), "--seed", "9",
                     "--out-dir", str(out_dir)])
    assert code == 0
    return out_dir, json.loads(stdout.getvalue())


def test_trajectories_prefix_does_not_depend_on_count(tmp_path, capsys,
                                                      two_block_trajectories):
    long_dir, _ = two_block_trajectories
    code, _, _ = run_cli(capsys, "trajectories", "--xi2", "20",
                         "--beta", repr(1.0 / 3.0), "--count", "10",
                         "--seed", "9", "--out-dir", str(tmp_path))
    assert code == 0
    short = (tmp_path / "trajectories.jsonl").read_text().splitlines()
    long = (long_dir / "trajectories.jsonl").read_text().splitlines()
    assert len(short) == 10 and len(long) == TRAJECTORY_BLOCK + 10
    assert short == long[:10]


def test_trajectories_lines_match_scalar_records(two_block_trajectories):
    out_dir, result = two_block_trajectories
    beta, xi2, seed = 1.0 / 3.0, 20.0, 9
    lines = (out_dir / "trajectories.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for line, record in zip(lines, records):
        assert json.dumps(record, sort_keys=True) == line

    # record i is entry i % TRAJECTORY_BLOCK of block i // TRAJECTORY_BLOCK,
    # drawn from default_rng([seed, block]); its fields follow from p_R by
    # the scalar functions
    state = squeezed_state_exact(xi2, result["summary"]["n_max"])
    draw = outcome_sampler(alpha_from_xi2(xi2), state, beta)
    blocks = [draw(np.random.default_rng([seed, b]), TRAJECTORY_BLOCK) for b in (0, 1)]
    checked = list(range(200)) + list(range(TRAJECTORY_BLOCK - 5, len(records)))
    for i in checked:
        record = records[i]
        block, position = divmod(i, TRAJECTORY_BLOCK)
        p_p, p_r = (column[position] for column in blocks[block])
        mu_exact, mu_approx = mu_of_outcome(record["p_R"], beta, xi2)
        resolvable, reachable, combined = check_cat_conditions(mu_exact, beta, xi2)
        assert record == {
            "index": i, "p_P": p_p, "p_R": p_r, "mu_exact": mu_exact,
            "mu_approx": mu_approx,
            "flags": {"resolvable": resolvable, "reachable": reachable,
                      "combined": combined},
        }
    fraction = sum(r["flags"]["resolvable"] for r in records) / len(records)
    assert result["summary"]["fraction_resolvable"] == fraction
    p_r = np.array([r["p_R"] for r in records])
    assert result["summary"]["p_R_mean"] == float(p_r.mean())
    assert result["summary"]["p_R_std"] == float(p_r.std())


def test_trajectories_resolvable_fraction_matches_mixture_mass(tmp_path, capsys):
    from scipy.stats import norm as normal_dist

    from spincat import squeezed_state_exact

    beta = 1.0 / 3.0
    code, out, _ = run_cli(capsys, "trajectories", "--xi2", "20",
                           "--beta", repr(beta), "--count", "20000",
                           "--seed", "11", "--out-dir", str(tmp_path))
    assert code == 0
    fraction = stdout_json(out)["summary"]["fraction_resolvable"]

    # analytic mixture mass of the region where mu_exact >= 1/beta
    state = squeezed_state_exact(20.0, 230)
    p_star = 1.0 - np.log(19.0 / 21.0) / (2.0 * beta)
    weights = np.abs(state.amplitudes) ** 2
    means = beta * np.arange(weights.size)
    mass = float(np.sum(weights * (1.0 - normal_dist.cdf(
        (p_star - means) / np.sqrt(0.5)))))
    assert fraction == pytest.approx(mass, abs=0.015)


def test_trajectories_records_and_histogram(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "trajectories", "--xi2", "20",
                           "--beta", "0.3333333333333333", "--count", "500",
                           "--seed", "3", "--bins", "40",
                           "--out-dir", str(tmp_path))
    assert code == 0
    result = stdout_json(out)
    lines = (tmp_path / "trajectories.jsonl").read_text().splitlines()
    assert len(lines) == 500
    record = json.loads(lines[0])
    assert set(record) == {"index", "p_P", "p_R", "mu_exact", "mu_approx", "flags"}
    assert set(record["flags"]) == {"resolvable", "reachable", "combined"}
    hist = (tmp_path / "pr_histogram.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count"
    counts = sum(int(line.split(",")[2]) for line in hist[1:])
    assert counts == 500
    assert 0.0 < result["summary"]["fraction_resolvable"] < 1.0


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("beta, count", [("0.3333", "50"), ("1e300", "3"),
                                         ("1e306", "20")])
def test_trajectories_summary_is_finite_and_matches_records(tmp_path, capsys, beta,
                                                            count):
    """Outcomes near the double range must not overflow the summary's
    sums of squares into an Infinity that strict JSON rejects."""
    code, out, _ = run_cli(capsys, "trajectories", "--xi2", "20", "--beta", beta,
                           "--count", count, "--out-dir", str(tmp_path))
    assert code == 0
    summary = _strict_json(out)["summary"]
    p_r = [_strict_json(line)["p_R"]
           for line in (tmp_path / "trajectories.jsonl").read_text().splitlines()]
    assert summary["p_R_mean"] == pytest.approx(statistics.mean(p_r), rel=1e-12)
    assert summary["p_R_std"] == pytest.approx(statistics.pstdev(p_r), rel=1e-12)


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_presets(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "feasibility", "--preset", "bec-free-space",
                           "--out-dir", str(tmp_path))
    assert code == 0
    report = stdout_json(out)["report"]
    assert report["depth_flag"] == "marginal"
    assert report["xi2_max_depth"] == 50.0

    code, out, _ = run_cli(capsys, "feasibility", "--preset", "bec-cavity",
                           "--out-dir", str(tmp_path))
    assert code == 0
    report = stdout_json(out)["report"]
    assert report["depth_flag"] == "met"
    assert report["xi2_required_cat"] == 10.0
    assert json.loads((tmp_path / "feasibility_report.json").read_text()) == report


def test_feasibility_rejects_bad_kappa0(tmp_path, capsys):
    code, _, err = run_cli(capsys, "feasibility", "--kappa0", "-1",
                           "--gamma", "1", "--delta", "100",
                           "--n-atoms", "1000", "--n-photons", "1e6",
                           "--out-dir", str(tmp_path))
    assert code == 2
    assert "kappa0" in err


def test_feasibility_aggregates_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "feasibility", "--kappa0", "-1",
                           "--gamma", "-2", "--delta", "100",
                           "--n-atoms", "1000", "--n-photons", "1e6",
                           "--out-dir", str(tmp_path))
    assert code == 2
    assert "kappa0" in err and "gamma" in err
    assert err.count("config error") == 1


# ---------------------------------------------------------------------------
# config files and misc plumbing


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"xi2": 20.0, "beta": 0.5, "pr_over_beta": 7.0,
                                  "out_dir": str(tmp_path / "from_config")}))
    code, out, _ = run_cli(capsys, "cat", "--config", str(config),
                           "--beta", "0.25")
    assert code == 0
    metrics_path = tmp_path / "from_config" / "cat_metrics.json"
    metrics = json.loads(metrics_path.read_text())
    assert metrics["beta"] == 0.25  # flag wins over config file


def test_config_file_unknown_field(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"xi2": 20.0, "bogus": 1}))
    code, _, err = run_cli(capsys, "squeeze", "--config", str(config))
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("argv", [
    ["feasibility", "--preset", "bec-cavity", "--seed", "-5"],
    ["feasibility", "--preset", "bec-cavity", "--grid-half-width", "9",
     "--grid-count", "64"],
    ["squeeze", "--xi2", "20", "--seed", "3"],
    ["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "10",
     "--grid-half-width", "-3", "--grid-count", "1"],
], ids=["feasibility-seed", "feasibility-grid", "squeeze-seed", "trajectories-grid"])
def test_flags_of_other_commands_exit_config(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, fields", [
    ("feasibility", {"preset": "bec-cavity", "seed": 1}),
    ("squeeze", {"xi2": 20.0, "seed": 3}),
    ("trajectories", {"xi2": 20.0, "beta": 0.5, "count": 10,
                      "grid_half_width": 9.0, "grid_count": 64}),
])
def test_config_fields_of_other_commands_exit_config(tmp_path, capsys, command, fields):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**fields, "out_dir": str(tmp_path / "out")}))
    code, out, err = run_cli(capsys, command, "--config", str(config))
    assert code == 2
    assert out == ""
    assert "unknown config fields" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, fields", [
    (["cat", "--xi2", "20", "--beta", "0.3333", "--seed", "7"], {"sample": "no"}),
    (["trajectories", "--xi2", "20", "--beta", "0.5"], {"count": 2.7}),
    (["squeeze", "--xi2", "2", "--grid-half-width", "9"], {"grid_count": 512.9}),
    (["feasibility", "--kappa0", "1e4", "--gamma", "1", "--delta", "100",
      "--n-atoms", "1.7", "--n-photons", "32000"], {}),
    (["cat", "--xi2", "20", "--beta", "0.3333", "--sample"], {"seed": True}),
    (["feasibility"], {"preset": ["a"]}),
    (["feasibility", "--preset", "bec-cavity"], {"out_dir": 5}),
    (["feasibility", "--preset", "bec-cavity", "--kappa0", "-5"], {}),
    (["squeeze"], {"xi2": "20"}),
    (["squeeze", "--xi2", "20"], {"config": "x"}),
], ids=["sample-string", "count-fraction", "grid-count-fraction", "n-atoms-fraction",
        "seed-bool", "preset-list", "out-dir-number", "preset-and-kappa0",
        "xi2-string", "config-in-config"])
def test_mistyped_values_exit_config(tmp_path, capsys, monkeypatch, argv, fields):
    """Every value passes the same check, from a flag or from a config file."""
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps(fields))
    out_dir = [] if "out_dir" in fields else ["--out-dir", "out"]
    code, out, err = run_cli(capsys, *argv, "--config", "run.json", *out_dir)
    assert code == 2, err
    assert out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("argv", [
    ["feasibility", "--kappa0", "1e4", "--gamma", "1", "--delta", "100",
     "--n-atoms", "4e5", "--n-photons", "32000"],
    ["cat", "--xi2", "20", "--beta", "0.3333", "--sample",
     "--seed", "18446744073709551615"],
    ["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "1e3"],
], ids=["n-atoms-float-text", "largest-seed", "count-float-text"])
def test_integral_numbers_run(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0, err
    result = stdout_json(out)
    if argv[0] == "cat":
        trace = json.loads(Path(result["files"]["trace"]).read_text())
        assert trace["seed"] == 2 ** 64 - 1
    elif argv[0] == "trajectories":
        assert result["summary"]["count"] == 1000
    else:
        assert result["report"]["inputs"]["n_atoms"] == 400_000


@pytest.mark.parametrize("argv, kind", [
    (["cat", "--xi2", "1.0000000000000002", "--beta", "5e-324", "--pr", "0"], "DomainError"),
    (["cat", "--xi2", "1.0000000000000002", "--beta", "1e-15", "--pr", "1e300"],
     "DomainError"),
    (["cat", "--xi2", "1.0000000000000002", "--beta", "1e300", "--sample"], "DomainError"),
    (["trajectories", "--xi2", "2", "--beta", "5e-324", "--count", "1"], "DomainError"),
    (["feasibility", "--kappa0", "1e4", "--gamma", "1", "--delta", "100",
      "--n-atoms", "1e300", "--n-photons", "32000"], "DomainError"),
    # From xi2 near 1e16 on the squeezed-state tail ratio rounds to 1.
    (["squeeze", "--xi2", "1e17"], "CapacityError"),
    (["cat", "--xi2", "1e16", "--beta", "0.3333", "--pr-over-beta", "7"], "CapacityError"),
    (["cat", "--xi2", "1e17", "--beta", "0.3333", "--sample"], "CapacityError"),
    (["trajectories", "--xi2", "1e17", "--beta", "0.3333", "--count", "3"],
     "CapacityError"),
    # One outcome near 3.7e19: the histogram's edges p_R -+ 0.5 round to p_R.
    (["trajectories", "--xi2", "16", "--beta", "18446744073709551616", "--count", "1"],
     "DomainError"),
], ids=["beta-square-underflows", "mu-overflows", "beta-square-overflows",
        "trajectories-beta-square-underflows", "n-atoms-past-int64",
        "squeeze-tail-ratio-one", "cat-tail-ratio-one", "cat-sample-tail-ratio-one",
        "trajectories-tail-ratio-one", "trajectories-bins-past-range"])
def test_extreme_numbers_exit_numeric(tmp_path, capsys, argv, kind):
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == kind
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, prefix", [
    (["squeeze", "--xi2", "20", "--n-max", "3"], "config error: "),
    (["squeeze", "--xi2", "20", "--frobnicate", "1"], "usage: "),
], ids=["config-rule", "argparse"])
def test_config_errors_print_plain_text(tmp_path, capsys, argv, prefix):
    """As the README says, exit 2 is the one error whose stderr is plain
    text (a `config error:` line or argparse usage), not the JSON object
    of exits 3 and 4; stdout stays empty."""
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(prefix)
    with pytest.raises(json.JSONDecodeError):
        json.loads(err)


@pytest.mark.parametrize("argv, name, bound", [
    (["squeeze", "--xi2", "20"], "n_max", 4096),
    (["squeeze", "--xi2", "2", "--grid-half-width", "5"], "grid_count", 2 ** 20),
    (["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "10"], "bins", 2 ** 20),
    (["trajectories", "--xi2", "20", "--beta", "0.5"], "count", 10 ** 7),
])
@pytest.mark.parametrize("past", ["bound+1", "1e20"])
def test_sizes_past_their_bound_exit_config(tmp_path, capsys, argv, name, bound, past):
    value = str(bound + 1) if past == "bound+1" else "1e20"
    flag = "--" + name.replace("_", "-")
    code, out, err = run_cli(capsys, *argv, flag, value, "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:") and f"{name} must be <= {bound}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out_dir", ["", "file/sub"], ids=["empty", "under-a-file"])
def test_out_dir_that_cannot_be_created_exits_config(tmp_path, capsys, monkeypatch,
                                                     out_dir):
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    code, out, err = run_cli(capsys, "feasibility", "--preset", "bec-cavity",
                             "--out-dir", out_dir)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: cannot create out_dir")
    assert "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("levels", [["new"], ["new", "deeper", ""], ["kept", "new"]],
                         ids=["one-level", "two-levels-trailing-slash", "under-an-existing"])
def test_failing_first_write_removes_the_out_dir_it_created(tmp_path, capsys, levels):
    (tmp_path / "kept").mkdir()
    # The one outcome near 3.7e19 fails the histogram inside the first write.
    code, out, err = run_cli(capsys, "trajectories", "--xi2", "16",
                             "--beta", "18446744073709551616", "--count", "1",
                             "--out-dir", os.path.join(tmp_path, *levels))
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "DomainError"
    assert [path.name for path in tmp_path.iterdir()] == ["kept"]
    assert list((tmp_path / "kept").iterdir()) == []


# Numbers drawn for these fields are capped so that a run that succeeds
# stays cheap: they size arrays, files and run times, and the upper bounds
# in FIELDS still allow sizes that take seconds to minutes a run.
FUZZ_CAPS = {"xi2": 30.0, "count": 40, "bins": 40, "grid_count": 400, "n_max": 400}

FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, 10 ** 400, -(10 ** 400)]), st.floats(),
    st.text(max_size=6), st.lists(st.integers(), max_size=2))


def _fuzz_values(field):
    """Three times in four a value of the field's kind inside its bounds,
    else anything."""
    if field.choices:
        fitting = st.sampled_from(field.choices)
    elif field.kind is bool or field.kind is str:
        fitting = st.from_type(field.kind)
    elif field.kind is int:
        low = (field.minimum or 0) + field.strict
        fitting = st.integers(low, low + 50)
    else:
        low = field.minimum or 0.0
        fitting = st.floats(low, low + 50.0, exclude_min=field.strict)
    return st.integers(0, 3).flatmap(lambda i: fitting if i else FUZZ_VALUES)


def _fuzz_value(name, value):
    cap = FUZZ_CAPS.get(name)
    if cap is not None and type(value) in (int, float) and value > cap:
        return type(value)(cap)
    return value


def _flag_words(field, name, value):
    """argv words for a drawn flag: a bool flag stands bare when true, any
    other value follows its flag as text."""
    if value is None:
        return []
    words = ["--" + name.replace("_", "-")]
    if field is not None and field.kind is bool and isinstance(value, bool):
        return words if value else []
    return words + [repr(value) if isinstance(value, float) else str(value)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_fuzz_fields_exit_codes(tmp_path_factory, data):
    """Flags and config fields drawn from FIELDS, plus an unknown name,
    with values of every JSON type: a run either succeeds with one strict
    JSON object on stdout or exits with a documented code and nothing on
    it."""
    command = data.draw(st.sampled_from(sorted(FIELDS)), label="command")
    table = dict(FIELDS[command], bogus=None)
    drawn = {name: data.draw(FUZZ_VALUES if field is None else _fuzz_values(field),
                             label=name)
             for name, field in table.items()
             if field is not None and field.required or not data.draw(st.integers(0, 2))}
    in_config = {name for name in drawn if data.draw(st.booleans())}
    work = tmp_path_factory.mktemp("fuzz")
    argv, config = [command], {}
    for name, value in drawn.items():
        value = _fuzz_value(name, value)
        if name in in_config:
            config[name] = value
        else:
            argv += _flag_words(table[name], name, value)
    if config:
        (work / "run.json").write_text(json.dumps(config))
        argv += ["--config", str(work / "run.json")]
    argv += ["--out-dir", str(work / "out")]

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert isinstance(_strict_json(stdout.getvalue()), dict)
    else:
        assert stdout.getvalue() == ""


def test_cli_import_leaves_scipy_out():
    src = str(Path(spincat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = ("import sys, spincat.cli; print(sorted(name for name in sys.modules "
             "if name == 'scipy' or name.startswith('scipy.')))")
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert run.stdout.strip() == "[]"


def test_unknown_command_exits_config(capsys):
    assert main(["frobnicate"]) == 2


def test_grid_override(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3333",
                           "--pr-over-beta", "7", "--out-dir", str(tmp_path),
                           "--grid-half-width", "14", "--grid-count", "512")
    assert code == 0
    lines = (tmp_path / "cat_p.csv").read_text().splitlines()
    assert len(lines) == 513
    first = float(lines[1].split(",")[0])
    assert first == pytest.approx(-14.0, abs=1e-9)


def test_grid_override_requires_both(tmp_path, capsys):
    code, _, err = run_cli(capsys, "squeeze", "--xi2", "2",
                           "--grid-half-width", "9", "--out-dir", str(tmp_path))
    assert code == 2
    assert "grid" in err
