import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import spincat
from helpers import (
    longdouble_norm_misses,
    normalized,
    raise_statements,
    read_number_state_csv,
    read_wavefunction_csv,
    reference_number_state_csv,
    reference_wavefunction_csv,
    squeezed_tail_mass,
    traced_lines,
    traced_manifest,
)
from spincat.cat import (
    analyze_cat,
    approx_p_wavefunction,
    approx_x_wavefunction,
    check_cat_conditions,
)
from spincat.cli import FIELDS, TRAJECTORY_BLOCK, _check_coverage, build_parser, main
from spincat.errors import DegenerateStateError, ResolutionError
from spincat.io import _CHUNK_ROWS
from spincat.protocol import (
    alpha_from_xi2,
    apply_number_qnd,
    mu_of_outcome,
    quadrature_variances,
    sample_first_outcome,
    sample_second_outcome,
    squeezed_state_exact,
    squeezed_state_stirling,
)
from spincat.state import (
    Basis,
    QuadratureGrid,
    _expand,
    choose_truncation,
    default_cat_grid,
    effective_max_index,
    grid_for_state,
    quadrature_moment,
    riemann_norm,
    riemann_normalize,
    to_quadrature,
)


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


def test_squeeze_grid_that_misses_the_state_writes_no_file(tmp_path, capsys, monkeypatch):
    # +-3 holds 66 % of the p norm at xi2 = 20, where Delta p = 3.2.  No
    # flag sets the grid, so the grid rule is replaced in-process.
    monkeypatch.setattr("spincat.cli.grid_for_state", lambda state: QuadratureGrid(3.0, 256))
    code, out, err = run_cli(capsys, "squeeze", "--xi2", "20",
                             "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "ResolutionError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("xi2", [1.0, 1.5, 2.0, 5.0, 20.0, 60.0, 100.0, 140.0, 173.5,
                                 200.0, 215.0])
def test_default_squeeze_grids_pass_the_coverage_check(xi2):
    """The default squeeze grid passes `_check_coverage`, and each residual
    it checks, the norm**2 and the second moment of p and of x, is at most
    1e-11."""
    state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0))
    wavefunctions = _expand([(state, Basis.P), (state, Basis.X)], grid_for_state(state))
    dx2, dp2 = quadrature_variances(state)
    _check_coverage(wavefunctions, dx2, dp2)
    for wf, moment in zip(wavefunctions, (dp2, dx2)):
        assert abs(riemann_norm(wf) ** 2 - 1.0) <= 1e-11
        assert abs(quadrature_moment(wf) / moment - 1.0) <= 1e-11


@pytest.mark.parametrize("argv, report", [
    (["squeeze", "--xi2", "20"], "summary"),
    (["squeeze", "--xi2", "60"], "summary"),
    (["cat", "--xi2", "20", "--beta", "0.3333333333333333", "--pr-over-beta", "7"], "trace"),
    (["cat", "--xi2", "20", "--beta", "0.3333", "--sample", "--seed", "7"], "trace"),
    (["trajectories", "--xi2", "20", "--beta", "0.3333", "--count", "10"], "summary"),
], ids=["squeeze-20", "squeeze-60", "cat-reference", "cat-sampled", "trajectories"])
def test_commands_truncate_below_the_tail_tolerance(tmp_path, capsys, argv, report):
    """Truncation is not a flag: the exact squeezed-state tail mass beyond
    the n_max a command reports is below 1e-10."""
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 0, err
    result = stdout_json(out)
    if report == "trace":
        n_max = json.loads(Path(result["files"]["trace"]).read_text())["n_max"]
    else:
        n_max = result["summary"]["n_max"]
    assert squeezed_tail_mass(float(argv[2]), n_max) < 1e-10


@pytest.mark.parametrize("xi2", [100.0, 150.0, 215.0])
def test_squeeze_csvs_match_the_closed_form_squeezed_vacuum(tmp_path, capsys, xi2):
    """The emitted exact p and x wavefunctions against the closed-form
    squeezed vacuum pi**(-1/4) (1+r)**(-1/2) exp(-u**2 (1-r) / (2 (1+r)))
    with r = (xi2-1)/(xi2+1) in p and -r in x, which runs no recurrence:
    both normalized on the CSV's grid, they agree at every point to 2e-5 of
    the peak, what the truncation at a tail mass of 1e-10 leaves."""
    code, out, err = run_cli(capsys, "squeeze", "--xi2", repr(xi2), "--out-dir", str(tmp_path))
    assert code == 0, err
    files = stdout_json(out)["files"]
    r = (xi2 - 1.0) / (xi2 + 1.0)
    for basis, ratio in (("p", r), ("x", -r)):
        coords, values = read_wavefunction_csv(files[f"squeeze_exact_{basis}"])
        spacing = coords[1] - coords[0]
        closed = (np.pi ** -0.25 / np.sqrt(1.0 + ratio)
                  * np.exp(-coords ** 2 * (1.0 - ratio) / (2.0 * (1.0 + ratio))))
        emitted, closed = normalized(values.real, spacing), normalized(closed, spacing)
        assert np.abs(emitted - closed).max() <= 2e-5 * closed.max(), basis


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
    grid = default_cat_grid(metrics["mu_exact"], beta, effective_max_index(cat))
    expected = {
        "cat_p": riemann_normalize(to_quadrature(cat, grid, Basis.P)),
        "cat_x": riemann_normalize(to_quadrature(cat, grid, Basis.X)),
        "cat_approx_p": approx_p_wavefunction(metrics["mu_exact"], beta, grid),
        "cat_approx_x": approx_x_wavefunction(metrics["mu_exact"], beta, grid),
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


def force_cat_grid(monkeypatch, rule):
    """Make `rule(mu, beta, n_eff)` both grid rules of `analyze_cat`: no
    flag sets the grid, so a grid that fails is only reachable in-process."""
    monkeypatch.setattr("spincat.cat.default_cat_grid", rule)
    monkeypatch.setattr("spincat.cat.grid_for_state", lambda state: rule(None, None, None))


@pytest.mark.parametrize("argv, rule", [
    # The former default grid, a margin of 8 past the peaks (the margin at
    # infinite beta), holds 99.494 % of the p norm of this cat.
    (["--xi2", "45.933626852860776", "--beta", "0.03197871375401286",
      "--pr-over-beta", "24.844678751740197"],
     lambda mu, beta, n_eff: default_cat_grid(mu, math.inf, n_eff)),
    (["--xi2", "20", "--beta", "0.3333", "--pr-over-beta", "7"],
     lambda mu, beta, n_eff: QuadratureGrid(2.0, 256)),
], ids=["default-grid-short-by-5e-3", "override-grid-short-by-0.98"])
def test_cat_grid_that_misses_the_state_writes_no_file(tmp_path, capsys, monkeypatch,
                                                       argv, rule):
    force_cat_grid(monkeypatch, rule)
    code, out, err = run_cli(capsys, "cat", *argv, "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    doc = json.loads(err)
    assert doc["kind"] == "ResolutionError" and "norm off by" in doc["error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("xi2, beta, p_R", [
    (20.0, 1.0 / 3.0, 1.0 / 3.0 * 7.0), (200.0, 0.05, 0.05 * 100.0),
    (200.0, 0.05, 0.05 * 130.0),
    # grids far past |u| = 37.64, where exp(-u**2/2) is not a normal double
    (204.28617172296612, 0.005706051814641667, 1.9929594320419217),
    (2.0, 0.1, 90.0), (150.0, 3.0, 12000.0)],
    ids=["reference", "large-100", "large-130", "mu-199", "peaks-at-41", "grid-to-97"])
def test_default_cat_grids_pass_the_coverage_check(xi2, beta, p_R):
    """The default cat grid passes `_check_coverage`, and the cat keeps its
    Riemann norm**2 in p and x to 1e-12 before normalization, also on grids
    to +-62 (mu 199), +-49 (p peaks at +-41) and +-97 (mu 4000)."""
    mu_exact, mu_approx = mu_of_outcome(p_R, beta, xi2)
    n_max = choose_truncation(xi2, beta, max(mu_exact, mu_approx))
    cat = apply_number_qnd(squeezed_state_exact(xi2, n_max), beta, p_R)
    wavefunctions = _expand([(cat, Basis.P), (cat, Basis.X)],
                            default_cat_grid(mu_exact, beta, effective_max_index(cat)))
    _check_coverage(wavefunctions)
    for wf in wavefunctions:
        assert riemann_norm(wf) ** 2 == pytest.approx(1.0, abs=1e-12)


@st.composite
def cats_with_wide_peaks(draw):
    """(xi2, beta, p_R) of a cat whose p peaks are wider, against their
    distance from 0, than a margin of 8 covers: xi2 log-uniform on [6, 210],
    beta log-uniform on [1/xi2, 0.18] and mu log-uniform on
    [1/beta, min(xi2, 0.18/beta**2)], so that beta*xi2 >= 1,
    1/beta <= mu <= xi2 and beta*sqrt(2 mu) <= 0.6."""
    def log_uniform(low, high):
        return math.exp(math.log(low) + draw(st.floats(0.0, 1.0)) * math.log(high / low))
    xi2 = log_uniform(6.0, 210.0)
    beta = log_uniform(1.0 / xi2, 0.18)
    mu = log_uniform(1.0 / beta, min(xi2, 0.18 / beta ** 2))
    return xi2, beta, beta * mu - math.log((xi2 - 1.0) / (xi2 + 1.0)) / (2.0 * beta)


@seed(15)
@settings(max_examples=25, deadline=None)
@given(cat=cats_with_wide_peaks())
def test_default_cat_grid_covers_cats_with_wide_peaks(cat):
    """On its default grid a cat that meets all three conditions and whose
    peaks have beta*sqrt(2 mu) < 0.6 keeps its norm to 1e-12, in p and in
    x.  The eigenfunctions are summed in long double, whose phi_0 seed does
    not underflow on these grids, so the check sees the grid alone."""
    state, grid, _, metrics = analyze_cat(*cat)
    assume(metrics["resolvable"] and metrics["reachable"] and metrics["combined"])
    assume(cat[1] * math.sqrt(2.0 * metrics["mu_exact"]) < 0.6)
    for miss in longdouble_norm_misses(state, grid):
        assert abs(miss) < 1e-12


def test_cat_with_peaks_wider_than_the_former_margin_exits_0(tmp_path, capsys):
    """beta*sqrt(2 mu) = 0.14: a margin of 8 past the peaks held 98.9 % of
    the p norm of this cat, which then exited 3."""
    code, out, err = run_cli(capsys, "cat", "--xi2", "200", "--beta", "0.01",
                             "--pr-over-beta", "150", "--out-dir", str(tmp_path))
    assert code == 0, err
    metrics = stdout_json(out)["metrics"]
    separation = 2.0 * math.sqrt(2.0 * metrics["mu_exact"])
    assert metrics["peak_separation"] == pytest.approx(separation, rel=0.01)
    assert metrics["visibility"] > 0.99


def test_cat_of_tiny_mu_leaves_out_the_approximate_x_file(tmp_path, capsys):
    """mu_exact 2.2e-4: the squares of the approximate x envelope underflow
    at every point of the default grid.  That file and its key are left
    out; the exact outputs and the p approximation are written."""
    beta = 1.0 / 3.0
    code, out, err = run_cli(capsys, "cat", "--xi2", "20", "--beta", repr(beta),
                             "--pr", "0.1502", "--out-dir", str(tmp_path))
    assert code == 0, err
    result = stdout_json(out)
    metrics = result["metrics"]
    assert 0.0 < metrics["mu_exact"] < 1e-3
    assert metrics["overlap_p_approx"] is not None
    assert sorted(result["files"]) == ["cat_approx_p", "cat_p", "cat_state", "cat_x",
                                       "metrics", "trace"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        os.path.basename(path) for path in result["files"].values())
    n_max = json.loads(Path(result["files"]["trace"]).read_text())["n_max"]
    cat = apply_number_qnd(squeezed_state_exact(20.0, n_max), beta, metrics["p_R"])
    grid = default_cat_grid(metrics["mu_exact"], beta, effective_max_index(cat))
    with pytest.raises(DegenerateStateError):
        approx_x_wavefunction(metrics["mu_exact"], beta, grid)


@pytest.mark.parametrize("xi2, beta, p_R", [
    (200.0, 0.01, 1.5),
    # mu_exact near 1e-10, where 5 peak sigmas would take a half-width near 1e6
    (20.0, 1.0 / 3.0, 1e-10 / 3.0 - 1.5 * math.log(19.0 / 21.0)),
], ids=["beta-0.01-mu-100", "beta-third-mu-1e-10"])
def test_default_cat_grid_stays_within_its_cap(xi2, beta, p_R):
    mu_exact, mu_approx = mu_of_outcome(p_R, beta, xi2)
    n_max = choose_truncation(xi2, beta, max(mu_exact, mu_approx))
    n_eff = effective_max_index(apply_number_qnd(squeezed_state_exact(xi2, n_max), beta, p_R))
    grid = default_cat_grid(mu_exact, beta, n_eff)
    assert 0.0 < mu_exact and grid.half_width <= math.sqrt(2.0 * n_eff + 1.0) + 8.0


LOG_FLOOR = math.log(1e-300)


def squeezed_qnd_log_norm(xi2: float, beta: float, p_R: float, n_max: int) -> float:
    """log of the norm of c_n exp(-(beta*n - p_R)**2 / 2) over even
    n <= n_max, c the normalized squeezed coefficients,
    c_n**2 ~ r**n n! / ((n/2)!)**2 with r = (xi2-1)/(2(xi2+1)), summed in
    logs from `math.lgamma`."""
    n = np.arange(0, n_max + 1, 2, dtype=float)
    log_c2 = n * math.log((xi2 - 1.0) / (2.0 * (xi2 + 1.0))) + np.array(
        [math.lgamma(k + 1.0) - 2.0 * math.lgamma(k / 2.0 + 1.0) for k in n])
    log_w = log_c2 - (beta * n - p_R) ** 2

    def log_sum_exp(a):
        return a.max() + math.log(math.fsum(np.exp(a - a.max())))
    return 0.5 * (log_sum_exp(log_w) - log_sum_exp(log_c2))


def formula_exit_code(xi2: float, beta: float, p_R: float) -> int:
    """The exit code of `cat --xi2 --beta --pr`, without running it: 3 where
    the truncation the rules require, the larger of the tail bound (the
    smallest even 2m with q**(m+1) < 1e-10, q = ((xi2-1)/(xi2+1))**2) and
    mu_max + 10/beta (mu_max = p_R/beta > 0), rounded up to even, passes
    4096; 4 where the conditioned log-norm at that truncation is below
    log(1e-300); 0 everywhere else."""
    q = ((xi2 - 1.0) / (xi2 + 1.0)) ** 2
    required = max(2, 2 * math.floor(math.log(1e-10) / math.log(q)),
                   math.ceil(p_R / beta + 10.0 / beta) if p_R > 0.0 else 0)
    required += required % 2
    if required > 4096:
        return 3
    log_norm = squeezed_qnd_log_norm(xi2, beta, p_R, required)
    assert abs(log_norm - LOG_FLOOR) > 1.0  # no rounding of the sums moves the code
    return 4 if log_norm < LOG_FLOOR else 0


@pytest.mark.parametrize("xi2", [1.5, 2.0, 5.0, 20.0, 60.0, 150.0])
def test_cat_exit_code_follows_from_formulas(tmp_path, capsys, xi2):
    """At 5 beta and 16 outcomes each, p_R = 0 and 15 log-spaced from beta/2
    to beta*(40 xi2 + 20/beta), and at three outcomes around the 1e-300
    floor (xi2 = 2, beta = 0.1), `cat` exits with `formula_exit_code`: a
    ResolutionError on a default grid is a fault of the package, never an
    expected outcome."""
    for beta in (0.01, 0.1, 1.0 / 3.0, 1.0, 3.0):
        outcomes = [0.0, *np.geomspace(beta / 2.0, beta * (40.0 * xi2 + 20.0 / beta), 15)]
        if (xi2, beta) == (2.0, 0.1):
            outcomes += [125.0, 130.0, 140.0]
        for p_R in map(float, outcomes):
            code, _, err = run_cli(capsys, "cat", "--xi2", repr(xi2), "--beta", repr(beta),
                                   "--pr", repr(p_R), "--out-dir", str(tmp_path))
            assert code == formula_exit_code(xi2, beta, p_R), (beta, p_R, err)


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


def assert_scalar_records(out_dir, result, seed, checked):
    """Every line of out_dir's trajectories.jsonl is json.dumps of its
    record, the records at `checked` follow from the seed by the scalar
    functions, and the summary follows from the records."""
    beta, xi2 = result["summary"]["beta"], result["summary"]["xi2"]
    lines = (out_dir / "trajectories.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == result["summary"]["count"]
    for line, record in zip(lines, records):
        assert json.dumps(record, sort_keys=True) == line

    # record i is entry i % TRAJECTORY_BLOCK of block i // TRAJECTORY_BLOCK,
    # drawn from default_rng([seed, block]), all its p_P before all its p_R;
    # its fields follow from p_R by the scalar functions
    state = squeezed_state_exact(xi2, result["summary"]["n_max"])
    alpha = alpha_from_xi2(xi2)
    blocks = []
    for b in range(-(-len(records) // TRAJECTORY_BLOCK)):
        generator = np.random.default_rng([seed, b])
        blocks.append((sample_first_outcome(alpha, generator, TRAJECTORY_BLOCK),
                       sample_second_outcome(state, beta, generator, TRAJECTORY_BLOCK)))
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


def test_trajectories_lines_match_scalar_records(two_block_trajectories):
    out_dir, result = two_block_trajectories
    assert_scalar_records(out_dir, result, 9, list(range(200)) + list(
        range(TRAJECTORY_BLOCK - 5, TRAJECTORY_BLOCK + 10)))


def test_trajectories_at_chunk_edges_match_scalar_records(tmp_path):
    """8192 + 1808 records: the writer's chunk edges fall inside both
    blocks.  A second run of the same command, with the first one's
    imports and caches warm, allocates less than 2 MiB at its peak: the
    text is formatted and written in chunks, while the 10,000 lines take
    1.9 MiB."""
    argv = ["trajectories", "--xi2", "20", "--beta", repr(1.0 / 3.0),
            "--count", str(TRAJECTORY_BLOCK + 1808), "--seed", "5",
            "--out-dir", str(tmp_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    edges = [start + k * _CHUNK_ROWS for start in (0, TRAJECTORY_BLOCK) for k in range(8)]
    checked = sorted({i for edge in edges for i in (edge - 1, edge, edge + 1)
                      if 0 <= i < TRAJECTORY_BLOCK + 1808})
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert_scalar_records(tmp_path, result, 5, checked)


def test_trajectories_resolvable_fraction_matches_mixture_mass(tmp_path, capsys):
    from scipy.stats import norm as normal_dist

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


def test_trajectories_overflowing_outcomes_warn_nothing(tmp_path, capsys):
    """beta*n past the double range gives an infinite p_R, in the unused
    rest of the block at --count 1 and in the records at 8192.  Both runs
    exit 3 with a DomainError and raise no RuntimeWarning, which the test
    configuration turns into an error."""
    for count in ("1", "8192"):
        code, out, err = run_cli(capsys, "trajectories", "--xi2", "30",
                                 "--beta", "1.634266486238469e+306", "--count", count,
                                 "--out-dir", str(tmp_path / count))
        assert code == 3
        assert out == ""
        assert _strict_json(err)["kind"] == "DomainError"


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


def test_feasibility_aggregates_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "feasibility", "--kappa0", "-1",
                           "--gamma", "-2", "--delta", "100",
                           "--n-atoms", "1000", "--n-photons", "1e6",
                           "--out-dir", str(tmp_path))
    assert code == 2
    assert "kappa0" in err and "gamma" in err
    assert err.count("config error") == 1


FEASIBLE = {"kappa0": "1e4", "gamma": "1", "delta": "100", "n_atoms": "400000",
            "n_photons": "32000"}


def feasibility_flags(**values) -> list[str]:
    """The flags of a feasible free-space scenario, with `values` set."""
    return [text for name, value in {**FEASIBLE, **values}.items()
            for text in ("--" + name.replace("_", "-"), value)]


@pytest.mark.parametrize("name, value", [
    ("kappa0", "0"), ("kappa0", "-1"), ("gamma", "0"), ("delta", "9.999999999999998"),
    ("delta", "-100"), ("n_atoms", "0"), ("n_photons", "0"), ("transmission", "0"),
    ("transmission", "1.0000000000000002"), ("polarization", "0"), ("polarization", "1"),
    ("tau_c", "0"),
], ids=["kappa0-0", "kappa0-negative", "gamma-0", "delta-below-10-gamma", "delta-negative",
        "n_atoms-0", "n_photons-0", "transmission-0", "transmission-above-1",
        "polarization-0", "polarization-1", "tau_c-0"])
def test_feasibility_value_past_a_bound_is_a_config_error(tmp_path, capsys, name, value):
    """A value just past a bound of one of the eight fields exits 2 with
    one config error line that names the field, and writes nothing."""
    code, out, err = run_cli(capsys, "feasibility", *feasibility_flags(**{name: value}),
                             "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {name} must ") and err.count("\n") == 1
    if name == "delta":
        assert "the far-detuned bound delta >= 10*gamma" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("values", [{"n_atoms": "1"}, {"transmission": "1"},
                                    {"delta": "10", "gamma": "1"}],
                         ids=["n_atoms-1", "transmission-1", "delta-10-gamma"])
def test_feasibility_inclusive_bounds_are_feasible(tmp_path, capsys, values):
    """The inclusive edges n_atoms = 1, transmission = 1 and delta =
    10*gamma are inside the bounds."""
    code, out, _ = run_cli(capsys, "feasibility", *feasibility_flags(**values),
                           "--out-dir", str(tmp_path))
    assert code == 0
    inputs = stdout_json(out)["report"]["inputs"]
    assert all(inputs[name] == float(value) for name, value in values.items())


@pytest.mark.parametrize("flags, prefix", [
    ("--kappa0 1e4 --gamma 1 --delta 100 --n-atoms 400000 --n-photons 1e308", "beta is inf"),
    ("--kappa0 1e300 --gamma 1 --delta 10 --n-atoms 1 --n-photons 1e10", "xi2_raw is inf"),
    ("--kappa0 10 --gamma 1e200 --delta 1e201 --n-atoms 1000 --n-photons 1e6",
     "kappa_detuned is nan"),
    ("--kappa0 1 --gamma 1e-170 --delta 1e-165 --n-atoms 10 --n-photons 10",
     "kappa_detuned is undefined: 4*delta**2 underflows to 0"),
], ids=["beta-inf", "xi2-raw-inf", "nan", "delta-squared-zero"])
def test_feasibility_refuses_a_non_finite_report(tmp_path, capsys, flags, prefix):
    """A report field past the double range, or undefined because
    4*delta**2 underflows to 0, exits 3, naming the field, and prints and
    writes no Infinity or NaN."""
    code, out, err = run_cli(capsys, "feasibility", *flags.split(),
                             "--out-dir", str(tmp_path / "out"))
    assert code == 3
    assert out == ""
    error = _strict_json(err)
    assert error["kind"] == "DomainError" and error["error"].startswith(prefix)
    assert list(tmp_path.iterdir()) == []


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
    ["squeeze", "--xi2", "20", "--n-max", "40"],
    ["cat", "--xi2", "20", "--beta", "0.3333", "--pr-over-beta", "7", "--tail-tol", "1e-4"],
    ["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "10", "--tail-tol", "1e-4"],
    ["squeeze", "--xi2", "20", "--grid-half-width", "9", "--grid-count", "64"],
    ["cat", "--xi2", "20", "--beta", "0.3333", "--pr-over-beta", "7",
     "--grid-half-width", "9", "--grid-count", "64"],
], ids=["feasibility-seed", "feasibility-grid", "squeeze-seed", "trajectories-grid",
        "squeeze-n-max", "cat-tail-tol", "trajectories-tail-tol", "squeeze-grid", "cat-grid"])
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
    ("squeeze", {"xi2": 20.0, "n_max": 40}),
    ("squeeze", {"xi2": 20.0, "tail_tol": 1e-4}),
    ("cat", {"xi2": 20.0, "beta": 0.3333, "pr_over_beta": 7.0, "tail_tol": 1e-4}),
    ("trajectories", {"xi2": 20.0, "beta": 0.5, "count": 10, "tail_tol": 1e-4}),
    ("squeeze", {"xi2": 20.0, "grid_half_width": 9.0, "grid_count": 64}),
    ("cat", {"xi2": 20.0, "beta": 0.3333, "pr_over_beta": 7.0, "grid_half_width": 9.0}),
    ("cat", {"xi2": 20.0, "beta": 0.3333, "pr_over_beta": 7.0, "grid_count": 64}),
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
    (["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "10"], {"bins": 51.9}),
    (["feasibility", "--kappa0", "1e4", "--gamma", "1", "--delta", "100",
      "--n-atoms", "1.7", "--n-photons", "32000"], {}),
    (["cat", "--xi2", "20", "--beta", "0.3333", "--sample"], {"seed": True}),
    (["feasibility"], {"preset": ["a"]}),
    (["feasibility", "--preset", "bec-cavity"], {"out_dir": 5}),
    (["feasibility", "--preset", "bec-cavity", "--kappa0", "-5"], {}),
    (["squeeze"], {"xi2": "20"}),
    (["squeeze", "--xi2", "20"], {"config": "x"}),
], ids=["sample-string", "count-fraction", "bins-fraction", "n-atoms-fraction",
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
    (["cat", "--xi2", "20", "--beta", "0.3333"], "config error: "),
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
    (["cat", "--xi2", "20", "--beta", "0.3333", "--sample"], "seed", 2 ** 64 - 1),
    (["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "10"], "bins", 2 ** 20),
    (["trajectories", "--xi2", "20", "--beta", "0.5"], "count", 10 ** 7),
], ids=["argv1-seed-18446744073709551615", "argv2-bins-1048576", "argv3-count-10000000"])
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


def test_nul_out_dir_from_a_config_file_exits_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("run.json").write_text(json.dumps({"preset": "bec-cavity", "out_dir": "ab\u0000c"}))
    code, out, err = run_cli(capsys, "feasibility", "--config", "run.json")
    assert code == 2
    assert out == ""
    assert err.startswith("config error: cannot create out_dir")
    assert [path.name for path in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("argv, first", [
    (["squeeze", "--xi2", "2"], "squeeze_exact_state.csv"),
    (["cat", "--xi2", "2", "--beta", "0.1", "--pr", "0.05"], "cat_state.csv"),
    (["trajectories", "--xi2", "20", "--beta", "0.5", "--count", "10"],
     "trajectories.jsonl"),
    (["feasibility", "--preset", "bec-cavity"], "feasibility_report.json"),
], ids=["squeeze", "cat", "trajectories", "feasibility"])
def test_directory_at_an_output_name_exits_config(tmp_path, capsys, argv, first):
    (tmp_path / first).mkdir()
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot write {str(tmp_path / first)!r}")
    assert "Traceback" not in err
    assert [path.name for path in tmp_path.iterdir()] == [first]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_output_file_modes_follow_the_umask(tmp_path, capsys, umask, mode):
    previous = os.umask(umask)
    try:
        code, _, _ = run_cli(capsys, "cat", "--xi2", "20", "--beta", "0.3333",
                             "--pr-over-beta", "7", "--out-dir", str(tmp_path))
    finally:
        os.umask(previous)
    assert code == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == ["cat_approx_p.csv", "cat_approx_x.csv", "cat_metrics.json",
                     "cat_p.csv", "cat_state.csv", "cat_trace.json", "cat_x.csv"]
    assert {name: (tmp_path / name).stat().st_mode & 0o777 for name in names} == \
        dict.fromkeys(names, mode)


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
# in FIELDS still allow sizes that take seconds to minutes a run.  An xi2
# from 5000 on is kept: every command refuses it at once, where the
# truncation passes its cap or the tail ratio rounds to 1.
FUZZ_CAPS = {"xi2": 30.0, "count": 40, "bins": 40}
FUZZ_UNCAPPED_FROM = {"xi2": 5000.0}

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
    if (cap is not None and type(value) in (int, float)
            and cap < value < FUZZ_UNCAPPED_FROM.get(name, math.inf)):
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
    it.  Every refusal it reaches, some manifest command reaches too: one
    that no command reaches is to be pinned in tests/golden/regenerate.py."""
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
    with traced_lines() as lines, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in stderr.getvalue()
    if code == 0:
        assert isinstance(_strict_json(stdout.getvalue()), dict)
    else:
        assert stdout.getvalue() == ""
    assert sorted((raise_statements() & lines) - traced_manifest()[1]) == [], argv


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for command in ("squeeze", "cat", "trajectories", "feasibility"):
        assert run_cli(capsys, command, "--help")[0] == 0
    assert run_cli(capsys, "feasibility", "--preset", "bec-cavity",
                   "--out-dir", str(tmp_path))[0] == 0
    assert built.count("spincat") == 1


def test_argparse_error_leaves_the_next_command_unchanged(tmp_path, capsys):
    argv = ["cat", "--xi2", "2", "--beta", "0.1", "--pr", "0.05", "--out-dir", str(tmp_path)]
    first = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, "cat", "--xi2", "two", "--pr", "0.05")
    assert (code, out) == (2, "")
    assert err.startswith("usage: spincat cat") and "invalid number value" in err
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["cat", "--help"]], ids=["top", "cat"])
def test_help_is_the_same_on_every_call_and_follows_columns(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "200")
    wide = run_cli(capsys, *argv)
    assert wide == run_cli(capsys, *argv)
    assert wide[0] == 0 and wide[1].startswith("usage: spincat") and wide[2] == ""
    monkeypatch.setenv("COLUMNS", "60")
    narrow = run_cli(capsys, *argv)[1]
    assert max(map(len, narrow.splitlines())) <= 60 < max(map(len, wide[1].splitlines()))


def test_config_values_do_not_carry_over(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"preset": "bec-cavity",
                                  "out_dir": str(tmp_path / "from_config")}))
    code, out, _ = run_cli(capsys, "feasibility", "--config", str(config))
    assert code == 0 and stdout_json(out)["report"]["preset"] == "bec-cavity"
    code, out, err = run_cli(capsys, "feasibility", "--kappa0", "1e4", "--gamma", "1",
                             "--delta", "100", "--n-atoms", "400000", "--n-photons",
                             "32000", "--out-dir", str(tmp_path / "flags"))
    assert code == 0, err
    result = stdout_json(out)
    assert "preset" not in result["report"]
    assert result["files"]["report"] == str(tmp_path / "flags" / "feasibility_report.json")


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
