"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import contextlib
import io
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from helpers import brute_force_number_qnd, chi_square_vs_mixture, fourier_pair, normalized
from spincat.cat import (
    approx_p_wavefunction,
    approx_x_wavefunction,
    check_cat_conditions,
    detect_peaks,
    overlap,
)
from spincat.cli import main as cli_main
from spincat.feasibility import PRESETS, evaluate_scenario
from spincat.protocol import (
    apply_number_qnd,
    mu_of_outcome,
    quadrature_variances,
    sample_second_outcome,
    squeezed_state_exact,
)
from spincat.state import (
    Basis,
    NumberState,
    RandomSource,
    choose_truncation,
    default_cat_grid,
    effective_max_index,
    riemann_normalize,
    to_quadrature,
)

XI2 = 20.0
BETA = 1.0 / 3.0


def report(number, name, ok, elapsed=None):
    stamp = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{stamp}")


def make_reference_cat():
    mu_exact, mu_approx = mu_of_outcome(7.0 * BETA, BETA, XI2)
    n_max = choose_truncation(XI2, BETA, max(mu_exact, mu_approx))
    squeezed = squeezed_state_exact(XI2, n_max)
    return apply_number_qnd(squeezed, BETA, 7.0 * BETA), mu_exact


def test_criterion_1_reference_cat_reproduction():
    start = time.perf_counter()
    cat, mu_exact = make_reference_cat()
    grid = default_cat_grid(mu_exact, BETA, effective_max_index(cat))
    exact_p = riemann_normalize(to_quadrature(cat, grid, Basis.P))
    positions, _ = detect_peaks(exact_p)
    target = np.sqrt(2.0 * mu_exact)
    two_peaks = len(positions) == 2
    within = (abs(abs(positions[0]) - target) <= 0.05 * target
              and abs(abs(positions[-1]) - target) <= 0.05 * target)

    approx = approx_p_wavefunction(mu_exact, BETA, grid)
    fidelity = overlap(exact_p, approx)
    elapsed = time.perf_counter() - start

    ok = two_peaks and within and fidelity >= 0.95 and elapsed < 5.0
    report(1, "exact conditional state: two peaks and >= 0.95 overlap", ok, elapsed)
    assert two_peaks, f"expected 2 peaks, found {positions}"
    assert within, f"peaks {positions} not within 5% of +-{target}"
    assert fidelity >= 0.95, f"overlap {fidelity} below 0.95"
    assert elapsed < 5.0


def test_criterion_2_squeezed_state_moments():
    start = time.perf_counter()
    ok = True
    for xi2 in (2.0, 5.0, 20.0, 50.0):
        state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0))
        dx2, dp2 = quadrature_variances(state)
        ok &= abs(dx2 - 1.0 / (2.0 * xi2)) <= 0.01 / (2.0 * xi2)
        ok &= abs(dp2 - xi2 / 2.0) <= 0.01 * xi2 / 2.0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(2, "squeezed moments 1/(2 xi2) and xi2/2 within 1%", ok, elapsed)
    assert ok
    assert elapsed < 5.0


def test_criterion_3_parity_exactness():
    squeezed = squeezed_state_exact(XI2, 230)
    cat = apply_number_qnd(squeezed, BETA, 7.0 * BETA)
    ok = (np.all(squeezed.amplitudes[1::2] == 0.0)
          and np.all(cat.amplitudes[1::2] == 0.0))
    report(3, "odd amplitudes bitwise zero through both steps", ok)
    assert ok


# Amplitudes are real: the library's states hold no complex phases.
amplitude_lists = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=13)

_oracle_failures = []


@given(amps=amplitude_lists, beta=st.floats(0.0, 3.0), p_r=st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def _oracle_property(amps, beta, p_r):
    raw = np.array(amps)
    assume(np.linalg.norm(raw) > 1e-3)
    state = NumberState(raw / np.linalg.norm(raw))
    # outcomes below the oracle's own double-precision noise floor carry
    # no information about equivalence of the two constructions
    n = np.arange(state.amplitudes.size)
    weight = np.exp(-0.5 * (beta * n - p_r) ** 2)
    assume(np.max(np.abs(state.amplitudes) * weight) > 1e-7)
    direct = apply_number_qnd(state, beta, p_r)
    oracle = brute_force_number_qnd(state.amplitudes, beta, p_r)
    error = np.max(np.abs(direct.amplitudes - oracle))
    if error >= 1e-6:
        _oracle_failures.append((amps, beta, p_r, error))
    assert error < 1e-6


def test_criterion_4_small_instance_oracle():
    start = time.perf_counter()
    _oracle_failures.clear()
    _oracle_property()
    elapsed = time.perf_counter() - start
    ok = not _oracle_failures and elapsed < 30.0
    report(4, "number-QND matches the joint atom-light oracle to 1e-6", ok, elapsed)
    assert ok
    assert elapsed < 30.0


def test_criterion_5_fourier_hermite_consistency():
    _, mu_approx = mu_of_outcome(7.0 * BETA, BETA, XI2)
    mu_exact, _ = mu_of_outcome(7.0 * BETA, BETA, XI2)
    n_eff = effective_max_index(make_reference_cat()[0])
    worst = 0.0
    for mu in (mu_exact, mu_approx):
        grid = default_cat_grid(mu, BETA, n_eff)
        via_ft = normalized(fourier_pair(approx_p_wavefunction(mu, BETA, grid).values, grid),
                            grid.spacing)
        direct = approx_x_wavefunction(mu, BETA, grid)
        worst = max(worst, float(np.max(np.abs(via_ft - direct.values))))
    ok = worst < 1e-4
    report(5, f"x wavefunction via Fourier matches analytic form (err {worst:.2e})", ok)
    assert ok


def test_criterion_6_condition_algebra_and_boundary():
    flags = check_cat_conditions(7.0, BETA, XI2)
    all_true = flags == (True, True, True)

    mu_boundary = 1.0 / BETA
    n_eff = effective_max_index(make_reference_cat()[0])
    wf = approx_p_wavefunction(mu_boundary, BETA, default_cat_grid(mu_boundary, BETA, n_eff))
    positions, widths = detect_peaks(wf)
    ratio = (positions[1] - positions[0]) / (widths[0] + widths[1])
    analytic = 2.0 * BETA * mu_boundary
    boundary_ok = len(positions) == 2 and abs(ratio - analytic) <= 0.10 * analytic

    ok = all_true and boundary_ok
    report(6, f"condition flags and boundary ratio {ratio:.3f} vs {analytic}", ok)
    assert all_true
    assert boundary_ok


def test_criterion_7_feasibility_regression():
    start = time.perf_counter()
    free = evaluate_scenario(PRESETS["bec-free-space"])
    cavity = evaluate_scenario(PRESETS["bec-cavity"])
    elapsed = time.perf_counter() - start

    checks = {
        "free xi2_max_depth exact": free.xi2_max_depth == 50.0,
        "free threshold 21715 +- 1": abs(free.depth_threshold - 21715.0) <= 1.0,
        "free flag marginal": free.depth_flag == "marginal",
        "cavity xi2_required exact": cavity.xi2_required_cat == 10.0,
        "cavity flag met": cavity.depth_flag == "met",
        "free rotation within 10% of 3e-5":
            abs(free.rotation_tolerance - 3e-5) <= 0.1 * 3e-5,
        "cavity rotation within 10% of 1/300":
            abs(cavity.rotation_tolerance - 1.0 / 300.0) <= 0.1 / 300.0,
        "runtime < 1 s": elapsed < 1.0,
    }
    ok = all(checks.values())
    report(7, "feasibility preset regression", ok, elapsed)
    assert ok, {name: value for name, value in checks.items() if not value}


def test_criterion_8_sampling_statistics(tmp_path):
    start = time.perf_counter()
    state = squeezed_state_exact(XI2, 230)
    rng = RandomSource(20_260_809)
    draws = np.array([sample_second_outcome(state, BETA, rng)
                      for _ in range(100_000)])
    stat, dof = chi_square_vs_mixture(draws, state.amplitudes, BETA,
                                      np.linspace(-3.0, 25.0, 57))
    chi_ok = stat < chi2.ppf(0.99, dof)

    argv = ["trajectories", "--xi2", "20", "--beta", "0.3333333333333333",
            "--count", "2000", "--seed", "77"]
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        assert cli_main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    bytes_a = (tmp_path / "a" / "trajectories.jsonl").read_bytes()
    bytes_b = (tmp_path / "b" / "trajectories.jsonl").read_bytes()
    identical = bytes_a == bytes_b
    elapsed = time.perf_counter() - start

    ok = chi_ok and identical and elapsed < 30.0
    report(8, f"chi-square {stat:.1f} (dof {dof}) and byte-identical reruns",
           ok, elapsed)
    assert chi_ok, f"chi-square {stat} exceeds the 1% critical value"
    assert identical
    assert elapsed < 30.0
