import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import chi2, kstest

from helpers import (
    brute_force_number_qnd,
    chi_square_vs_mixture,
    hermite_basis,
    longdouble_quadrature_variances,
    riemann_quadrature_variances,
)
from spincat import (
    Basis,
    CatApproxParams,
    DomainError,
    ImprobableOutcomeError,
    NumberState,
    RandomSource,
    QuadratureGrid,
    alpha_from_xi2,
    apply_number_qnd,
    approx_p_wavefunction,
    approx_x_wavefunction,
    choose_truncation,
    default_cat_grid,
    mean_occupation,
    mu_of_outcome,
    outcome_density_second,
    outcome_sampler,
    quadrature_variances,
    sample_first_outcome,
    sample_second_outcome,
    squeezed_state_exact,
    squeezed_state_stirling,
)
from spincat import protocol
from spincat.state import _TRUNCATION_CAP

BETA_FIG = 1.0 / 3.0


def reference_cat_state():
    n_max = choose_truncation(20.0, BETA_FIG, 7.0, 1e-10)
    squeezed = squeezed_state_exact(20.0, n_max)
    return apply_number_qnd(squeezed, BETA_FIG, 7.0 * BETA_FIG)


# ---------------------------------------------------------------------------
# params and couplings


def test_alpha_from_xi2():
    assert alpha_from_xi2(1.0) == 0.0
    assert alpha_from_xi2(20.0) == pytest.approx(np.sqrt(19.0), abs=1e-12)
    with pytest.raises(DomainError):
        alpha_from_xi2(0.5)


# ---------------------------------------------------------------------------
# squeezed states


def test_squeezed_exact_degenerate_is_vacuum():
    state = squeezed_state_exact(1.0, 8)
    expected = np.zeros(9, dtype=complex)
    expected[0] = 1.0
    assert np.array_equal(state.amplitudes, expected)


# Past every argument squeezed_state_exact can pass to log-gamma under the
# truncation cap (1 .. 2 * _TRUNCATION_CAP + 1), up to 2**16: numpy's own log
# differs from math.log at 9170 and 19143 on some builds, and a port built on
# it must fail here.
LOG_GAMMA_TOP = 2 ** 16


@pytest.mark.parametrize("steps", [[], [12, 500, 998, 999, 1000, 1001, 4096]],
                         ids=["one-build", "grown-in-steps"])
def test_log_factorials_are_gammaln_bits(monkeypatch, steps):
    # A table grown across the x = 1000 branch point of the Cephes series
    # must hold the same bits as one built in a single pass.
    monkeypatch.setattr(protocol, "_log_factorial_table",
                        protocol._log_factorial_table[:12])
    for n in steps:
        protocol._log_factorials(n)
    got = protocol._log_factorials(LOG_GAMMA_TOP - 1)
    expected = gammaln(np.arange(1.0, LOG_GAMMA_TOP + 1.0))
    assert got.size == expected.size == LOG_GAMMA_TOP
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert not got.flags.writeable


@pytest.mark.parametrize("xi2", [2.0, 20.0, 150.0])
def test_squeezed_exact_bits_match_gammaln_build(xi2):
    for n_max in (0, 24, choose_truncation(xi2, 1.0, 0.0, 1e-12), _TRUNCATION_CAP):
        amps = np.zeros(n_max + 1)
        m = np.arange(0, n_max // 2 + 1)
        log_c = (m * np.log((xi2 - 1.0) / (2.0 * (xi2 + 1.0)))
                 + 0.5 * gammaln(2 * m + 1) - gammaln(m + 1))
        amps[::2] = np.exp(log_c - log_c.max())
        expected = NumberState(amps / np.linalg.norm(amps)).amplitudes
        got = squeezed_state_exact(xi2, n_max).amplitudes
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), n_max


def test_squeezed_exact_coefficient_ratio():
    # c(2)/c(0) = ((xi2-1)/(2(xi2+1))) * sqrt(2!)/1! at xi2=3
    state = squeezed_state_exact(3.0, 32)
    ratio = (state.amplitudes[2] / state.amplitudes[0]).real
    assert ratio == pytest.approx(0.25 * np.sqrt(2.0), abs=1e-12)


def test_squeezed_exact_mean_occupation():
    state = squeezed_state_exact(20.0, 230)
    expected = (20.0 + 1.0 / 20.0) / 4.0 - 0.5
    assert mean_occupation(state) == pytest.approx(expected, abs=1e-6)


def test_squeezed_exact_against_projection_oracle():
    # independent oracle: Fourier-transform the defining x-space Gaussian
    # exp(-xi2 x^2/2) to the p representation, then project onto the real
    # basis functions phi_n(p) by numerical quadrature
    xi2 = 3.0
    x = np.linspace(-10.0, 10.0, 2001)
    psi_x = (xi2 / np.pi) ** 0.25 * np.exp(-xi2 * x * x / 2.0)
    p = np.linspace(-14.0, 14.0, 2001)
    kernel = np.exp(1j * np.outer(p, x)) * (x[1] - x[0]) / np.sqrt(2.0 * np.pi)
    psi_p = kernel @ psi_x
    assert np.max(np.abs(psi_p.imag)) < 1e-12
    basis = hermite_basis(12, p)
    coeffs = basis @ psi_p.real * (p[1] - p[0])
    coeffs /= np.linalg.norm(coeffs)
    state = squeezed_state_exact(xi2, 12)
    assert np.max(np.abs(state.amplitudes - coeffs)) < 1e-6


def test_squeezed_stirling_ratio_and_overlap():
    state = squeezed_state_stirling(20.0, 230)
    ratio = (state.amplitudes[2] / state.amplitudes[0]).real
    assert ratio == pytest.approx(19.0 / 21.0, abs=1e-12)

    exact = squeezed_state_exact(20.0, 230)
    fidelity = abs(np.vdot(exact.amplitudes, state.amplitudes))
    # frozen from the first computation of this inner product
    assert fidelity == pytest.approx(0.95019, abs=1e-4)
    assert fidelity > 0.95


def test_squeezed_stirling_near_degenerate_and_error():
    state = squeezed_state_stirling(1.0001, 16)
    assert abs(state.amplitudes[0]) > 0.99999
    with pytest.raises(DomainError):
        squeezed_state_stirling(1.0, 16)


def test_squeezed_requires_even_truncation():
    with pytest.raises(DomainError):
        squeezed_state_exact(3.0, 7)


@pytest.mark.parametrize("xi2", [2.0, 5.0, 20.0, 50.0])
def test_squeezed_variances(xi2):
    state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0, 1e-10))
    dx2, dp2 = quadrature_variances(state)
    assert dx2 == pytest.approx(1.0 / (2.0 * xi2), rel=0.01)
    assert dp2 == pytest.approx(xi2 / 2.0, rel=0.01)


@pytest.mark.parametrize("xi2", [2.0, 5.0, 20.0, 60.0])
def test_squeezed_variances_match_the_grid_moments(xi2):
    # The x moment on the oracle's own grid is off by up to 3.0e-8 (xi2 = 60).
    state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0, 1e-10))
    dx2, dp2 = quadrature_variances(state)
    grid_dx2, grid_dp2 = riemann_quadrature_variances(state)
    assert dp2 == pytest.approx(grid_dp2, rel=1e-12)
    assert dx2 == pytest.approx(grid_dx2, rel=1e-7)


def test_squeezed_variances_match_longdouble_at_large_xi2():
    """<x^2> = <n> + 1/2 - Re<a^2> is the difference of two terms near 37.5,
    so its double-precision error scales with <p^2> = 75, not with <x^2>:
    7.9e-15, which is 2.4e-12 of <x^2>."""
    state = squeezed_state_exact(150.0, choose_truncation(150.0, 1.0, 0.0, 1e-10))
    dx2, dp2 = quadrature_variances(state)
    ref_dx2, ref_dp2 = longdouble_quadrature_variances(state)
    assert abs(dp2 - ref_dp2) <= 1e-15 * ref_dp2
    assert abs(dx2 - ref_dx2) <= 1e-15 * ref_dp2
    assert dp2 == pytest.approx(75.0, rel=1e-9)


# ---------------------------------------------------------------------------
# first QND step


def test_sample_first_outcome_statistics():
    rng = RandomSource(42)
    alpha = np.sqrt(19.0)
    draws = np.array([sample_first_outcome(alpha, rng) for _ in range(100_000)])
    assert draws.var() == pytest.approx(10.0, rel=0.03)
    assert draws.mean() == pytest.approx(0.0, abs=0.05)

    one = sample_first_outcome(0.0, RandomSource(42))
    two = sample_first_outcome(0.0, RandomSource(42))
    assert one == two


def test_sample_first_outcome_uncoupled_variance():
    rng = RandomSource(3)
    draws = np.array([sample_first_outcome(0.0, rng) for _ in range(50_000)])
    assert draws.var() == pytest.approx(0.5, rel=0.03)


# ---------------------------------------------------------------------------
# second QND step


def test_apply_number_qnd_zero_coupling_is_identity():
    state = squeezed_state_exact(5.0, 40)
    out = apply_number_qnd(state, 0.0, 3.0)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-14)


def test_apply_number_qnd_number_distribution():
    cat = reference_cat_state()
    mu_exact, _ = mu_of_outcome(7.0 * BETA_FIG, BETA_FIG, 20.0)
    n = np.arange(cat.amplitudes.size)
    weights = np.abs(cat.amplitudes)
    mean = np.sum(n * weights) / np.sum(weights)
    std = np.sqrt(np.sum((n - mean) ** 2 * weights) / np.sum(weights))
    assert abs(mean - mu_exact) < 0.5 / BETA_FIG
    assert std == pytest.approx(1.0 / BETA_FIG, rel=0.2)


def test_apply_number_qnd_improbable_outcome():
    state = NumberState(np.array([1.0]))
    with pytest.raises(ImprobableOutcomeError):
        apply_number_qnd(state, 1.0, 50.0)


def test_apply_number_qnd_overflowing_exponents_are_improbable():
    """Every exponent overflows to -inf, the exact limit of its weight: an
    improbable outcome, with no overflow or invalid-value warning."""
    state = squeezed_state_exact(20.0, 40)
    with pytest.raises(ImprobableOutcomeError) as info:
        apply_number_qnd(state, 1e300, 1e155)
    assert info.value.log_norm == -np.inf
    assert outcome_density_second(state, 1e300)(1e155) == 0.0


def test_parity_survives_both_steps_bitwise():
    squeezed = squeezed_state_exact(20.0, 230)
    assert np.all(squeezed.amplitudes[1::2] == 0.0)
    cat = apply_number_qnd(squeezed, BETA_FIG, 7.0 * BETA_FIG)
    assert np.all(cat.amplitudes[1::2] == 0.0)


@given(xi2=st.floats(1.0, 60.0), beta=st.floats(0.01, 3.0), p_r=st.floats(-10.0, 10.0))
@settings(max_examples=40, deadline=None)
def test_parity_conservation_property(xi2, beta, p_r):
    n_max = choose_truncation(xi2, beta, 0.0, 1e-10, cap=100_000)
    state = squeezed_state_exact(xi2, min(n_max, 2000))
    try:
        out = apply_number_qnd(state, beta, p_r)
    except ImprobableOutcomeError:
        assume(False)
    assert np.all(out.amplitudes[1::2] == 0.0)


@given(xi2=st.floats(1.0, 60.0), beta=st.floats(0.05, 3.0), p_r=st.floats(-10.0, 10.0),
       odd=st.booleans())
@settings(max_examples=40, deadline=None)
def test_parity_premise_of_the_mirrored_expansion(xi2, beta, p_r, odd):
    """What the half-grid expansion and writer rest on: every state the
    protocol builds is zero at odd n, bit for bit, and the analytic cat
    wavefunctions are bitwise even on symmetric grids."""
    n_max = min(choose_truncation(xi2, beta, 0.0, 1e-10, cap=100_000), 2000)
    states = [squeezed_state_exact(xi2, n_max)]
    if xi2 > 1.0:
        states.append(squeezed_state_stirling(xi2, n_max))
    try:
        states.append(apply_number_qnd(states[0], beta, p_r))
    except ImprobableOutcomeError:
        pass
    for state in states:
        assert not np.any(state.amplitudes[1::2])
    assume(xi2 > 1.0)
    mu, _ = mu_of_outcome(p_r, beta, xi2)
    assume(mu > 0.0)
    grid = default_cat_grid(mu)
    grid = QuadratureGrid(grid.min, grid.max, grid.count + odd)
    params = CatApproxParams(mu=mu, beta=beta)
    for wf in (approx_p_wavefunction(params, grid), approx_x_wavefunction(params, grid)):
        assert wf.values.tobytes() == wf.values[::-1].tobytes()


# ---------------------------------------------------------------------------
# outcome distribution of the second step


def test_outcome_density_vacuum_is_single_gaussian():
    density = outcome_density_second(NumberState(np.array([1.0])), 2.0)
    p = np.linspace(-4.0, 4.0, 101)
    expected = np.exp(-p * p) / np.sqrt(np.pi)
    assert np.max(np.abs(density(p) - expected)) < 1e-12


def test_outcome_density_normalization_and_mean():
    state = squeezed_state_exact(20.0, 230)
    density = outcome_density_second(state, BETA_FIG)
    # integrate over the full truncated support
    p = np.linspace(-12.0, BETA_FIG * 230 + 12.0, 400_001)
    dp = p[1] - p[0]
    total = np.sum(density(p)) * dp
    assert total == pytest.approx(1.0, abs=1e-8)
    mean = np.sum(p * density(p)) * dp
    assert mean == pytest.approx(BETA_FIG * mean_occupation(state), abs=1e-8)


def test_sample_second_outcome_vacuum_law():
    rng = RandomSource(11)
    state = NumberState(np.array([1.0]))
    draws = np.array([sample_second_outcome(state, 1.0, rng)
                      for _ in range(100_000)])
    result = kstest(draws, "norm", args=(0.0, np.sqrt(0.5)))
    assert result.pvalue > 0.01


def test_sample_second_outcome_matches_mixture():
    state = squeezed_state_exact(20.0, 230)
    rng = RandomSource(1234)
    draws = np.array([sample_second_outcome(state, BETA_FIG, rng)
                      for _ in range(100_000)])
    stat, dof = chi_square_vs_mixture(draws, state.amplitudes, BETA_FIG,
                                      np.linspace(-3.0, 25.0, 57))
    assert stat < chi2.ppf(0.99, dof)


def test_sample_second_outcome_reproducible():
    state = squeezed_state_exact(20.0, 230)
    a = sample_second_outcome(state, BETA_FIG, RandomSource(5))
    b = sample_second_outcome(state, BETA_FIG, RandomSource(5))
    assert a == b


def test_outcome_sampler_p_r_matches_mixture():
    state = squeezed_state_exact(20.0, 230)
    draw = outcome_sampler(alpha_from_xi2(20.0), state, BETA_FIG)
    _, p_r = draw(np.random.default_rng(1234), 100_000)
    stat, dof = chi_square_vs_mixture(p_r, state.amplitudes, BETA_FIG,
                                      np.linspace(-3.0, 25.0, 57))
    assert stat < chi2.ppf(0.99, dof)


@pytest.mark.parametrize("xi2", [1.0, 20.0])
def test_outcome_sampler_p_p_variance(xi2):
    alpha = alpha_from_xi2(xi2)
    count = 100_000
    draw = outcome_sampler(alpha, squeezed_state_exact(xi2, 230), BETA_FIG)
    p_p, _ = draw(np.random.default_rng(42), count)
    var = (1.0 + alpha * alpha) / 2.0
    # the sample variance of a normal has standard error var * sqrt(2/count)
    assert abs(p_p.var() - var) < 5.0 * var * np.sqrt(2.0 / count)
    assert abs(p_p.mean()) < 5.0 * np.sqrt(var / count)


def test_outcome_sampler_vacuum_law():
    state = NumberState(np.array([1.0]))
    _, p_r = outcome_sampler(0.0, state, 1.0)(np.random.default_rng(11), 100_000)
    assert kstest(p_r, "norm", args=(0.0, np.sqrt(0.5))).pvalue > 0.01


def test_outcome_sampler_reproducible_and_rejects_negative_beta():
    state = squeezed_state_exact(20.0, 230)
    draw = outcome_sampler(alpha_from_xi2(20.0), state, BETA_FIG)
    a = draw(np.random.default_rng([5, 0]), 1000)
    b = draw(np.random.default_rng([5, 0]), 1000)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    with pytest.raises(DomainError):
        outcome_sampler(0.0, state, -0.1)


def test_mu_of_outcome_arrays_match_scalars():
    p_r = np.random.default_rng(8).normal(2.0, 3.0, 500)
    exact, approx = mu_of_outcome(p_r, BETA_FIG, 20.0)
    for value, e, a in zip(p_r.tolist(), exact.tolist(), approx.tolist()):
        assert (e, a) == mu_of_outcome(value, BETA_FIG, 20.0)


# ---------------------------------------------------------------------------
# outcome -> mu


def test_mu_of_outcome_reference_values():
    mu_exact, mu_approx = mu_of_outcome(7.0 * BETA_FIG, BETA_FIG, 20.0)
    assert mu_approx == pytest.approx(7.0, abs=1e-12)
    assert mu_exact == pytest.approx(7.0 + 4.5 * np.log(19.0 / 21.0), abs=1e-12)
    assert mu_exact == pytest.approx(6.5496, abs=1e-4)


def test_mu_of_outcome_limits_and_errors():
    mu_exact, _ = mu_of_outcome(0.0, 1.0, 1e9)
    assert abs(mu_exact) < 1e-8
    mu_exact, _ = mu_of_outcome(-3.0, 1.0, 2.0)
    assert mu_exact == pytest.approx(-3.0 + 0.5 * np.log(1.0 / 3.0), abs=1e-12)
    assert mu_exact < -3.0
    with pytest.raises(DomainError):
        mu_of_outcome(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        mu_of_outcome(1.0, 0.0, 2.0)


# ---------------------------------------------------------------------------
# small-instance oracle equivalence


amplitude_lists = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    min_size=1, max_size=13,
)


@given(amps=amplitude_lists, beta=st.floats(0.0, 3.0), p_r=st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_number_qnd_matches_joint_state_oracle(amps, beta, p_r):
    raw = np.array([re + 1j * im for re, im in amps])
    assume(np.linalg.norm(raw) > 1e-3)
    state = NumberState(raw / np.linalg.norm(raw))
    # below the double-precision noise floor of the grid oracle the oracle
    # itself is meaningless, so require a minimally probable outcome
    n = np.arange(state.amplitudes.size)
    weight = np.exp(-0.5 * (beta * n - p_r) ** 2)
    assume(np.max(np.abs(state.amplitudes) * weight) > 1e-7)
    direct = apply_number_qnd(state, beta, p_r)
    oracle = brute_force_number_qnd(state.amplitudes, beta, p_r)
    assert np.max(np.abs(direct.amplitudes - oracle)) < 1e-6


def test_number_qnd_matches_oracle_fixed_case():
    state = squeezed_state_exact(6.0, 12)
    direct = apply_number_qnd(state, 0.7, 2.1)
    oracle = brute_force_number_qnd(state.amplitudes, 0.7, 2.1)
    assert np.max(np.abs(direct.amplitudes - oracle)) < 1e-6
