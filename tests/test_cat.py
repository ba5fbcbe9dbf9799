import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from helpers import fourier_pair, hermite_basis, normalized
from spincat import (
    Basis,
    CatApproxParams,
    DegenerateStateError,
    DomainError,
    NoCatError,
    NoFringeError,
    NumberState,
    QuadratureGrid,
    ResolutionError,
    approx_p_wavefunction,
    approx_x_wavefunction,
    apply_number_qnd,
    check_cat_conditions,
    choose_truncation,
    compute_cat_metrics,
    default_cat_grid,
    detect_peaks,
    fringe_metrics,
    mu_of_outcome,
    overlap,
    quadrature_moment,
    riemann_norm,
    riemann_normalize,
    squeezed_state_exact,
    to_quadrature,
)
from spincat.cat import _local_maxima
from spincat.state import QuadratureWavefunction

BETA = 1.0 / 3.0
FIG_PARAMS = CatApproxParams(mu=7.0, beta=BETA)


def vacuum_wavefunction(basis=Basis.P, count=512):
    grid = QuadratureGrid(8.0, count)
    return to_quadrature(NumberState(np.array([1.0])), grid, basis)


def exact_fig_state_and_mu():
    mu_exact, _ = mu_of_outcome(7.0 * BETA, BETA, 20.0)
    n_max = choose_truncation(20.0, BETA, 7.0, 1e-10)
    squeezed = squeezed_state_exact(20.0, n_max)
    return apply_number_qnd(squeezed, BETA, 7.0 * BETA), mu_exact


# ---------------------------------------------------------------------------
# analytic approximations


def test_approx_p_peak_locations_and_width():
    grid = default_cat_grid(7.0)
    wf = approx_p_wavefunction(FIG_PARAMS, grid)
    positions, widths = detect_peaks(wf)
    target = np.sqrt(14.0)
    assert len(positions) == 2
    assert positions[0] == pytest.approx(-target, abs=1e-3)
    assert positions[1] == pytest.approx(target, abs=1e-3)
    # lobe sigma 1/(beta*sqrt(2 mu)) from the Gaussian exponent
    sigma = 1.0 / (BETA * np.sqrt(14.0))
    assert sigma == pytest.approx(0.8018, abs=1e-4)
    for width in widths:
        assert width == pytest.approx(sigma, abs=1e-4)


def test_approx_p_is_machine_symmetric():
    grid = default_cat_grid(7.0)
    wf = approx_p_wavefunction(FIG_PARAMS, grid)
    assert np.array_equal(wf.values, wf.values[::-1])


def test_approx_p_rejects_non_positive_mu():
    with pytest.raises(NoCatError):
        approx_p_wavefunction(CatApproxParams(mu=-1.0, beta=BETA), default_cat_grid(7.0))


def test_approx_x_fringe_period_and_envelope():
    grid = default_cat_grid(7.0)
    wf = approx_x_wavefunction(FIG_PARAMS, grid)
    period, visibility = fringe_metrics(wf)
    assert period == pytest.approx(2.0 * np.pi / np.sqrt(14.0), rel=0.02)
    assert visibility > 0.99
    envelope_std = np.sqrt(2.0 * quadrature_moment(wf))
    assert envelope_std == pytest.approx(np.sqrt(2.0) * BETA * np.sqrt(7.0), rel=0.01)
    assert envelope_std == pytest.approx(1.2472, abs=2e-2)


def test_approx_x_requires_resolved_fringes():
    with pytest.raises(ResolutionError):
        approx_x_wavefunction(FIG_PARAMS, QuadratureGrid(12.0, 32))


def test_approx_consistency_under_fourier():
    grid = default_cat_grid(7.0)
    via_ft = normalized(fourier_pair(approx_p_wavefunction(FIG_PARAMS, grid).values, grid),
                        grid.spacing)
    direct = approx_x_wavefunction(FIG_PARAMS, grid)
    assert np.max(np.abs(via_ft - direct.values)) < 1e-4


# ---------------------------------------------------------------------------
# detectors


def test_detect_peaks_on_exact_state():
    cat, mu_exact = exact_fig_state_and_mu()
    wf = riemann_normalize(to_quadrature(cat, default_cat_grid(mu_exact), Basis.P))
    positions, _ = detect_peaks(wf)
    target = np.sqrt(2.0 * mu_exact)
    assert len(positions) == 2
    assert positions[0] == pytest.approx(-target, rel=0.05)
    assert positions[1] == pytest.approx(target, rel=0.05)


def test_detect_peaks_vacuum():
    wf = vacuum_wavefunction()
    positions, widths = detect_peaks(wf)
    assert len(positions) == 1
    assert abs(positions[0]) < wf.grid.spacing
    # the vacuum lobe has unit amplitude-sigma
    assert widths[0] == pytest.approx(1.0, rel=0.01)


def test_detect_peaks_requires_p_basis_and_structure():
    with pytest.raises(DomainError):
        detect_peaks(vacuum_wavefunction(basis=Basis.X))
    # monotone ramp has no interior maximum
    grid = QuadratureGrid(8.0, 256)
    values = np.exp(-(grid.points() - 12.0) ** 2 / 8.0).astype(complex)
    ramp = riemann_normalize(QuadratureWavefunction(grid, values, Basis.P))
    with pytest.raises(DegenerateStateError):
        detect_peaks(ramp)


PLATEAUS = st.lists(st.integers(0, 3), max_size=60).map(lambda v: np.array(v, dtype=float))
NOISE = st.lists(st.floats(-1e3, 1e3), max_size=60).map(lambda v: np.array(v, dtype=float))


@given(y=st.one_of(PLATEAUS, NOISE),
       level=st.none() | st.integers(0, 59) | st.floats(0.0, 1.0))
@settings(max_examples=400, deadline=None)
def test_local_maxima_matches_find_peaks(y, level):
    # An integer level takes the height from a sample, so ties with a peak
    # occur; a float one is a fraction of the maximum, as in detect_peaks.
    if level is None or y.size == 0:
        expected, got = find_peaks(y)[0], _local_maxima(y)
    else:
        height = y[level % y.size] if isinstance(level, int) else level * y.max()
        expected, got = find_peaks(y, height=height)[0], _local_maxima(y, height)
    assert np.array_equal(got, expected)


def test_fringe_metrics_on_exact_state():
    cat, mu_exact = exact_fig_state_and_mu()
    wf = riemann_normalize(to_quadrature(cat, default_cat_grid(mu_exact), Basis.X))
    period, visibility = fringe_metrics(wf)
    assert period == pytest.approx(2.0 * np.pi / np.sqrt(2.0 * mu_exact), rel=0.05)
    assert 0.0 <= visibility <= 1.0


def test_fringe_metrics_vacuum_has_no_fringes():
    with pytest.raises(NoFringeError):
        fringe_metrics(vacuum_wavefunction(basis=Basis.X))
    with pytest.raises(DomainError):
        fringe_metrics(vacuum_wavefunction(basis=Basis.P))


# ---------------------------------------------------------------------------
# observability conditions


def test_check_cat_conditions_reference_points():
    assert check_cat_conditions(7.0, BETA, 20.0) == (True, True, True)
    assert check_cat_conditions(2.0, BETA, 20.0) == (False, True, True)
    assert check_cat_conditions(25.0, BETA, 20.0) == (True, False, True)
    with pytest.raises(DomainError):
        check_cat_conditions(7.0, 0.0, 20.0)


def test_check_cat_conditions_boundaries_non_strict():
    beta, xi2 = 0.5, 8.0
    assert check_cat_conditions(1.0 / beta, beta, xi2)[0] is True
    assert check_cat_conditions(xi2, beta, xi2)[1] is True


# ---------------------------------------------------------------------------
# overlap


def test_overlap_self_and_orthogonal():
    wf = vacuum_wavefunction()
    assert overlap(wf, wf) == pytest.approx(1.0, abs=1e-10)
    grid = wf.grid
    # phi_1 is odd, which the expansion refuses: take it from the table.
    excited = QuadratureWavefunction(grid, hermite_basis(1, grid.points())[1], Basis.P)
    assert overlap(wf, excited) < 1e-8


def test_overlap_requires_matching_layout():
    a = vacuum_wavefunction(count=512)
    b = vacuum_wavefunction(count=256)
    with pytest.raises(DomainError):
        overlap(a, b)
    c = vacuum_wavefunction(basis=Basis.X, count=512)
    with pytest.raises(DomainError):
        overlap(a, c)


def test_overlap_exact_cat_with_approximation():
    cat, mu_exact = exact_fig_state_and_mu()
    grid = default_cat_grid(mu_exact)
    exact_p = riemann_normalize(to_quadrature(cat, grid, Basis.P))
    approx_p = approx_p_wavefunction(CatApproxParams(mu=mu_exact, beta=BETA), grid)
    value = overlap(exact_p, approx_p)
    assert value >= 0.95
    # frozen regression of the first computation
    assert value == pytest.approx(0.99316, abs=1e-4)


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("mu", [3.0, 5.0, 7.0, 10.0])
def test_peak_fringe_duality(mu):
    params = CatApproxParams(mu=mu, beta=BETA)
    grid = default_cat_grid(mu)
    positions, _ = detect_peaks(approx_p_wavefunction(params, grid))
    period, _ = fringe_metrics(approx_x_wavefunction(params, grid))
    separation = positions[1] - positions[0]
    assert period * separation == pytest.approx(4.0 * np.pi, rel=0.02)


def test_threshold_coincidence_ratio():
    # at mu = 1/beta the analytic separation/(2 width) ratio equals 2 and
    # the numeric detector must agree within 10%
    mu = 1.0 / BETA
    params = CatApproxParams(mu=mu, beta=BETA)
    wf = approx_p_wavefunction(params, default_cat_grid(mu))
    positions, widths = detect_peaks(wf)
    assert len(positions) == 2
    ratio = (positions[1] - positions[0]) / (widths[0] + widths[1])
    assert ratio == pytest.approx(2.0 * BETA * mu, rel=0.10)


@pytest.mark.parametrize("mu", [2.0, 7.0, 15.0])
def test_emitted_wavefunctions_are_normalized(mu):
    params = CatApproxParams(mu=mu, beta=BETA)
    grid = default_cat_grid(mu)
    for wf in (approx_p_wavefunction(params, grid), approx_x_wavefunction(params, grid)):
        assert riemann_norm(wf) == pytest.approx(1.0, abs=1e-6)


def test_compute_cat_metrics_full_and_degenerate():
    cat, mu_exact = exact_fig_state_and_mu()
    grid = default_cat_grid(mu_exact)
    p_wf = riemann_normalize(to_quadrature(cat, grid, Basis.P))
    x_wf = riemann_normalize(to_quadrature(cat, grid, Basis.X))
    metrics = compute_cat_metrics(p_wf, x_wf, mu_exact, BETA, 20.0)
    assert metrics.resolvable and metrics.reachable
    assert metrics.peak_positions is not None
    assert metrics.peak_separation == pytest.approx(
        2.0 * np.sqrt(2.0 * mu_exact), rel=0.05)
    assert metrics.fringe_period == pytest.approx(
        2.0 * np.pi / np.sqrt(2.0 * mu_exact), rel=0.05)

    plain = vacuum_wavefunction()
    plain_x = vacuum_wavefunction(basis=Basis.X)
    degraded = compute_cat_metrics(plain, plain_x, 0.1, BETA, 20.0)
    assert degraded.peak_positions is None
    assert degraded.fringe_period is None
    assert degraded.resolvable is False
