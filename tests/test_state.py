import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as np_hermite

from helpers import (
    fourier_pair,
    hermite_basis,
    normalized,
    read_number_state_csv,
    read_wavefunction_csv,
    reference_expansions,
    squeezed_tail_mass,
)
from spincat import (
    Basis,
    DegenerateStateError,
    DomainError,
    CapacityError,
    NumberState,
    QuadratureGrid,
    RandomSource,
    ResolutionError,
    choose_truncation,
    grid_for_state,
    mean_occupation,
    quadrature_moment,
    riemann_norm,
    riemann_normalize,
    squeezed_state_exact,
    to_quadrature,
)
from spincat.io import format_coords, write_number_state_csv, write_wavefunction_csv
from spincat import default_cat_grid
from spincat.state import QuadratureWavefunction, _expand, _hermite_rows, effective_max_index


def vacuum(n_max=0):
    amps = np.zeros(n_max + 1)
    amps[0] = 1.0
    return NumberState(amps)


# ---------------------------------------------------------------------------
# oscillator eigenfunctions


def eigenfunction(n, u):
    return hermite_basis(n, [u])[n, 0]


def test_eigenfunction_ground_state_at_origin():
    assert eigenfunction(0, 0.0) == pytest.approx(np.pi ** -0.25, abs=1e-14)


def test_eigenfunction_odd_parity_at_origin():
    assert eigenfunction(1, 0.0) == 0.0


def test_eigenfunction_n2_at_origin():
    # closed form pi^(-1/4) * 8^(-1/2) * H_2(0) with H_2(0) = -2
    expected = -2.0 * np.pi ** -0.25 / np.sqrt(8.0)
    assert eigenfunction(2, 0.0) == pytest.approx(expected, abs=1e-14)


@given(n=st.integers(0, 10), u=st.floats(-5.0, 5.0))
@settings(max_examples=80, deadline=None)
def test_eigenfunction_matches_direct_formula(n, u):
    # small-n oracle: raw Hermite polynomial divided by its normalization
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    from math import factorial
    direct = (np.pi ** -0.25 / np.sqrt(2.0 ** n * factorial(n))
              * np_hermite.hermval(u, coeffs) * np.exp(-u * u / 2.0))
    assert eigenfunction(n, u) == pytest.approx(direct, abs=1e-10)


def test_eigenfunction_budget_and_domain_errors():
    with pytest.raises(DomainError):
        eigenfunction(2001, 0.0)
    with pytest.raises(DomainError):
        eigenfunction(-1, 0.0)
    with pytest.raises(DomainError):
        eigenfunction(3, np.inf)


def test_orthonormality_riemann():
    half = np.sqrt(2.0 * 61.0) + 8.0
    grid = QuadratureGrid(half, 2048)
    basis = hermite_basis(60, grid.points())
    gram = basis @ basis.T * grid.spacing
    assert np.max(np.abs(gram - np.eye(61))) < 1e-8


def test_eigenfunctions_normalized_up_to_n_700():
    """`_hermite_rows` promises integral phi_n**2 = 1 to 1e-9 for n <= 700."""
    grid = QuadratureGrid(50.0, 8192)
    norms = np.array([np.sum(row * row) * grid.spacing
                      for row in _hermite_rows(700, grid.points())])
    assert np.max(np.abs(norms - 1.0)) < 1e-9


# ---------------------------------------------------------------------------
# to_quadrature


def test_vacuum_p_representation_is_gaussian():
    grid = QuadratureGrid(8.0, 512)
    wf = to_quadrature(vacuum(), grid, Basis.P)
    expected = np.pi ** -0.25 * np.exp(-grid.points() ** 2 / 2.0)
    assert np.max(np.abs(wf.values - expected)) < 1e-12


def test_vacuum_x_representation_is_gaussian():
    grid = QuadratureGrid(8.0, 512)
    wf = to_quadrature(vacuum(), grid, Basis.X)
    expected = np.pi ** -0.25 * np.exp(-grid.points() ** 2 / 2.0)
    assert np.max(np.abs(wf.values - expected)) < 1e-8


def test_squeezed_p_representation_against_quadrature_oracle():
    xi2 = 3.0
    n_max = choose_truncation(xi2, 1.0, 0.0, 1e-10)
    state = squeezed_state_exact(xi2, n_max)
    grid = QuadratureGrid(8.0, 1024)
    wf = to_quadrature(state, grid, Basis.P)
    assert riemann_norm(wf) == pytest.approx(1.0, abs=1e-6)

    # oracle: numerical Fourier quadrature of the defining x-space Gaussian;
    # a deeper truncation keeps the far-wing amplitudes pointwise faithful
    deep = to_quadrature(squeezed_state_exact(xi2, 60), grid, Basis.P)
    x = np.linspace(-12.0, 12.0, 8001)
    psi_x = (xi2 / np.pi) ** 0.25 * np.exp(-xi2 * x * x / 2.0)
    kernel = np.exp(1j * np.outer(grid.points(), x))
    oracle = kernel @ psi_x * (x[1] - x[0]) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(deep.values - oracle)) < 1e-6


def test_to_quadrature_rejects_zero_state_and_coarse_grid():
    with pytest.raises(DegenerateStateError):
        to_quadrature(NumberState(np.zeros(4)), QuadratureGrid(8, 64), Basis.P)
    state = squeezed_state_exact(20.0, 230)
    with pytest.raises(ResolutionError):
        to_quadrature(state, QuadratureGrid(8, 8), Basis.P)


def even_states():
    """Even-parity states: squeezed and cat."""
    from spincat import apply_number_qnd

    squeezed = squeezed_state_exact(20.0, choose_truncation(20.0, 1.0, 0.0, 1e-10))
    return squeezed, apply_number_qnd(squeezed, 1.0 / 3.0, 7.0 / 3.0)


def assert_expansions_match_reference(states, grid):
    pairs = [(state, basis) for state in states for basis in (Basis.P, Basis.X)]
    for wf, reference in zip(_expand(pairs, grid), reference_expansions(pairs, grid)):
        assert not reference.imag.any()
        assert wf.values.tobytes() == reference.real.tobytes()


@pytest.mark.parametrize("count", [2048, 2047, 2, 3, 301])
def test_expand_even_states_on_symmetric_grids_bitwise(count):
    """The half-grid path: even states on a bitwise antisymmetric grid."""
    if count > 256:
        grid, states = QuadratureGrid(12.0, count), even_states()
    else:
        grid, states = QuadratureGrid(0.4, count), (vacuum(4), squeezed_state_exact(1.5, 6))
    assert_expansions_match_reference(states, grid)
    for wf in _expand([(state, Basis.X) for state in states], grid):
        assert wf.values.tobytes() == wf.values[::-1].tobytes()


def test_states_and_wavefunctions_are_real():
    grid = QuadratureGrid(1.0, 3)
    for bad in ([1.0, 1e-300j], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(DomainError):
            NumberState(np.array(bad))
        with pytest.raises(DomainError):
            QuadratureWavefunction(grid, np.array(bad + [0.5]), Basis.P)
    # A zero imaginary part, of either sign, is dropped.
    state = NumberState(np.array([complex(0.5, -0.0), 1.0]))
    assert state.amplitudes.dtype == np.float64
    assert state.amplitudes.tolist() == [0.5, 1.0]
    wf = QuadratureWavefunction(grid, np.array([1.0, 2.0, 1.0], dtype=complex), Basis.X)
    assert wf.values.dtype == np.float64


@pytest.mark.parametrize("basis", [Basis.P, Basis.X])
def test_expand_refuses_odd_states_and_asymmetric_grids(basis):
    even = squeezed_state_exact(5.0, 40)
    amps = even.amplitudes.copy()
    amps[39] = 1e-300
    grid = QuadratureGrid(8.0, 64)
    with pytest.raises(DomainError, match="odd n"):
        _expand([(even, basis), (NumberState(amps), basis)], grid)
    with pytest.raises(DomainError, match="odd n"):
        to_quadrature(NumberState([0.0, 1.0]), grid, basis)
    # A grid is symmetric by construction: there is no (min, max) form.
    with pytest.raises(TypeError):
        QuadratureGrid(-8.0, 8.000000000000002, 64)
    # -0.0 at odd n is a zero.
    amps[39] = -0.0
    assert _expand([(NumberState(amps), basis)], grid)[0].values.tobytes() == \
        to_quadrature(even, grid, basis).values.tobytes()


@pytest.mark.parametrize("bad_first", [True, False])
def test_expand_raises_for_any_failing_pair(bad_first):
    grid = QuadratureGrid(8.0, 64)
    good = (squeezed_state_exact(5.0, 40), Basis.X)
    for bad, error in (((NumberState(np.zeros(4)), Basis.P), DegenerateStateError),
                       ((squeezed_state_exact(20.0, 230), Basis.P), ResolutionError)):
        pairs = [bad, good] if bad_first else [good, bad]
        with pytest.raises(error):
            _expand(pairs, grid)
    _expand([good], grid)


# ---------------------------------------------------------------------------
# fourier_pair


def test_fourier_gaussian_self_dual():
    grid = QuadratureGrid(10.0, 1024)
    p = grid.points()
    values = np.pi ** -0.25 * np.exp(-p * p / 2.0)
    assert np.max(np.abs(fourier_pair(values, grid) - values)) < 1e-10


def test_fourier_of_gaussian_pair_gives_envelope_times_cosine():
    # two Gaussians at +-sqrt(14) with exponent beta^2*mu, beta=1/3, mu=7
    mu, beta = 7.0, 1.0 / 3.0
    grid = QuadratureGrid(12.0, 1024)
    p = grid.points()
    s = np.sqrt(2.0 * mu)
    values = np.exp(-(p - s) ** 2 * beta ** 2 * mu) + np.exp(-(p + s) ** 2 * beta ** 2 * mu)
    wf = riemann_normalize(QuadratureWavefunction(grid, values, Basis.P))
    out = normalized(fourier_pair(wf.values, grid), grid.spacing)
    x = grid.points()
    expected = np.exp(-x * x / (4.0 * beta ** 2 * mu)) * np.cos(x * s)
    expected = expected / np.sqrt(np.sum(expected ** 2) * grid.spacing)
    assert np.max(np.abs(out - expected)) < 1e-6


def test_double_fourier_is_parity():
    mu, beta = 7.0, 1.0 / 3.0
    grid = QuadratureGrid(12.0, 1024)
    p = grid.points()
    s = np.sqrt(2.0 * mu)
    asym = np.exp(-(p - s) ** 2 * beta ** 2 * mu) + 0.5 * np.exp(-(p + s) ** 2 * beta ** 2 * mu)
    wf = riemann_normalize(QuadratureWavefunction(grid, asym, Basis.P))
    back = fourier_pair(fourier_pair(wf.values, grid), grid)
    assert np.max(np.abs(back - wf.values[::-1])) < 1e-6


# ---------------------------------------------------------------------------
# truncation policy


def test_choose_truncation_vacuum_floor():
    assert choose_truncation(1.0, 1.0, 0.0, 1e-10) == 2


def test_choose_truncation_reference_case():
    n_max = choose_truncation(20.0, 1.0 / 3.0, 7.0, 1e-10)
    assert n_max % 2 == 0
    assert n_max >= 37
    # the promised tail mass, summed exactly, holds at the returned truncation
    assert squeezed_tail_mass(20.0, n_max) < 1e-10


def test_choose_truncation_cap():
    with pytest.raises(CapacityError) as info:
        choose_truncation(20.0, 1.0 / 3.0, 7.0, 1e-30, cap=16)
    assert info.value.required_n_max > 16


@given(xi2=st.floats(1.0, 215.0), beta=st.floats(0.05, 3.0), mu=st.floats(0.0, 50.0),
       tol_exponent=st.floats(-20.0, -4.0))
@example(xi2=1.0, beta=1.0, mu=0.0, tol_exponent=-20.0)
@example(xi2=1.0001, beta=1.0, mu=0.0, tol_exponent=-4.0)
@example(xi2=215.0, beta=1.0, mu=0.0, tol_exponent=-20.0)
@example(xi2=215.0, beta=1.0, mu=0.0, tol_exponent=-4.0)
@settings(max_examples=40, deadline=None)
def test_choose_truncation_bounds_hold(xi2, beta, mu, tol_exponent):
    """The exact tail mass beyond n_max is below tail_tol for xi2 from 1 to
    215 (the default cap's reach) and tail_tol from 1e-20 to 1e-4."""
    tail_tol = 10.0 ** tol_exponent
    n_max = choose_truncation(xi2, beta, mu, tail_tol, cap=100_000)
    assert n_max % 2 == 0 and n_max >= 2
    if mu > 0:
        assert n_max >= mu + 10.0 / beta - 1.0
    assert squeezed_tail_mass(xi2, n_max) < tail_tol


# ---------------------------------------------------------------------------
# global invariants


@pytest.mark.parametrize("xi2", [1.0, 3.0, 20.0])
def test_parseval(xi2):
    state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0, 1e-10))
    wf = to_quadrature(state, grid_for_state(state), Basis.P)
    assert riemann_norm(wf) == pytest.approx(np.linalg.norm(state.amplitudes), abs=1e-6)


def test_basis_consistency_even_states():
    state = squeezed_state_exact(5.0, choose_truncation(5.0, 1.0, 0.0, 1e-10))
    grid = grid_for_state(state)
    via_x = to_quadrature(state, grid, Basis.X)
    via_ft = fourier_pair(to_quadrature(state, grid, Basis.P).values, grid)
    assert np.max(np.abs(via_x.values - via_ft)) < 1e-6


@given(data=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=32))
@settings(max_examples=20, deadline=None)
def test_oscillator_identity(data):
    from spincat import quadrature_variances

    amps = np.zeros(2 * len(data) - 1)
    amps[::2] = data  # even-parity state
    if np.linalg.norm(amps) < 1e-6:
        amps[0] = 1.0
    state = NumberState(amps / np.linalg.norm(amps))
    dx2, dp2 = quadrature_variances(state)
    assert dx2 / 2.0 + dp2 / 2.0 == pytest.approx(mean_occupation(state) + 0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# grids, randomness, serialization


# Grid sizes as each sizing rule computed them before the rules shared one
# builder, kept as the oracle: two compared count < 1 + X, the third
# count - 1 < X.
SWEEP_RNG = np.random.default_rng(2024)
SWEEP_XI2 = np.concatenate([np.linspace(1.0, 215.0, 321), SWEEP_RNG.uniform(1.0, 215.0, 100)])
SWEEP_MU = np.concatenate([[1e-12, 1e-3], np.linspace(0.05, 500.0, 1000),
                           SWEEP_RNG.uniform(0.0, 500.0, 500)])


def _doubled(count, keep_doubling):
    while keep_doubling(count):
        count *= 2
    return count


def oracle_grid_for_state(state):
    k_max = np.sqrt(2.0 * effective_max_index(state) + 1.0)
    half = k_max + 8.0
    period = 2.0 * np.pi / k_max
    return half, max(_doubled(2, lambda c: c < 1.0 + 2.0 * half / (period / 16)), 256)


def oracle_default_cat_grid(mu, n_eff):
    half = np.sqrt(2.0 * mu) + 8.0
    period = 2.0 * np.pi / np.sqrt(2.0 * mu)
    spacing = min(period / 16.0, np.pi / np.sqrt(2.0 * n_eff + 1.0))
    return half, _doubled(2, lambda c: c < 1.0 + 2.0 * half / spacing)


def swept_squeezed_states():
    for xi2 in SWEEP_XI2:
        yield squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0, 1e-10))


def test_grid_sizes_match_the_former_formulas():
    for state in swept_squeezed_states():
        grid = grid_for_state(state)
        assert (grid.half_width, grid.count) == oracle_grid_for_state(state)
    for mu in SWEEP_MU:
        for n_eff in (0, 7, 40, 230, 1000, 4096):
            grid = default_cat_grid(mu, n_eff)
            assert (grid.half_width, grid.count) == oracle_default_cat_grid(mu, n_eff)


def test_grid_points_are_antisymmetric():
    grid = QuadratureGrid(7.0, 258)
    pts = grid.points()
    assert np.array_equal(pts, -pts[::-1])


@given(half_width=st.one_of(st.floats(5e-324, 2.2250738585072014e-308),
                           st.floats(2.2250738585072014e-308, 1e300)),
       count=st.integers(2, 5000))
@settings(max_examples=200, deadline=None)
def test_grid_points_are_bitwise_antisymmetric(half_width, count):
    """At normal and subnormal spacings alike: the points mirror bit for
    bit off the middle, the middle of an odd count is +0.0, and the
    mirrored coordinate text is that of formatting every point."""
    grid = QuadratureGrid(half_width, count)
    pts = grid.points()
    half = count // 2
    assert (-pts[:half]).tobytes() == pts[::-1][:half].tobytes()
    if count % 2:
        assert pts[half] == 0.0 and not np.signbit(pts[half])
    assert format_coords(grid) == ["%.17g" % x for x in pts]


def test_grid_validation():
    for half_width in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            QuadratureGrid(half_width, 16)
    with pytest.raises(DomainError):
        QuadratureGrid(1.0, 1)


def test_random_source_reproducible():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.normal() for _ in range(5)] == [b.normal() for _ in range(5)]
    c = RandomSource.for_trajectory(42, 3)
    d = RandomSource.for_trajectory(42, 3)
    e = RandomSource.for_trajectory(42, 4)
    assert c.normal() == d.normal() != e.normal()


def test_number_state_csv_round_trip(tmp_path):
    state = squeezed_state_exact(5.0, 24)
    path = tmp_path / "state.csv"
    write_number_state_csv(state, str(path))
    again = read_number_state_csv(str(path))
    assert path.read_text().splitlines()[0] == "n,re,im"
    assert np.array_equal(again.amplitudes, state.amplitudes)


def test_wavefunction_csv_round_trip(tmp_path):
    grid = QuadratureGrid(6.0, 128)
    wf = to_quadrature(vacuum(), grid, Basis.P)
    path = tmp_path / "wf.csv"
    write_wavefunction_csv(wf, str(path))
    coords, values = read_wavefunction_csv(str(path))
    assert path.read_text().splitlines()[0] == "coord,re,im,abs2"
    assert np.array_equal(coords, grid.points())
    assert np.array_equal(values, wf.values)


def test_quadrature_moment_of_vacuum():
    grid = QuadratureGrid(8.0, 1024)
    wf = to_quadrature(vacuum(), grid, Basis.P)
    assert quadrature_moment(wf) == pytest.approx(0.5, abs=1e-8)
