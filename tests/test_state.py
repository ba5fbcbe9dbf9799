import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import hermite as np_hermite

from helpers import (
    GeneralGrid,
    GeneralState,
    complex_bits,
    fourier_pair,
    general_expand,
    general_to_quadrature,
    hermite_basis,
    is_symmetric,
    norm,
    normalize,
    normalized,
    read_number_state_csv,
    read_wavefunction_csv,
    reference_expansion,
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
from spincat.state import QuadratureWavefunction, _expand, effective_max_index


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


def test_expand_matches_reference_sums_bitwise():
    # The general copy of the expansion: real coefficients (squeezed, cat,
    # vacuum) take the real accumulation, a complex state and the x basis
    # of a real state with odd components the complex one; n_eff differs
    # from pair to pair.
    from spincat import apply_number_qnd

    rng = np.random.default_rng(11)
    squeezed = squeezed_state_exact(20.0, choose_truncation(20.0, 1.0, 0.0, 1e-10))
    cat = apply_number_qnd(squeezed, 1.0 / 3.0, 7.0 / 3.0)
    mixed = normalize(GeneralState(rng.normal(size=24) + 1j * rng.normal(size=24)))
    odd_real = normalize(GeneralState(rng.normal(size=9)))
    states = (squeezed, mixed, cat, odd_real, vacuum())
    grid = grid_for_state(squeezed)
    pairs = [(state, basis) for state in states for basis in (Basis.X, Basis.P)]
    wavefunctions = general_expand(pairs, grid)
    assert len(wavefunctions) == len(pairs)
    for (state, basis), wf in zip(pairs, wavefunctions):
        assert wf.basis is basis and wf.grid == grid
        single = general_to_quadrature(state, grid, basis).values
        assert wf.values.tobytes() == single.tobytes()
        assert wf.values.tobytes() == reference_expansion(state, grid, basis).tobytes()


def even_states():
    """Even-parity states: squeezed, cat, and a complex one with mixed signs."""
    from spincat import apply_number_qnd

    squeezed = squeezed_state_exact(20.0, choose_truncation(20.0, 1.0, 0.0, 1e-10))
    rng = np.random.default_rng(5)
    mixed = np.zeros(31, dtype=complex)
    mixed[::2] = rng.normal(size=16) + 1j * rng.normal(size=16)
    return squeezed, apply_number_qnd(squeezed, 1.0 / 3.0, 7.0 / 3.0), GeneralState(mixed)


def assert_expansions_match_reference(states, grid, expand):
    pairs = [(state, basis) for state in states for basis in (Basis.P, Basis.X)]
    for (state, basis), wf in zip(pairs, expand(pairs, grid)):
        assert complex_bits(wf.values) == reference_expansion(state, grid, basis).tobytes()


@pytest.mark.parametrize("count", [2048, 2047, 2, 3, 301])
def test_expand_even_states_on_symmetric_grids_bitwise(count):
    """The half-grid path: even states on a bitwise antisymmetric grid; the
    complex one through the general copy."""
    if count > 256:
        grid = QuadratureGrid(12.0, count)
        squeezed, cat, mixed = even_states()
        groups = (((squeezed, cat), _expand), ((mixed,), general_expand))
    else:
        grid = QuadratureGrid(0.4, count)
        groups = (((vacuum(4), squeezed_state_exact(1.5, 6)), _expand),)
    for states, expand in groups:
        assert_expansions_match_reference(states, grid, expand)
        for wf in expand([(state, Basis.X) for state in states], grid):
            assert wf.values.tobytes() == wf.values[::-1].tobytes()


@pytest.mark.parametrize("count", [2048, 2047])
def test_expand_with_one_odd_coefficient_bitwise(count):
    """In the general copy, one nonzero odd coefficient in any pair sends
    every pair down the full-grid path."""
    squeezed, cat, _ = even_states()
    amps = squeezed.amplitudes.copy()
    amps[37] = 1e-3
    grid = QuadratureGrid(12.0, count)
    assert_expansions_match_reference((cat, GeneralState(amps)), grid, general_expand)
    odd = general_expand([(GeneralState(amps), Basis.P)], grid)[0].values
    assert odd.tobytes() != odd[::-1].tobytes()


@pytest.mark.parametrize("grid", [GeneralGrid(-11.0, 12.0, 2048),
                                  GeneralGrid(-12.0, 12.000000000001, 2047),
                                  GeneralGrid(0.5, 12.0, 1024)])
def test_expand_even_states_on_asymmetric_grids_bitwise(grid):
    """The general copy's full-grid path."""
    assert_expansions_match_reference(even_states(), grid, general_expand)


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
    wf = QuadratureWavefunction(grid, values.astype(complex), Basis.P)
    out = fourier_pair(wf)
    assert out.basis is Basis.X
    assert np.max(np.abs(out.values - values)) < 1e-10


def test_fourier_of_gaussian_pair_gives_envelope_times_cosine():
    # two Gaussians at +-sqrt(14) with exponent beta^2*mu, beta=1/3, mu=7
    mu, beta = 7.0, 1.0 / 3.0
    grid = QuadratureGrid(12.0, 1024)
    p = grid.points()
    s = np.sqrt(2.0 * mu)
    values = np.exp(-(p - s) ** 2 * beta ** 2 * mu) + np.exp(-(p + s) ** 2 * beta ** 2 * mu)
    wf = riemann_normalize(QuadratureWavefunction(grid, values.astype(complex), Basis.P))
    out = normalized(fourier_pair(wf))
    x = grid.points()
    expected = np.exp(-x * x / (4.0 * beta ** 2 * mu)) * np.cos(x * s)
    expected = expected / np.sqrt(np.sum(expected ** 2) * grid.spacing)
    assert np.max(np.abs(out.values - expected)) < 1e-6


def test_double_fourier_is_parity():
    mu, beta = 7.0, 1.0 / 3.0
    grid = QuadratureGrid(12.0, 1024)
    p = grid.points()
    s = np.sqrt(2.0 * mu)
    asym = np.exp(-(p - s) ** 2 * beta ** 2 * mu) + 0.5 * np.exp(-(p + s) ** 2 * beta ** 2 * mu)
    wf = riemann_normalize(QuadratureWavefunction(grid, asym.astype(complex), Basis.P))
    back = fourier_pair(fourier_pair(wf))
    assert np.max(np.abs(back.values - wf.values[::-1])) < 1e-6


def test_fourier_requires_symmetric_grid():
    grid = GeneralGrid(-4.0, 8.0, 256)
    wf = QuadratureWavefunction(grid, np.exp(-grid.points() ** 2).astype(complex), Basis.P)
    with pytest.raises(DomainError):
        fourier_pair(wf)


# ---------------------------------------------------------------------------
# norm / normalize (the helpers' copies)


def test_norm_of_truncated_squeezed_state():
    state = squeezed_state_exact(20.0, 256)
    assert np.isfinite(norm(state))
    assert norm(normalize(NumberState(3.0 * state.amplitudes))) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# truncation policy


def test_choose_truncation_vacuum_floor():
    assert choose_truncation(1.0, 1.0, 0.0, 1e-10) == 2


def test_choose_truncation_reference_case():
    n_max = choose_truncation(20.0, 1.0 / 3.0, 7.0, 1e-10)
    assert n_max % 2 == 0
    assert n_max >= 37
    # geometric tail bound must actually hold at the returned truncation
    q = (19.0 / 21.0) ** 2
    assert q ** (n_max // 2 + 1) < 1e-10


def test_choose_truncation_cap():
    with pytest.raises(CapacityError) as info:
        choose_truncation(20.0, 1.0 / 3.0, 7.0, 1e-30, cap=16)
    assert info.value.required_n_max > 16


@given(xi2=st.floats(1.0, 80.0), beta=st.floats(0.05, 3.0), mu=st.floats(0.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_choose_truncation_bounds_hold(xi2, beta, mu):
    n_max = choose_truncation(xi2, beta, mu, 1e-10, cap=100_000)
    assert n_max % 2 == 0 and n_max >= 2
    if mu > 0:
        assert n_max >= mu + 10.0 / beta - 1.0
    q = ((xi2 - 1.0) / (xi2 + 1.0)) ** 2
    if q > 0:
        assert q ** (n_max // 2 + 1) < 1e-10


# ---------------------------------------------------------------------------
# global invariants


@pytest.mark.parametrize("xi2", [1.0, 3.0, 20.0])
def test_parseval(xi2):
    state = squeezed_state_exact(xi2, choose_truncation(xi2, 1.0, 0.0, 1e-10))
    wf = to_quadrature(state, grid_for_state(state), Basis.P)
    assert riemann_norm(wf) == pytest.approx(norm(state), abs=1e-6)


def test_basis_consistency_even_states():
    state = squeezed_state_exact(5.0, choose_truncation(5.0, 1.0, 0.0, 1e-10))
    grid = grid_for_state(state)
    via_x = to_quadrature(state, grid, Basis.X)
    via_ft = fourier_pair(to_quadrature(state, grid, Basis.P))
    assert np.max(np.abs(via_x.values - via_ft.values)) < 1e-6


def test_basis_consistency_odd_components():
    # Odd n is where i**n and (-i)**n differ, so this pins the phase of
    # the x expansion against the transform it stands for.
    rng = np.random.default_rng(7)
    amps = rng.normal(size=24) + 1j * rng.normal(size=24)
    state = normalize(GeneralState(amps))
    grid = grid_for_state(state)
    via_x = general_to_quadrature(state, grid, Basis.X)
    via_ft = fourier_pair(general_to_quadrature(state, grid, Basis.P))
    assert np.max(np.abs(via_x.values - via_ft.values)) < 1e-10


@given(data=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=32))
@settings(max_examples=20, deadline=None)
def test_oscillator_identity(data):
    from spincat import quadrature_variances

    amps = np.zeros(2 * len(data) - 1)
    amps[::2] = data  # even-parity state
    if np.linalg.norm(amps) < 1e-6:
        amps[0] = 1.0
    state = normalize(NumberState(amps))
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
    assert is_symmetric(grid)
    assert not is_symmetric(GeneralGrid(-1.0, 2.0, 16))


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
