"""Shared test oracles, independent of the library's implementation paths."""

from decimal import Decimal, localcontext
from math import comb

import numpy as np
from scipy.stats import norm as normal_dist

from spincat.protocol import quadrature_variances
from spincat.state import (
    Basis,
    NumberState,
    QuadratureGrid,
    _hermite_rows,
    _symmetric_grid,
    _turning_point,
    effective_max_index,
    grid_for_state,
    quadrature_moment,
    to_quadrature,
)


def normalized(values: np.ndarray, spacing: float) -> np.ndarray:
    """Grid values divided by their Riemann norm sqrt(sum |v|^2 * spacing)."""
    return values / np.sqrt(np.sum(np.abs(values) ** 2) * spacing)


def general_apply_number_qnd(amplitudes: np.ndarray, beta: float, p_R: float) -> np.ndarray:
    """spincat.protocol.apply_number_qnd on a plain array: amplitudes times
    exp(-(beta*n - p_R)**2/2) relative to the largest weight, divided by
    their norm (no improbable-outcome check)."""
    n = np.arange(amplitudes.size)
    expo = -0.5 * (beta * n - p_R) ** 2
    scaled = amplitudes * np.exp(expo - expo.max())
    return scaled / np.linalg.norm(scaled)


def midpoint_grid(half: float, count: int) -> tuple[np.ndarray, float]:
    spacing = 2.0 * half / (count - 1)
    pts = (np.arange(count) - 0.5 * (count - 1)) * spacing
    return pts, spacing


def brute_force_number_qnd(amplitudes: np.ndarray, beta: float, p_r: float,
                           count: int = 4096, half: float = 10.0) -> np.ndarray:
    """Joint atom-light construction of the second QND step.

    The light mode starts in its ground-state Gaussian on an x grid, the
    unitary exp(-i beta n x) is applied, the light is rotated to the p
    basis by the continuous Fourier kernel exp(i p x)/sqrt(2 pi), and the
    atom amplitudes are read off at the measured p value and normalized.
    """
    x, spacing = midpoint_grid(half, count)
    light = np.pi ** -0.25 * np.exp(-x * x / 2.0)
    n = np.arange(len(amplitudes))
    joint = amplitudes[:, None] * light[None, :]
    joint = joint * np.exp(-1j * beta * n[:, None] * x[None, :])
    projected = joint @ np.exp(1j * p_r * x) * spacing / np.sqrt(2.0 * np.pi)
    return projected / np.linalg.norm(projected)


def mixture_bin_masses(state_amplitudes: np.ndarray, beta: float,
                       edges: np.ndarray) -> np.ndarray:
    """Exact probability of each bin under the second-outcome mixture."""
    weights = np.abs(state_amplitudes) ** 2
    weights = weights / weights.sum()
    means = beta * np.arange(weights.size)
    sigma = np.sqrt(0.5)
    cdf = normal_dist.cdf((edges[:, None] - means) / sigma) @ weights
    return np.diff(cdf)


def chi_square_vs_mixture(draws: np.ndarray, state_amplitudes: np.ndarray,
                          beta: float, interior_edges: np.ndarray,
                          min_expected: float = 5.0) -> tuple[float, int]:
    """(statistic, dof) of a chi-square goodness-of-fit test with open
    tail bins; bins with expectation below `min_expected` are merged into
    their right neighbor."""
    edges = np.concatenate(([-np.inf], interior_edges, [np.inf]))
    expected = mixture_bin_masses(state_amplitudes, beta, edges) * draws.size
    observed = np.histogram(draws, bins=edges)[0].astype(float)

    merged_exp, merged_obs = [], []
    acc_e = acc_o = 0.0
    for e, o in zip(expected, observed):
        acc_e += e
        acc_o += o
        if acc_e >= min_expected:
            merged_exp.append(acc_e)
            merged_obs.append(acc_o)
            acc_e = acc_o = 0.0
    if acc_e > 0 and merged_exp:
        merged_exp[-1] += acc_e
        merged_obs[-1] += acc_o
    merged_exp = np.array(merged_exp)
    merged_obs = np.array(merged_obs)
    stat = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    return stat, merged_exp.size - 1


# ---------------------------------------------------------------------------
# eigenfunction table and the discretized Fourier transform: the direct
# constructions that the library's one recurrence sum replaces


def hermite_basis(n_max: int, u: np.ndarray) -> np.ndarray:
    """Matrix phi[n, k] = phi_n(u_k) for n = 0 .. n_max."""
    return np.stack(list(_hermite_rows(n_max, np.asarray(u, dtype=float))))


def fourier_pair(values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Complex values of the conjugate-basis wavefunction on the same grid:
    the discretized continuous Fourier transform
    out[k] = spacing/sqrt(2 pi) * sum_j values[j] * exp(i * u_k * u_j),
    evaluated in row chunks to bound the kernel memory.  Both directions
    use this kernel, so applying it twice returns the parity-reflected
    input."""
    pts = grid.points()
    out = np.empty(pts.size, dtype=complex)
    scale = grid.spacing / np.sqrt(2.0 * np.pi)
    chunk = max(1, int(4e6 // pts.size))
    for start in range(0, pts.size, chunk):
        kernel = np.exp(1j * np.outer(pts[start:start + chunk], pts))
        out[start:start + chunk] = kernel @ values * scale
    return out


# ---------------------------------------------------------------------------
# quadrature second moments: on grids, as the library once computed them,
# and from the Fock identities in long double


def riemann_quadrature_variances(state) -> tuple[float, float]:
    """(Delta x^2, Delta p^2) about the origin as Riemann second moments of
    the expanded quadrature densities: p on `grid_for_state`, x on a grid
    of about 8 sigma_x, where the Fock <x^2> sizes the grid only."""
    p_wf = to_quadrature(state, grid_for_state(state), Basis.P)
    dp2 = quadrature_moment(p_wf)

    x2_est, _ = quadrature_variances(state)
    k_max = _turning_point(effective_max_index(state))
    sigma_x = np.sqrt(max(x2_est, 1e-6))
    x_grid = _symmetric_grid(min(8.0 * sigma_x + 2.0, k_max + 8.0),
                             min(np.pi / (8.0 * k_max), sigma_x / 8.0))
    x_wf = to_quadrature(state, x_grid, Basis.X)
    dx2 = quadrature_moment(x_wf)
    return dx2, dp2


def longdouble_quadrature_variances(state) -> tuple[float, float]:
    """The Fock identities <x^2>, <p^2> = <n> + 1/2 -+ Re<a^2>, summed in
    np.longdouble."""
    a = state.amplitudes.astype(np.clongdouble)
    a = a / np.sqrt(np.sum(np.abs(a) ** 2))
    n = np.arange(a.size, dtype=np.longdouble)
    mean_n = np.sum(n * np.abs(a) ** 2)
    k = n[:-2]
    re_a2 = np.real(np.sum(np.conj(a[:-2]) * a[2:] * np.sqrt((k + 1) * (k + 2))))
    return mean_n + 0.5 - re_a2, mean_n + 0.5 + re_a2


# ---------------------------------------------------------------------------
# the squeezed-state tail mass, summed exactly


def squeezed_tail_mass(xi2: float, n_max: int, digits: int = 50) -> Decimal:
    """Mass of the untruncated squeezed vacuum beyond n_max,
    sqrt(1-q) * sum_{m > n_max/2} C(2m, m) (q/4)**m with
    q = ((xi2-1)/(xi2+1))**2, in `digits`-digit decimal arithmetic from the
    exact binary value of xi2.  Terms shrink by q(2m+1)/(2m+2) < q, so the
    terms from t on add up to less than t/(1-q); the sum stops once that is
    below 1e-30 of the total."""
    with localcontext() as ctx:
        ctx.prec = digits
        x = Decimal(xi2)
        q = ((x - 1) / (x + 1)) ** 2
        m = n_max // 2 + 1
        term = Decimal(comb(2 * m, m)) * (q / 4) ** m
        total = Decimal(0)
        while term > total * (1 - q) * Decimal("1e-30"):
            total += term
            term *= q * (2 * m + 1) / (2 * m + 2)
            m += 1
        return (1 - q).sqrt() * total


# ---------------------------------------------------------------------------
# reference expansion and writers: one value at a time, in numpy scalars


def reference_expansions(pairs, grid) -> list[np.ndarray]:
    """For each (state, basis) pair, sum_n c_n phi_n(u) with c_n = a_n (P)
    or a_n i**n (X) for n up to the state's n_eff, accumulated one complex
    term at a time on every grid point.  The pairs share one pass of the
    eigenfunction rows, which changes no sum."""
    sums = []
    for state, basis in pairs:
        n_eff = effective_max_index(state)
        coeffs = state.amplitudes[:n_eff + 1]
        if Basis(basis) is Basis.X:
            coeffs = coeffs * np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(n_eff + 1) % 4]
        sums.append((coeffs, np.zeros(grid.count, dtype=complex)))
    n_top = max(coeffs.size for coeffs, _ in sums) - 1
    for n, row in enumerate(_hermite_rows(n_top, grid.points())):
        for coeffs, values in sums:
            if n < coeffs.size and coeffs[n] != 0.0:
                values += coeffs[n] * row
    return [values for _, values in sums]


def _fmt(x) -> str:
    return f"{x:.17g}"


def reference_number_state_csv(state) -> str:
    lines = ["n,re,im"]
    for n, amp in enumerate(state.amplitudes):
        lines.append(f"{n},{_fmt(amp.real)},{_fmt(amp.imag)}")
    return "\n".join(lines) + "\n"


def reference_wavefunction_csv(wf) -> str:
    lines = ["coord,re,im,abs2"]
    for coord, val in zip(wf.grid.points(), wf.values):
        lines.append(
            f"{_fmt(coord)},{_fmt(val.real)},{_fmt(val.imag)},{_fmt(abs(val) ** 2)}"
        )
    return "\n".join(lines) + "\n"


def reference_histogram_csv(edges, counts) -> str:
    lines = ["bin_left,bin_right,count"]
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{_fmt(left)},{_fmt(right)},{int(count)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV readers, for round trips through the library's writers


def read_number_state_csv(path: str) -> NumberState:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return NumberState(data[:, 1] + 1j * data[:, 2])


def read_wavefunction_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(coords, complex values); grid and basis metadata are not stored."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1] + 1j * data[:, 2]
