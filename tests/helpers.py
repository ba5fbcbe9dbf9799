"""Shared test oracles, independent of the library's implementation paths."""

import numpy as np
from scipy.stats import norm as normal_dist

from spincat.errors import DomainError
from spincat.state import Basis, QuadratureWavefunction, _hermite_rows, effective_max_index


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


def _continuous_ft(values: np.ndarray, pts_in: np.ndarray, spacing: float,
                   pts_out: np.ndarray) -> np.ndarray:
    """Discretized continuous Fourier transform
    out[k] = spacing/sqrt(2 pi) * sum_j values[j] * exp(i * out_k * in_j),
    evaluated in row chunks to bound the kernel memory."""
    out = np.empty(pts_out.size, dtype=complex)
    scale = spacing / np.sqrt(2.0 * np.pi)
    chunk = max(1, int(4e6 // max(pts_in.size, 1)))
    for start in range(0, pts_out.size, chunk):
        block = pts_out[start:start + chunk]
        kernel = np.exp(1j * np.outer(block, pts_in))
        out[start:start + chunk] = kernel @ values * scale
    return out


def fourier_pair(wf: QuadratureWavefunction) -> QuadratureWavefunction:
    """Conjugate-basis wavefunction on the same (symmetric) grid.

    Both directions use the kernel exp(i*u*v)/sqrt(2 pi), so applying the
    transform twice returns the parity-reflected input.
    """
    if not wf.grid.is_symmetric():
        raise DomainError(
            f"fourier_pair requires a grid symmetric about 0, got "
            f"[{wf.grid.min}, {wf.grid.max}]"
        )
    pts = wf.grid.points()
    values = _continuous_ft(wf.values, pts, wf.grid.spacing, pts)
    flipped = Basis.X if wf.basis is Basis.P else Basis.P
    return QuadratureWavefunction(wf.grid, values, flipped)


# ---------------------------------------------------------------------------
# reference expansion and writers: one value at a time, in numpy scalars


def reference_expansion(state, grid, basis) -> np.ndarray:
    """sum_n c_n phi_n(u) with c_n = a_n (P) or a_n i**n (X) for n up to
    n_eff, accumulated one complex term at a time."""
    n_eff = effective_max_index(state)
    coeffs = state.amplitudes[:n_eff + 1]
    if Basis(basis) is Basis.X:
        coeffs = coeffs * np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(n_eff + 1) % 4]
    values = np.zeros(grid.count, dtype=complex)
    for a, row in zip(coeffs, hermite_basis(n_eff, grid.points())):
        if a != 0.0:
            values += a * row
    return values


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
