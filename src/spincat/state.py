"""Truncated number-basis representation of the rescaled collective-spin
oscillator, and transforms to the x/p quadrature representations.

Conventions used throughout:

* momentum-basis matrix elements are real,
  phi_n(p) = pi**(-1/4) * (2**n n!)**(-1/2) * H_n(p) * exp(-p**2/2),
  evaluated with the normalized three-term recurrence (never via raw
  Hermite polynomials divided by factorials);
* the x representation is *defined* as the continuous Fourier transform
  of the p representation with kernel exp(i*x*p)/sqrt(2*pi), so applying
  the transform twice reflects a wavefunction through the origin;
* that kernel maps phi_n(p) to i**n phi_n(x), so the x representation is
  *computed* by the same recurrence sum as p with coefficients a_n i**n,
  and no transform is evaluated;
* expansions that share a grid share one pass of the recurrence
  (`_expand`), one sum per (state, basis) pair;
* parity: rounding is symmetric under negation, so the recurrence gives
  phi_n(-u) = (-1)**n phi_n(u) bit for bit up to the sign of a zero,
  which a sum started at +0 never shows; a sum over even n only is
  therefore evaluated on the upper half of a bitwise antisymmetric grid
  and mirrored, with the same bits as the full evaluation;
* continuous integrals are midpoint Riemann sums on uniform grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CapacityError,
    DegenerateStateError,
    DomainError,
    ResolutionError,
)

# Largest index the eigenfunction recurrence accepts.  Integral phi_n**2 = 1
# to 1e-9 holds only for n <= 700; above, mass is lost (2 % at n = 750, 16 %
# at n = 800) because the phi_0 seed underflows to 0 past |u| ~ 38.6.
HERMITE_N_BUDGET = 2000

# Relative amplitude below which a number-basis tail is treated as empty
# when sizing grids and resolution bounds.
_OCCUPANCY_CUTOFF = 1e-12

_TRUNCATION_CAP = 4096


class Basis(str, Enum):
    X = "x"
    P = "p"


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid of `count` points from `min` to `max` inclusive."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if not (np.isfinite(self.min) and np.isfinite(self.max)):
            raise DomainError("grid endpoints must be finite")
        if not self.min < self.max:
            raise DomainError(f"grid requires min < max, got [{self.min}, {self.max}]")
        if self.count < 2:
            raise DomainError(f"grid requires count >= 2, got {self.count}")

    @property
    def spacing(self) -> float:
        return (self.max - self.min) / (self.count - 1)

    def points(self) -> np.ndarray:
        # Built from integer offsets about the center so that symmetric
        # grids are bitwise antisymmetric: points[k] == -points[-1-k].
        center = 0.5 * (self.min + self.max)
        offsets = np.arange(self.count, dtype=float) - 0.5 * (self.count - 1)
        return center + offsets * self.spacing


@dataclass(frozen=True, eq=False)
class NumberState:
    """Complex amplitudes over the flip-number basis n = 0 .. n_max."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if amps.ndim != 1 or amps.size == 0:
            raise DomainError("amplitudes must be a non-empty 1-D vector")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1


@dataclass(frozen=True, eq=False)
class QuadratureWavefunction:
    """Complex amplitudes sampled on a uniform grid in x or p."""

    grid: QuadratureGrid
    values: np.ndarray
    basis: Basis

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.count,):
            raise DomainError(
                f"values length {vals.shape} does not match grid count {self.grid.count}"
            )
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "basis", Basis(self.basis))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


class RandomSource:
    """Seeded random stream. Identical seeds give identical outcome
    sequences; instances are not safe to share across threads."""

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self._rng = np.random.default_rng(self.seed)

    @classmethod
    def for_trajectory(cls, seed: int, index: int) -> "RandomSource":
        src = cls.__new__(cls)
        src.seed = _check_seed(seed)
        src._rng = np.random.default_rng([src.seed, int(index)])
        return src

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        return float(self._rng.normal(loc, scale))

    def uniform(self) -> float:
        return float(self._rng.random())


# ---------------------------------------------------------------------------
# oscillator eigenfunctions


def _hermite_rows(n_max: int, u: np.ndarray):
    """Yield phi_0(u), phi_1(u), ..., phi_{n_max}(u), the normalized
    oscillator eigenfunctions at the points `u`, from the recurrence
        phi_{n+1} = u*sqrt(2/(n+1))*phi_n - sqrt(n/(n+1))*phi_{n-1}
    with the Gaussian weight folded into phi_0.  Only two rows live at a
    time.  The rows are normalized (integral phi_n**2 = 1 to 1e-9) for
    n <= 700; above that they lose mass where phi_0 underflows (see
    HERMITE_N_BUDGET).  Indices past HERMITE_N_BUDGET are refused."""
    if n_max < 0 or n_max != int(n_max):
        raise DomainError(f"eigenfunction index must be a non-negative integer, got {n_max}")
    if n_max > HERMITE_N_BUDGET:
        raise DomainError(
            f"eigenfunction index {n_max} exceeds the recurrence stability budget "
            f"{HERMITE_N_BUDGET}"
        )
    if not np.all(np.isfinite(u)):
        raise DomainError("evaluation points must be finite")
    prev = np.pi ** -0.25 * np.exp(-u * u / 2.0)
    yield prev
    if n_max == 0:
        return
    cur = np.sqrt(2.0) * u * prev
    yield cur
    for n in range(2, n_max + 1):
        prev, cur = cur, u * np.sqrt(2.0 / n) * cur - np.sqrt((n - 1) / n) * prev
        yield cur


# ---------------------------------------------------------------------------
# norms


def norm(state: NumberState) -> float:
    """sqrt(sum |a_n|^2)."""
    return float(np.linalg.norm(state.amplitudes))


def normalize(state: NumberState) -> NumberState:
    nrm = norm(state)
    if nrm == 0.0:
        raise DegenerateStateError("cannot normalize the all-zero state")
    return NumberState(state.amplitudes / nrm)


def riemann_norm(wf: QuadratureWavefunction) -> float:
    """Midpoint-Riemann L2 norm on the wavefunction's grid."""
    return float(np.sqrt(np.sum(np.abs(wf.values) ** 2) * wf.grid.spacing))


def riemann_normalize(wf: QuadratureWavefunction) -> QuadratureWavefunction:
    nrm = riemann_norm(wf)
    if nrm == 0.0:
        raise DegenerateStateError("cannot normalize an all-zero wavefunction")
    if wf.grid.spacing < np.finfo(float).tiny:  # the density would sum to 1/spacing
        raise ResolutionError(f"cannot normalize on a subnormal grid spacing {wf.grid.spacing:.4g}")
    return QuadratureWavefunction(wf.grid, wf.values / nrm, wf.basis)


def quadrature_moment(wf: QuadratureWavefunction, order: int = 2, center: float = 0.0) -> float:
    """Riemann estimate of <(coord - center)^order> for the (normalized)
    probability density |values|^2."""
    pts = wf.grid.points()
    dens = wf.density()
    total = np.sum(dens)
    if total == 0.0:
        raise DegenerateStateError("moment of an all-zero wavefunction")
    return float(np.sum((pts - center) ** order * dens) / total)


def effective_max_index(state: NumberState, cutoff: float = _OCCUPANCY_CUTOFF) -> int:
    """Largest n whose amplitude exceeds `cutoff` relative to the peak."""
    mags = np.abs(state.amplitudes)
    peak = mags.max()
    if peak == 0.0:
        raise DegenerateStateError("all-zero state has no occupancy")
    occupied = np.nonzero(mags > cutoff * peak)[0]
    return int(occupied[-1])


def mean_occupation(state: NumberState) -> float:
    """<n> computed directly in the number basis."""
    w = np.abs(state.amplitudes) ** 2
    return float(np.sum(np.arange(w.size) * w) / np.sum(w))


# ---------------------------------------------------------------------------
# grids


def _turning_point(n_eff: int) -> float:
    """Turning point, and largest wavenumber, of level n_eff."""
    return np.sqrt(2.0 * n_eff + 1.0)


def _symmetric_grid(half: float, spacing: float, floor: int = 2) -> QuadratureGrid:
    """Grid on [-half, half] with the smallest power-of-two point count, at
    least `floor`, whose spacing is at most `spacing`."""
    count = floor
    while count - 1 < 2.0 * half / spacing:
        count *= 2
    return QuadratureGrid(-half, half, count)


def default_cat_grid(mu: float, n_eff: int = 0) -> QuadratureGrid:
    """Default symmetric grid for a cat state of mean flip number mu:
    range +-(sqrt(2 mu) + 8), smallest power-of-two point count giving at
    least 16 points per fringe period 2 pi / sqrt(2 mu) and a spacing
    within the `to_quadrature` resolution bound pi / sqrt(2 n_eff + 1)
    for a state occupied up to n = n_eff."""
    if mu <= 0:
        raise DomainError(f"cat grid needs mu > 0, got {mu}")
    period = 2.0 * np.pi / np.sqrt(2.0 * mu)
    return _symmetric_grid(np.sqrt(2.0 * mu) + 8.0,
                           min(period / 16.0, np.pi / _turning_point(n_eff)))


def grid_for_state(state: NumberState, points_per_wave: int = 16, margin: float = 8.0) -> QuadratureGrid:
    """Symmetric grid wide enough for the classical turning point of the
    highest occupied level and fine enough for its fastest oscillation."""
    k_max = _turning_point(effective_max_index(state))
    period = 2.0 * np.pi / k_max
    return _symmetric_grid(k_max + margin, period / points_per_wave, floor=256)


# ---------------------------------------------------------------------------
# basis transforms

# i**n by n mod 4, exact in every component.
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


def to_quadrature(state: NumberState, grid: QuadratureGrid, basis: Basis) -> QuadratureWavefunction:
    """Expand a number state on a quadrature grid.

    P basis: values[k] = sum_n a_n phi_n(p_k).  X basis: the continuous
    Fourier transform of the P representation, which the kernel
    exp(i*x*p)/sqrt(2*pi) maps term by term to
    values[k] = sum_n a_n i**n phi_n(x_k), so both bases are the same
    recurrence sum and no transform is evaluated.  The output is *not*
    renormalized; for states fully covered by the grid the Riemann norm
    reproduces the number-basis norm.
    """
    return _expand([(state, basis)], grid)[0]


def _expand(pairs, grid: QuadratureGrid) -> list[QuadratureWavefunction]:
    """`to_quadrature` of every (state, basis) pair in `pairs` on one grid,
    from a single pass of the recurrence.

    Each pair keeps its own sum, which stops at the pair's own n_eff and
    adds its terms in the order a single expansion does, so the values
    are bitwise those of separate passes.  A sum whose coefficients are
    all real (squeezed and cat states: i**n is +-1 on even n) accumulates
    in real arithmetic; the complex sum would give the same real parts and
    an imaginary part of exactly +0.  When every pair has exactly zero
    coefficients at odd n and the grid is bitwise antisymmetric, the
    recurrence runs on the upper half of the grid only and each sum is
    mirrored onto the lower half (see the module's parity note).  Every
    pair is checked before the pass, and the first one that fails raises.
    """
    sums = []
    for state, basis in pairs:
        basis = Basis(basis)
        if not np.any(state.amplitudes):
            raise DegenerateStateError("cannot transform the all-zero state")
        n_eff = effective_max_index(state)
        k_max = _turning_point(n_eff)
        if grid.spacing > np.pi / k_max:
            raise ResolutionError(
                f"grid spacing {grid.spacing:.4g} exceeds the resolution bound "
                f"{np.pi / k_max:.4g} for occupancy n_eff={n_eff}"
            )
        coeffs = state.amplitudes[:n_eff + 1]
        if basis is Basis.X:
            coeffs = coeffs * _I_POWERS[np.arange(n_eff + 1) % 4]
        if not np.any(coeffs.imag):
            coeffs = coeffs.real
        sums.append((basis, coeffs))
    points = grid.points()
    even = not any(np.any(coeffs[1::2]) for _, coeffs in sums)
    half = _mirror_half(-points, points) if even else 0
    sums = [(basis, coeffs, np.zeros(grid.count - half, dtype=coeffs.dtype))
            for basis, coeffs in sums]
    n_top = max(coeffs.size for _, coeffs, _ in sums) - 1
    for n, row in enumerate(_hermite_rows(n_top, points[half:])):
        for _, coeffs, values in sums:
            if n < coeffs.size and coeffs[n] != 0.0:
                values += coeffs[n] * row
    return [QuadratureWavefunction(grid, np.concatenate((values[::-1][:half], values)),
                                   basis) for basis, _, values in sums]


def _mirror_half(leading: np.ndarray, trailing: np.ndarray) -> int:
    """How many leading points mirror the trailing ones bit for bit: half
    the size when leading[k] has the bits of trailing[-1-k] for k < half
    (so -0.0 differs from +0.0), else 0."""
    half = leading.size // 2
    same = np.array_equal(np.ascontiguousarray(leading[:half]).view(np.uint64),
                          np.ascontiguousarray(trailing[::-1][:half]).view(np.uint64))
    return half if same else 0


# ---------------------------------------------------------------------------
# truncation policy


def choose_truncation(xi2: float, beta: float, mu_max: float, tail_tol: float,
                      cap: int = _TRUNCATION_CAP) -> int:
    """Smallest even n_max such that (a) the squeezed-state tail mass beyond
    n_max stays below tail_tol (geometric bound with ratio
    ((xi2-1)/(xi2+1))**2) and (b) n_max covers mu_max plus ten measurement
    widths 1/beta when a conditional mean is targeted.  Floor 2, cap `cap`.
    """
    if xi2 < 1.0:
        raise DomainError(f"squeezing degree must satisfy xi2 >= 1, got {xi2}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if mu_max < 0.0:
        raise DomainError(f"mu_max must be non-negative, got {mu_max}")
    if not 0.0 < tail_tol <= 1e-4:
        raise DomainError(f"tail_tol must lie in (0, 1e-4], got {tail_tol}")

    q = ((xi2 - 1.0) / (xi2 + 1.0)) ** 2
    if q == 1.0:  # from xi2 near 1e16 on: the tail never ends
        raise CapacityError(f"xi2={xi2} rounds the tail ratio to 1: no n_max meets tail_tol")
    n_tail = 0
    if q > 0.0:
        m = max(0, int(np.ceil(np.log(tail_tol) / np.log(q))) - 1)
        while q ** (m + 1) >= tail_tol:
            m += 1
        n_tail = 2 * m
    n_cover = mu_max + 10.0 / beta if mu_max > 0.0 else 0.0
    required = max(2, n_tail, int(np.ceil(n_cover)))
    if required % 2:
        required += 1
    if required > cap:
        raise CapacityError(
            f"required truncation n_max={required} exceeds cap {cap}",
            required_n_max=required,
        )
    return required
