"""Truncated number-basis representation of the rescaled collective-spin
oscillator, and transforms to the x/p quadrature representations.

Conventions used throughout:

* amplitudes and wavefunction values are real: every state the protocol
  builds has real number-basis coefficients, exactly zero at odd n
  (step 1 makes them so and step 2 multiplies them by a real factor), and
  on a grid, which is symmetric about 0 by construction, its x and p
  wavefunctions are real and even;
* momentum-basis matrix elements are real,
  phi_n(p) = pi**(-1/4) * (2**n n!)**(-1/2) * H_n(p) * exp(-p**2/2),
  evaluated with the normalized three-term recurrence (never via raw
  Hermite polynomials divided by factorials), which carries a binary
  exponent per point where exp(-p**2/2) is not a normal double;
* the x representation is *defined* as the continuous Fourier transform
  of the p representation with kernel exp(i*x*p)/sqrt(2*pi), so applying
  the transform twice reflects a wavefunction through the origin;
* that kernel maps phi_n(p) to i**n phi_n(x), so the x representation is
  *computed* by the same recurrence sum as p with coefficients
  a_n i**n = a_n (-1)**(n/2) on even n, and no transform is evaluated;
* expansions that share a grid share one pass of the recurrence
  (`_expand`), one sum per (state, basis) pair;
* parity: rounding is symmetric under negation, so the recurrence gives
  phi_n(-u) = (-1)**n phi_n(u) bit for bit up to the sign of a zero,
  which a sum started at +0 never shows; a sum over even n only is
  therefore evaluated on the upper half of the grid and mirrored, with
  the same bits as the full evaluation;
* continuous integrals are midpoint Riemann sums on uniform grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    CapacityError,
    DegenerateStateError,
    ResolutionError,
)

_TRUNCATION_CAP = 4096

# Bound on the squeezed-state tail mass every command leaves past n_max.
TAIL_TOL = 1e-10


class Basis(str, Enum):
    X = "x"
    P = "p"


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform grid of `count` points from -half_width to half_width
    inclusive.  The points are integer offsets about 0 times the spacing,
    so they are bitwise antisymmetric, points[k] == -points[-1-k], at every
    spacing (subnormal ones too), and the middle point of an odd count is
    +0.0."""

    half_width: float
    count: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.count - 1)

    def points(self) -> np.ndarray:
        offsets = np.arange(self.count, dtype=float) - 0.5 * (self.count - 1)
        return offsets * self.spacing


@dataclass(frozen=True, eq=False)
class NumberState:
    """Real amplitudes, a float array, over the flip-number basis
    n = 0 .. n_max."""

    amplitudes: np.ndarray

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1


@dataclass(frozen=True, eq=False)
class QuadratureWavefunction:
    """Real amplitudes, a float array of grid.count values, sampled on a
    uniform grid in x or p."""

    grid: QuadratureGrid
    values: np.ndarray
    basis: Basis

    def density(self) -> np.ndarray:
        return self.values ** 2


class RandomSource:
    """The seeded stream, a numpy Generator (not thread-safe): RandomSource(seed)
    is default_rng(seed), for_trajectory(seed, index) is default_rng([seed,
    index]).  Not a subclass, which would load numpy.random (about 6 MB
    resident) with the package instead of at the first draw."""

    def __new__(cls, seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    @classmethod
    def for_trajectory(cls, seed: int, index: int) -> np.random.Generator:
        return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# norms


def riemann_norm(wf: QuadratureWavefunction) -> float:
    """Midpoint-Riemann L2 norm on the wavefunction's grid."""
    return float(np.sqrt(np.sum(wf.density()) * wf.grid.spacing))


def riemann_normalize(wf: QuadratureWavefunction) -> QuadratureWavefunction:
    nrm = riemann_norm(wf)
    if nrm == 0.0:
        raise DegenerateStateError("cannot normalize an all-zero wavefunction")
    # + 0.0 writes -0.0 as +0.0, so every zero is printed as "0".
    return QuadratureWavefunction(wf.grid, (wf.values + 0.0) * (1.0 / nrm), wf.basis)


# Relative tolerance of the coverage check of both squeeze and cat.  On
# default squeeze grids every residual is at most 1e-11 for xi2 up to 215
# (tests/test_cli.py::test_default_squeeze_grids_pass_the_coverage_check).
# On default cat grids the norm misses by at most 8.6e-7 over 400 cats with
# xi2 in [5, 210], beta in [1.5/xi2, 1] and mu in [1e-3, xi2], and by more
# than 1e-12 only where mu < 1/beta.  A grid that cuts off the state misses
# by far more: a margin of 8 instead of 5 peak sigmas holds 98.9 % of the p
# norm at xi2 = 200, beta = 0.01, mu = 100.
COVERAGE_TOL = 1e-3


def _check_coverage(wavefunctions, dx2: float | None = None,
                    dp2: float | None = None) -> None:
    """Raise ResolutionError unless each wavefunction of a normalized state
    has a Riemann norm**2 within COVERAGE_TOL of 1 and, where dx2 and dp2
    are given, a Riemann second moment within COVERAGE_TOL, relative, of
    dx2 (x) or dp2 (p)."""
    for wf in wavefunctions:
        miss = abs(riemann_norm(wf) ** 2 - 1.0)
        if dx2 is not None:
            moment = dx2 if wf.basis is Basis.X else dp2
            miss = max(miss, abs(quadrature_moment(wf) / moment - 1.0))
        if not miss <= COVERAGE_TOL:
            what = "norm" if dx2 is None else "norm or second moment"
            raise ResolutionError(f"the {wf.basis.value} grid misses the state: {what} "
                                  f"off by {miss:.3g} (tolerance {COVERAGE_TOL:g})")


def quadrature_moment(wf: QuadratureWavefunction) -> float:
    """Riemann estimate of the second moment <coord^2> about 0 for the
    (normalized) probability density |values|^2."""
    dens = wf.density()
    return float(np.sum(wf.grid.points() ** 2 * dens) / np.sum(dens))


def effective_max_index(state: NumberState) -> int:
    """Largest n whose amplitude exceeds 1e-12 of the peak: the tail below
    that counts as empty when sizing grids and resolution bounds."""
    mags = np.abs(state.amplitudes)
    return int(np.nonzero(mags > 1e-12 * mags.max())[0][-1])


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
    return QuadratureGrid(half, count)


def default_cat_grid(mu: float, beta: float, n_eff: int) -> QuadratureGrid:
    """Default symmetric grid for a cat state of mean flip number mu after
    a measurement of strength beta, occupied up to n = n_eff.  Each p peak
    at +-sqrt(2 mu) is a Gaussian of amplitude sigma 1/(beta sqrt(2 mu)),
    so the range is +-(sqrt(2 mu) + max(8, 5 sigma)), capped at the
    `grid_for_state` half-width sqrt(2 n_eff + 1) + 8; smallest
    power-of-two point count giving at least 16 points per fringe period
    2 pi / sqrt(2 mu) and a spacing within the `to_quadrature` resolution
    bound pi / sqrt(2 n_eff + 1).  mu and beta are positive."""
    peak = np.sqrt(2.0 * mu)
    period = 2.0 * np.pi / peak
    # beta * peak past the double range: 5/inf = 0 (margin 8) or 5/0 = inf (the cap)
    with np.errstate(divide="ignore", over="ignore"):
        margin = max(8.0, 5.0 / (beta * peak))
    return _symmetric_grid(min(peak + margin, _turning_point(n_eff) + 8.0),
                           min(period / 16.0, np.pi / _turning_point(n_eff)))


def grid_for_state(state: NumberState) -> QuadratureGrid:
    """Symmetric grid 8 beyond the classical turning point of the highest
    occupied level, with 16 points per period of its fastest oscillation."""
    k_max = _turning_point(effective_max_index(state))
    period = 2.0 * np.pi / k_max
    return _symmetric_grid(k_max + 8.0, period / 16.0, floor=256)


# ---------------------------------------------------------------------------
# basis transforms


def to_quadrature(state: NumberState, grid: QuadratureGrid, basis: Basis) -> QuadratureWavefunction:
    """Expand a number state on a quadrature grid.

    P basis: values[k] = sum_n a_n phi_n(p_k).  X basis: the continuous
    Fourier transform of the P representation, which the kernel
    exp(i*x*p)/sqrt(2*pi) maps term by term to
    values[k] = sum_n a_n i**n phi_n(x_k), real for an even state, so both
    bases are the same recurrence sum and no transform is evaluated.  The
    output is *not* renormalized; for states fully covered by the grid the
    Riemann norm reproduces the number-basis norm.
    """
    return _expand([(state, basis)], grid)[0]


def _expand(pairs, grid: QuadratureGrid) -> list[QuadratureWavefunction]:
    """`to_quadrature` of every (state, basis) pair in `pairs` on one grid,
    from a single pass, two rows at a time, of the normalized recurrence
        phi_{n+1} = u*sqrt(2/(n+1))*phi_n - sqrt(n/(n+1))*phi_{n-1}
    from phi_0 = pi**(-1/4) * exp(-u**2/2).  Where exp(-u**2/2) is not a
    normal double (|u| > 37.64), the rows hold phi_n * 2**scale, one integer
    scale per point: the seed is m**12 for m * 2**e = exp(-u**2/24), normal
    on every grid under the truncation cap (|u| < 98.5), at scale -12 e,
    and every 32 rows, too few to grow by 2**512, a point whose row has
    passed 2**512 scales its rows and sums by 2**-512.  Elsewhere the
    arithmetic is the plain recurrence's.  The rows keep integral
    phi_n**2 = 1 to 1e-10 for every n up to the cap.

    Every state is even (exactly zero at odd n, as every state the
    protocol builds is), so the recurrence runs on the upper half of the
    grid only and each sum is mirrored onto the lower half (see the
    module's parity note and `QuadratureGrid`).  The grid resolves every
    state: its spacing is within pi / sqrt(2 n_eff + 1), as both grid
    rules make it.  Each pair keeps its own sum, which stops at the pair's
    own n_eff and adds its terms in the order a single expansion does, so
    the values are bitwise those of separate passes.
    """
    half = grid.count // 2
    u = grid.points()[half:]
    sums = []
    for state, basis in pairs:
        basis = Basis(basis)
        coeffs = state.amplitudes[:effective_max_index(state) + 1]
        if basis is Basis.X:  # i**n = (-1)**(n/2) on even n
            coeffs = coeffs.copy()
            coeffs[2::4] *= -1.0
        sums.append((basis, coeffs, np.zeros(u.size)))
    n_top = max(coeffs.size for _, coeffs, _ in sums) - 1
    seed = np.exp(-u * u / 2.0)
    far = np.flatnonzero(seed < np.finfo(float).tiny)
    mantissa, exponent = np.frexp(np.exp(-u[far] ** 2 / 24.0))
    seed[far], scale = mantissa ** 12, -12 * exponent
    prev, row = np.zeros(u.size), np.pi ** -0.25 * seed
    for n in range(n_top + 1):
        if n:
            prev, row = row, u * np.sqrt(2.0 / n) * row - np.sqrt((n - 1) / n) * prev
        for _, coeffs, values in sums:
            if n < coeffs.size and coeffs[n] != 0.0:
                values += coeffs[n] * row
        if n % 32 == 31 and far.size:
            big = np.abs(row[far]) > 2.0 ** 512
            for rows in (prev, row, *(values for _, _, values in sums)):
                rows[far[big]] *= 2.0 ** -512
            scale[big] -= 512
    for _, _, values in sums:
        values[far] = np.ldexp(values[far], -scale)
    return [QuadratureWavefunction(grid, np.concatenate((values[::-1][:half], values)),
                                   basis) for basis, _, values in sums]


# ---------------------------------------------------------------------------
# truncation policy


def choose_truncation(xi2: float, beta: float, mu_max: float) -> int:
    """Smallest even n_max such that (a) the squeezed-state tail mass beyond
    n_max stays below TAIL_TOL (geometric bound with ratio
    ((xi2-1)/(xi2+1))**2) and (b) n_max covers mu_max plus ten measurement
    widths 1/beta when a conditional mean is targeted.  Floor 2; past
    _TRUNCATION_CAP it raises CapacityError.  Both constants are read at
    each call.  xi2 >= 1, beta > 0 and mu_max >= 0, as the command line
    passes them.
    """
    q = ((xi2 - 1.0) / (xi2 + 1.0)) ** 2
    if q == 1.0:  # from xi2 near 1e16 on: the tail never ends
        raise CapacityError(f"xi2={xi2} rounds the tail ratio to 1: no n_max meets tail_tol")
    n_tail = 0
    if q > 0.0:
        m = max(0, int(np.ceil(np.log(TAIL_TOL) / np.log(q))) - 1)
        while q ** (m + 1) >= TAIL_TOL:
            m += 1
        n_tail = 2 * m
    n_cover = mu_max + 10.0 / beta if mu_max > 0.0 else 0.0
    required = max(2, n_tail, int(np.ceil(n_cover)))
    if required % 2:
        required += 1
    if required > _TRUNCATION_CAP:
        raise CapacityError(
            f"required truncation n_max={required} exceeds cap {_TRUNCATION_CAP}")
    return required
