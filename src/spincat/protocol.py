"""The two-step QND measurement protocol on the collective spin.

Step 1 couples the x quadrature of the spin to a light quadrature with
strength alpha; measuring the light leaves the (recentered) squeezed
state with number-basis coefficients

    c(n) = ((xi2-1) / (2*(xi2+1)))**(n/2) * sqrt(n!)/(n/2)!   (even n),
    c(n) = 0                                                  (odd n),

where xi2 = alpha**2 + 1.  Step 2 couples the flip number n to a second
light beam with strength beta; measuring the p quadrature of that beam
at outcome p_R multiplies amplitude_n by exp(-(beta*n - p_R)**2 / 2).
Both outcome distributions follow from the joint states by the Born
rule and are sampled exactly (no grid inversion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, ImprobableOutcomeError
from .state import (
    Basis,
    NumberState,
    RandomSource,
    _fock_quadrature_second_moments,
    _symmetric_grid,
    _turning_point,
    effective_max_index,
    grid_for_state,
    quadrature_moment,
    to_quadrature,
)

_LOG_IMPROBABLE = math.log(1e-300)


@dataclass(frozen=True)
class ProtocolTrace:
    """Record of one full protocol run.  `state_file` names the state CSV
    relative to the directory the trace is written to."""

    seed: int
    xi2: float
    alpha: float
    beta: float
    p_P: float | None
    p_R: float
    mu_exact: float
    mu_approx: float
    n_max: int
    state_file: str | None


def alpha_from_xi2(xi2: float) -> float:
    """alpha = sqrt(xi2 - 1)."""
    if xi2 < 1.0:
        raise DomainError(f"squeezing degree must satisfy xi2 >= 1, got {xi2}")
    return float(np.sqrt(xi2 - 1.0))


def squeezed_state_exact(xi2: float, n_max: int) -> NumberState:
    """Normalized squeezed state over n = 0 .. n_max (n_max even).

    Even coefficients are evaluated in log space (log-gamma for the
    factorial ratio) before exponentiation, odd ones are exactly zero.
    """
    if xi2 < 1.0:
        raise DomainError(f"squeezing degree must satisfy xi2 >= 1, got {xi2}")
    _check_even_truncation(n_max)
    amps = np.zeros(n_max + 1)
    ratio = (xi2 - 1.0) / (2.0 * (xi2 + 1.0))
    if ratio == 0.0:
        amps[0] = 1.0
    else:
        m = np.arange(0, n_max // 2 + 1)
        log_c = m * np.log(ratio) + 0.5 * gammaln(2 * m + 1) - gammaln(m + 1)
        log_c -= log_c.max()
        amps[::2] = np.exp(log_c)
    amps /= np.linalg.norm(amps)
    return NumberState(amps)


def squeezed_state_stirling(xi2: float, n_max: int) -> NumberState:
    """Geometric large-n approximation c(n) ~ ((xi2-1)/(xi2+1))**(n/2),
    normalized; undefined at the degenerate point xi2 = 1."""
    if xi2 <= 1.0:
        raise DomainError(
            f"the geometric approximation requires xi2 > 1, got {xi2}"
        )
    _check_even_truncation(n_max)
    amps = np.zeros(n_max + 1)
    m = np.arange(0, n_max // 2 + 1)
    amps[::2] = ((xi2 - 1.0) / (xi2 + 1.0)) ** m
    amps /= np.linalg.norm(amps)
    return NumberState(amps)


def _check_even_truncation(n_max: int) -> None:
    if n_max < 0 or n_max % 2:
        raise DomainError(f"n_max must be a non-negative even integer, got {n_max}")


def sample_first_outcome(alpha: float, rng: RandomSource) -> float:
    """Marginal outcome law of the first step: p_P ~ N(0, (1+alpha**2)/2)."""
    scale = np.sqrt((1.0 + alpha * alpha) / 2.0)
    return rng.normal(0.0, scale)


def apply_number_qnd(state: NumberState, beta: float, p_R: float) -> NumberState:
    """Condition a state on the second-step outcome p_R.

    amplitude_n <- amplitude_n * exp(-(beta*n - p_R)**2/2), renormalized.
    Zero entries stay exactly zero, so parity patterns survive bitwise.
    The pre-normalization norm is tracked in log space; below 1e-300 the
    outcome is reported as impossible rather than silently underflowing.
    """
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    n = np.arange(state.amplitudes.size)
    with np.errstate(over="ignore"):
        # An overflowing square gives -inf, the exact limit of the weight.
        expo = -0.5 * (beta * n - p_R) ** 2
    shift = expo.max()
    nrm = 0.0
    if shift > -math.inf:
        scaled = state.amplitudes * np.exp(expo - shift)
        nrm = np.linalg.norm(scaled)
    log_norm = shift + (math.log(nrm) if nrm > 0.0 else -math.inf)
    if log_norm < _LOG_IMPROBABLE:
        raise ImprobableOutcomeError(
            f"outcome p_R={p_R} has conditional weight below 1e-300 "
            f"(log norm {log_norm:.1f})",
            log_norm=log_norm,
        )
    return NumberState(scaled / nrm)


def outcome_density_second(state: NumberState, beta: float):
    """Probability density of the second-step outcome for a normalized
    state: a Gaussian mixture with means beta*n, component std 1/sqrt(2)
    and weights |c_n|**2.  Returns a vectorized callable."""
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    weights = np.abs(state.amplitudes) ** 2
    weights = weights / weights.sum()
    means = beta * np.arange(weights.size)
    keep = weights > 0.0
    weights, means = weights[keep], means[keep]

    def density(p):
        p = np.asarray(p, dtype=float)
        with np.errstate(over="ignore"):
            comp = np.exp(-(p[..., None] - means) ** 2) / np.sqrt(np.pi)
        out = comp @ weights
        return out if out.ndim else float(out)

    return density


def sample_second_outcome(state: NumberState, beta: float, rng: RandomSource) -> float:
    """Exact two-stage sampling: n with probability |c_n|**2, then
    p_R ~ N(beta*n, 1/2)."""
    weights = np.abs(state.amplitudes) ** 2
    cum = np.cumsum(weights)
    cum /= cum[-1]
    idx = int(np.searchsorted(cum, rng.uniform(), side="right"))
    idx = min(idx, state.n_max)
    return rng.normal(beta * idx, np.sqrt(0.5))


def outcome_sampler(alpha: float, state: NumberState, beta: float):
    """Array sampler of both outcome laws: p_P ~ N(0, (1+alpha**2)/2) as in
    `sample_first_outcome`, and p_R by `sample_second_outcome`'s two stages
    on the normalized `state`.  The outcome CDF over n is built once;
    returns draw(generator, size) -> (p_P, p_R), which takes `size` p_P
    normals, then `size` uniforms for n, then `size` p_R normals from the
    numpy Generator."""
    if beta < 0.0:
        raise DomainError(f"beta must be >= 0, got {beta}")
    scale_P = np.sqrt((1.0 + alpha * alpha) / 2.0)
    cum = np.cumsum(np.abs(state.amplitudes) ** 2)
    cum /= cum[-1]

    def draw(generator: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        p_P = generator.normal(0.0, scale_P, size)
        n = np.minimum(np.searchsorted(cum, generator.random(size), side="right"),
                       state.n_max)
        p_R = generator.normal(beta * n, np.sqrt(0.5))
        return p_P, p_R

    return draw


def mu_of_outcome(p_R: float, beta: float, xi2: float) -> tuple[float, float]:
    """Conditional mean flip number implied by the outcome p_R (a float or,
    elementwise, an array).

    Returns (exact, approximate):
        exact  = p_R/beta + ln((xi2-1)/(xi2+1)) / (2 beta**2)
        approx = p_R/beta
    """
    scale = 2.0 * beta * beta
    if not (beta > 0.0 and scale > 0.0):
        raise DomainError(f"beta must be positive with a nonzero square, got {beta}")
    if xi2 <= 1.0:
        raise DomainError(f"mu correction needs xi2 > 1, got {xi2}")
    mu_approx = p_R / beta
    mu_exact = mu_approx + math.log((xi2 - 1.0) / (xi2 + 1.0)) / scale
    if not np.all(np.isfinite(mu_exact)):
        raise DomainError(f"beta={beta} and the outcome give no finite mu")
    return mu_exact, mu_approx


def quadrature_variances(state: NumberState) -> tuple[float, float]:
    """(Delta x^2, Delta p^2) about the origin, each computed as a Riemann
    second moment of the corresponding quadrature density.  Grids are sized
    from the state's occupancy (p) and a Fock-basis spread estimate (x)."""
    p_wf = to_quadrature(state, grid_for_state(state), Basis.P)
    dp2 = quadrature_moment(p_wf, order=2)

    x2_est, _ = _fock_quadrature_second_moments(state)
    k_max = _turning_point(effective_max_index(state))
    sigma_x = np.sqrt(max(x2_est, 1e-6))
    x_grid = _symmetric_grid(min(8.0 * sigma_x + 2.0, k_max + 8.0),
                             min(np.pi / (8.0 * k_max), sigma_x / 8.0))
    x_wf = to_quadrature(state, x_grid, Basis.X)
    dx2 = quadrature_moment(x_wf, order=2)
    return dx2, dp2
