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

from .errors import DomainError, ImprobableOutcomeError
from .state import NumberState, RandomSource

_LOG_IMPROBABLE = math.log(1e-300)

# Cephes `lgam` (Moshier, Methods and Programs for Mathematical Functions,
# 1989) at x = k + 1: the exact product (x-1)! below 13, else Stirling's
# series with the A[] polynomial below 1000 and three terms from 1000 up.
# Logs come from math.log and every other step is one numpy operation, so
# the values are bitwise those of scipy.special.gammaln.
_LS2PI = 0.91893853320467274178
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
      7.93650340457716943945e-4, -2.77777777730099687205e-3,
      8.33333333333331927722e-2)
_log_factorial_table = np.array([math.log(math.factorial(k)) for k in range(12)])


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


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0 .. n (see the Cephes note above): a read-only
    prefix of a process-wide table that grows on demand.  The table only
    memoizes values fixed by k, so every caller sees the same bits; a call
    past its size pays for the new entries only."""
    global _log_factorial_table
    table = _log_factorial_table
    if table.size <= n:
        x = np.arange(table.size + 1.0, n + 2.0)
        q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), float, x.size) - x + _LS2PI
        p = 1.0 / (x * x)
        near, far = np.split(p, [np.searchsorted(x, 1000.0)])
        near = (((_A[0] * near + _A[1]) * near + _A[2]) * near + _A[3]) * near + _A[4]
        far = (7.9365079365079365079365e-4 * far - 2.7777777777777777777778e-3) * far \
            + 0.0833333333333333333333
        table = np.concatenate((table, q + np.concatenate((near, far)) / x))
        table.setflags(write=False)
        _log_factorial_table = table
    return table[:n + 1]


def squeezed_state_exact(xi2: float, n_max: int) -> NumberState:
    """Normalized squeezed state over n = 0 .. n_max (n_max even).

    Even coefficients are evaluated in log space before exponentiation,
    with log-factorials from a port of the Cephes log-gamma routine that
    reproduces scipy.special.gammaln bit for bit; odd ones are exactly zero.
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
        log_k = _log_factorials(n_max)
        log_c = m * np.log(ratio) + 0.5 * log_k[::2] - log_k[:m.size]
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
    """(Delta x^2, Delta p^2) about the origin from the Fock identities
        <x^2> = <n> + 1/2 - Re<a^2>,   <p^2> = <n> + 1/2 + Re<a^2>
    in the real <p|n> convention (positive squeezed coefficients are narrow
    in x): exact for the truncated state, O(n) and without a grid."""
    a = state.amplitudes / np.linalg.norm(state.amplitudes)
    n = np.arange(a.size)
    mean_n = float(np.sum(n * np.abs(a) ** 2))
    k = n[:-2]
    re_a2 = float(np.real(np.sum(np.conj(a[:-2]) * a[2:] * np.sqrt((k + 1.0) * (k + 2.0)))))
    return mean_n + 0.5 - re_a2, mean_n + 0.5 + re_a2
