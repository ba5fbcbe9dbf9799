"""Analytic cat-state approximations and the metrics that witness a cat.

For a conditional mean flip number mu > 0 the p-space wavefunction is a
pair of Gaussians

    psi(p) ~ exp(-(p - s)**2 * beta**2 * mu) + exp(-(p + s)**2 * beta**2 * mu),
    s = sqrt(2 mu),

and its Fourier partner in x is a Gaussian envelope times a cosine,

    psi(x) ~ exp(-x**2 / (4 beta**2 mu)) * cos(x * sqrt(2 mu)).

Two distinct p peaks plus x fringes are the observable signature; the
detectors below measure both from sampled wavefunctions.  Widths are
reported in the amplitude-Gaussian convention (sigma of
exp(-(p-p0)**2/(2 sigma**2))), i.e. sqrt(2) times the local second
moment of the probability density.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateStateError,
    DomainError,
    ImprobableOutcomeError,
    NoFringeError,
)
from .protocol import (
    _squeezed_qnd_log_norm,
    apply_number_qnd,
    mu_of_outcome,
    outcome_density_second,
    squeezed_state_exact,
)
from .state import (
    Basis,
    QuadratureGrid,
    QuadratureWavefunction,
    _check_coverage,
    _expand,
    choose_truncation,
    default_cat_grid,
    effective_max_index,
    grid_for_state,
    quadrature_moment,
    riemann_normalize,
)

# Peaks must rise above this fraction of the global density maximum.
PEAK_THRESHOLD = 0.05

# Envelope region for fringe analysis: outermost points whose amplitude
# reaches this fraction of the amplitude maximum.
_ENVELOPE_THRESHOLD = 0.01


@dataclass(frozen=True)
class CatMetrics:
    peak_positions: tuple[float, float] | None
    peak_std: float | None
    peak_separation: float | None
    fringe_period: float | None
    envelope_std: float | None
    visibility: float | None
    resolvable: bool
    reachable: bool
    combined: bool


def approx_p_wavefunction(mu: float, beta: float, grid: QuadratureGrid) -> QuadratureWavefunction:
    """Two-Gaussian approximation in p for mu > 0 and beta > 0 with a
    finite square, normalized on the grid; exactly even, since every grid
    is symmetric by construction."""
    p = grid.points()
    s = np.sqrt(2.0 * mu)
    c = beta ** 2 * mu
    values = np.exp(-(p - s) ** 2 * c) + np.exp(-(p + s) ** 2 * c)
    return riemann_normalize(QuadratureWavefunction(grid, values, Basis.P))


def approx_x_wavefunction(mu: float, beta: float, grid: QuadratureGrid) -> QuadratureWavefunction:
    """Envelope-times-cosine approximation in x for mu > 0 and beta > 0
    with a finite square, normalized on the grid, which resolves the fringe
    period 2 pi / sqrt(2 mu)."""
    s = np.sqrt(2.0 * mu)
    x = grid.points()
    values = np.exp(-x * x / (4.0 * beta ** 2 * mu)) * np.cos(x * s)
    return riemann_normalize(QuadratureWavefunction(grid, values, Basis.X))


def _local_maxima(y: np.ndarray, height: float | None = None) -> np.ndarray:
    """Indices of the interior local maxima of `y`, as
    `scipy.signal.find_peaks(y, height=height)[0]` returns them: a point or
    flat plateau entered by a rise and left by a fall, reported at the
    plateau middle (left + right) // 2, optionally only where
    y >= height.  The end samples are never maxima."""
    steps = np.diff(y)
    moves = np.flatnonzero(steps)
    rises = steps[moves] > 0.0
    turn = np.flatnonzero(rises[:-1] & ~rises[1:])
    idx = (moves[turn] + 1 + moves[turn + 1]) // 2
    if height is not None:
        idx = idx[y[idx] >= height]
    return idx


def _parabolic_refine(y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex (offset in index units, value) of the parabola through
    y[i-1], y[i], y[i+1]; falls back to the sample on flat tops."""
    if i <= 0 or i >= y.size - 1:
        return 0.0, float(y[i])
    dy = 0.5 * (y[i + 1] - y[i - 1])
    d2y = y[i + 1] - 2.0 * y[i] + y[i - 1]
    if d2y == 0.0:
        return 0.0, float(y[i])
    delta = -dy / d2y
    delta = float(np.clip(delta, -1.0, 1.0))
    return delta, float(y[i] + 0.5 * dy * delta)


def detect_peaks(wf: QuadratureWavefunction) -> tuple[list[float], list[float]]:
    """Local maxima of |psi|^2 above 5% of the global maximum, with a
    width estimate from the local second moment of the density between
    the surrounding valleys (sqrt(2)-scaled to the amplitude-sigma
    convention), of a p-basis wavefunction; none where no interior
    maximum rises that high."""
    dens = wf.density()
    idx = _local_maxima(dens, height=PEAK_THRESHOLD * dens.max())
    pts = wf.grid.points()
    # Watershed segment boundaries at the valleys between adjacent peaks.
    bounds = [0]
    for a, b in zip(idx[:-1], idx[1:]):
        bounds.append(a + int(np.argmin(dens[a:b + 1])))
    bounds.append(dens.size - 1)

    positions, widths = [], []
    for k, i in enumerate(idx):
        lo, hi = bounds[k], bounds[k + 1]
        seg_d = dens[lo:hi + 1]
        seg_p = pts[lo:hi + 1]
        total = seg_d.sum()
        centroid = float(np.sum(seg_p * seg_d) / total)
        var = float(np.sum((seg_p - centroid) ** 2 * seg_d) / total)
        delta, _ = _parabolic_refine(dens, i)
        positions.append(float(pts[i] + delta * wf.grid.spacing))
        widths.append(float(np.sqrt(2.0 * var)))
    return positions, widths


def fringe_metrics(wf: QuadratureWavefunction) -> tuple[float, float]:
    """(period, visibility) of the interference pattern of an x-basis
    wavefunction.

    The period is twice the mean spacing of zero crossings of the
    wavefunction inside the envelope; visibility is (max-min)/(max+min)
    of the density over the extrema adjacent to the central crest, with
    parabolic refinement of each extremum.  NoFringeError where the
    envelope holds fewer than three crossings or no crest and trough.
    """
    dens = wf.density()

    # Strip a global sign so that the highest crest is positive.
    re = np.sign(wf.values[int(np.argmax(dens))]) * wf.values

    magnitude = np.abs(wf.values)
    above = np.nonzero(magnitude >= _ENVELOPE_THRESHOLD * magnitude.max())[0]
    lo, hi = int(above[0]), int(above[-1])
    pts = wf.grid.points()

    seg_re = re[lo:hi + 1]
    seg_p = pts[lo:hi + 1]
    sign_flip = np.nonzero(seg_re[:-1] * seg_re[1:] < 0.0)[0]
    seg_d = dens[lo:hi + 1]
    crest_rel = _local_maxima(seg_d)
    trough_rel = _local_maxima(-seg_d)
    if sign_flip.size < 3 or crest_rel.size == 0 or trough_rel.size == 0:
        raise NoFringeError(
            f"{sign_flip.size} zero crossings, {crest_rel.size} crests and "
            f"{trough_rel.size} troughs inside the envelope"
        )
    frac = seg_re[sign_flip] / (seg_re[sign_flip] - seg_re[sign_flip + 1])
    crossings = seg_p[sign_flip] + frac * wf.grid.spacing
    period = 2.0 * float(np.mean(np.diff(crossings)))

    crest_i = crest_rel[int(np.argmin(np.abs(seg_p[crest_rel])))]
    _, crest_val = _parabolic_refine(seg_d, int(crest_i))
    adjacent = []
    left = trough_rel[trough_rel < crest_i]
    right = trough_rel[trough_rel > crest_i]
    if left.size:
        adjacent.append(int(left[-1]))
    if right.size:
        adjacent.append(int(right[0]))
    trough_val = min(
        max(0.0, _parabolic_refine(seg_d, i)[1]) for i in adjacent
    )
    visibility = (crest_val - trough_val) / (crest_val + trough_val)
    return period, float(np.clip(visibility, 0.0, 1.0))


def check_cat_conditions(mu: float, beta: float, xi2: float) -> tuple[bool, bool, bool]:
    """(resolvable, reachable, combined) observability conditions:
    mu >= 1/beta, mu <= xi2, beta*xi2 > 1.  For an array of mu the first
    two are boolean arrays.  beta is positive."""
    resolvable = mu >= 1.0 / beta
    reachable = mu <= xi2
    combined = beta * xi2 > 1.0
    return resolvable, reachable, combined


def overlap(wf_a: QuadratureWavefunction, wf_b: QuadratureWavefunction) -> float:
    """|Riemann inner product| of two real wavefunctions on the same grid
    and basis; equals 1 for identical normalized states."""
    return abs(float(np.sum(wf_a.values * wf_b.values) * wf_a.grid.spacing))


def compute_cat_metrics(p_wf: QuadratureWavefunction, x_wf: QuadratureWavefunction,
                        mu: float, beta: float, xi2: float) -> CatMetrics:
    """Detector-driven metrics for a candidate cat state; peak and fringe
    fields degrade to None when the corresponding structure is absent."""
    resolvable, reachable, combined = check_cat_conditions(mu, beta, xi2)

    positions = std = separation = None
    found, widths = detect_peaks(p_wf)
    if len(found) == 2:
        positions = (found[0], found[1])
        std = 0.5 * (widths[0] + widths[1])
        separation = abs(found[1] - found[0])

    period = visibility = None
    with contextlib.suppress(NoFringeError):
        period, visibility = fringe_metrics(x_wf)
    env_std = float(np.sqrt(2.0 * quadrature_moment(x_wf)))

    return CatMetrics(
        peak_positions=positions,
        peak_std=std,
        peak_separation=separation,
        fringe_period=period,
        envelope_std=env_std,
        visibility=visibility,
        resolvable=resolvable,
        reachable=reachable,
        combined=combined,
    )


def analyze_cat(xi2: float, beta: float, p_R: float):
    """(cat_state, grid, wavefunctions, metrics) of the cat that the outcome
    p_R leaves, on `default_cat_grid` (on `grid_for_state` when mu_exact <=
    0).  wavefunctions are (name, wavefunction) pairs, the approximations
    only for mu_exact > 0, and the x one only where its norm does not
    underflow to 0.  An improbable outcome's error carries its
    `density` and the log_norm of the exact squeezed coefficients;
    coverage is checked last."""
    mu_exact, mu_approx = mu_of_outcome(p_R, beta, xi2)
    n_max = choose_truncation(xi2, beta, max(mu_exact, mu_approx, 0.0))
    squeezed = squeezed_state_exact(xi2, n_max)
    try:
        cat_state = apply_number_qnd(squeezed, beta, p_R)
    except ImprobableOutcomeError as exc:
        exc.log_norm = _squeezed_qnd_log_norm(xi2, n_max, beta, p_R)
        exc.density = float(outcome_density_second(squeezed, beta)(p_R))
        raise

    grid = (default_cat_grid(mu_exact, beta, effective_max_index(cat_state))
            if mu_exact > 0.0 else grid_for_state(cat_state))
    expanded = _expand([(cat_state, Basis.P), (cat_state, Basis.X)], grid)
    exact_p, exact_x = (riemann_normalize(wf) for wf in expanded)
    wavefunctions = [("cat_p", exact_p), ("cat_x", exact_x)]
    overlap_p = None
    if mu_exact > 0.0:
        if not (np.isfinite(beta * beta) and beta > 0.0):
            raise DomainError(f"beta must be positive with a finite square, got {beta}")
        approx_p = approx_p_wavefunction(mu_exact, beta, grid)
        wavefunctions.append(("cat_approx_p", approx_p))
        # At a tiny mu the x envelope is so narrow against the spacing that
        # the squares of its values underflow: with no norm, it is left out.
        with contextlib.suppress(DegenerateStateError):
            wavefunctions.append(("cat_approx_x", approx_x_wavefunction(mu_exact, beta, grid)))
        overlap_p = overlap(exact_p, approx_p)

    metrics = asdict(compute_cat_metrics(exact_p, exact_x, mu_exact, beta, xi2))
    metrics.update(mu_exact=mu_exact, mu_approx=mu_approx, overlap_p_approx=overlap_p,
                   p_R=p_R, xi2=xi2, beta=beta)
    _check_coverage(expanded)
    return cat_state, grid, wavefunctions, metrics
