"""Experimental-parameter algebra: from sample and probe parameters to the
effective couplings (xi2, beta) and the depumping fraction eta, plus every
feasibility constraint, in free space or inside a low-finesse cavity.

Only ratios of gamma and delta enter, so any shared unit works.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DomainError

# A depth within this factor of the requirement counts as "marginal".
MARGINAL_FRACTION = 0.4

# Relative slack for the depth comparison; the boundary case
# 2*kappa0/T == 4*n_atoms**(2/3) must not fail by a rounding ulp.
_DEPTH_REL_TOL = 1e-12


@dataclass(frozen=True)
class ExperimentalParams:
    kappa0: float            # resonant optical depth (dimensionless)
    gamma: float             # linewidth
    delta: float             # detuning, same unit as gamma, |delta| >= 10 gamma
    n_atoms: int
    n_photons: float
    transmission: float = 1.0    # cavity T; 1 = free space
    polarization: float = 0.99   # spin polarization fraction
    tau_c: float = 0.1           # ground-state coherence time, seconds

    def __post_init__(self):
        problems = []
        if not self.kappa0 > 0:
            problems.append(f"kappa0 must be positive (got {self.kappa0})")
        if not self.gamma > 0:
            problems.append(f"gamma must be positive (got {self.gamma})")
        if abs(self.delta) < 10.0 * self.gamma:
            problems.append(
                f"far-detuned regime requires |delta| >= 10*gamma "
                f"(got delta={self.delta}, gamma={self.gamma})"
            )
        if not self.n_atoms >= 1:
            problems.append(f"n_atoms must be >= 1 (got {self.n_atoms})")
        if not self.n_photons > 0:
            problems.append(f"n_photons must be positive (got {self.n_photons})")
        if not 0.0 < self.transmission <= 1.0:
            problems.append(f"transmission must lie in (0, 1] (got {self.transmission})")
        if not 0.0 < self.polarization < 1.0:
            problems.append(f"polarization must lie in (0, 1) (got {self.polarization})")
        if not self.tau_c > 0:
            problems.append(f"tau_c must be positive (got {self.tau_c})")
        if problems:
            raise DomainError("; ".join(problems))


@dataclass(frozen=True)
class FeasibilityReport:
    kappa_detuned: float
    theta_detuned: float
    a_per_atom: float
    xi2_raw: float
    xi2_achieved: float
    beta: float
    eta: float
    xi2_max_depth: float
    xi2_max_polarization: float
    xi2_required_cat: float
    effective_depth: float
    depth_threshold: float
    depth_condition_met: bool
    depth_flag: str            # met | marginal | unmet
    coherence_ok: bool
    rotation_tolerance: float
    cat_lifetime: float
    cavity_applied: bool
    inputs: dict


def detuned_optics(kappa0: float, gamma: float, delta: float) -> tuple[float, float]:
    """(kappa_detuned, theta_detuned) = (kappa0 gamma^2 / 4 delta^2,
    kappa0 gamma / 2 delta)."""
    if kappa0 <= 0 or gamma <= 0:
        raise DomainError("kappa0 and gamma must be positive")
    if abs(delta) < 10.0 * gamma:
        raise DomainError(
            f"far-detuned regime requires |delta| >= 10*gamma "
            f"(got delta={delta}, gamma={gamma})"
        )
    kappa_d = kappa0 * gamma * gamma / (4.0 * delta * delta)
    theta_d = kappa0 * gamma / (2.0 * delta)
    return kappa_d, theta_d


def coupling_chain(theta_detuned: float, kappa_detuned: float,
                   n_atoms: float, n_photons: float) -> tuple[float, float, float, float]:
    """(a, xi2, beta, eta): per-atom rotation a = theta/N_a, squeezing
    xi2 = a^2 N_a N_p / 4, number coupling beta = a sqrt(2 N_p), and
    depumping eta = kappa_detuned N_p / N_a."""
    if min(theta_detuned, kappa_detuned, n_atoms, n_photons) <= 0:
        raise DomainError("coupling chain inputs must all be positive")
    a = theta_detuned / n_atoms
    xi2 = a * a * n_atoms * n_photons / 4.0
    beta = a * np.sqrt(2.0 * n_photons)
    eta = kappa_detuned * n_photons / n_atoms
    return a, xi2, beta, eta


def max_squeezing_depth(kappa0: float) -> float:
    """Depth-limited squeezing bound sqrt(kappa0)/2."""
    if kappa0 <= 0:
        raise DomainError(f"kappa0 must be positive, got {kappa0}")
    return float(np.sqrt(kappa0) / 2.0)


def coherence_ok(eta: float, xi2: float) -> bool:
    """Depumping must satisfy eta <= 1/xi2."""
    if eta <= 0 or xi2 <= 0:
        raise DomainError("eta and xi2 must be positive")
    return eta <= 1.0 / xi2


def cat_conditions_experimental(kappa0: float, n_atoms: float,
                                transmission: float) -> tuple[bool, float]:
    """(depth_ok, xi2_required): the effective depth (2 kappa0 / T in a
    cavity, kappa0 in free space) must reach 4 N_a^(2/3), and the cat needs
    squeezing xi2 >= N_a^(1/3)."""
    if kappa0 <= 0 or n_atoms <= 0:
        raise DomainError("kappa0 and n_atoms must be positive")
    if not 0.0 < transmission <= 1.0:
        raise DomainError(f"transmission must lie in (0, 1], got {transmission}")
    effective = 2.0 * kappa0 / transmission if transmission < 1.0 else kappa0
    threshold = 4.0 * np.cbrt(float(n_atoms)) ** 2
    depth_ok = effective >= threshold * (1.0 - _DEPTH_REL_TOL)
    return bool(depth_ok), float(np.cbrt(float(n_atoms)))


def cavity_enhancement(value: float, transmission: float) -> float:
    """Single-pass quantity -> cavity-enhanced 2*value/T; valid only when
    the single-pass value is much smaller than T (enforced as < T/10)."""
    if not 0.0 < transmission < 1.0:
        raise DomainError(f"transmission must lie in (0, 1), got {transmission}")
    if not value < transmission / 10.0:
        raise DomainError(
            f"single-pass value {value} is not small against transmission "
            f"{transmission} (requires value < T/10 = {transmission / 10.0})"
        )
    return 2.0 * value / transmission


def polarization_limit(polarization: float) -> float:
    """Heuristic squeezing cap 1/(1 - polarization)."""
    if not 0.0 < polarization < 1.0:
        raise DomainError(f"polarization must lie in (0, 1), got {polarization}")
    return 1.0 / (1.0 - polarization)


def rotation_tolerance(xi2: float, n_atoms: float) -> float:
    """Required inter-measurement rotation precision 1/(xi2 sqrt(N_a))."""
    if xi2 <= 0 or n_atoms <= 0:
        raise DomainError("xi2 and n_atoms must be positive")
    return 1.0 / (xi2 * np.sqrt(float(n_atoms)))


def cat_lifetime(tau_c: float, xi2: float) -> float:
    """Superposition lifetime tau_c / xi2 (that of the parent squeezed state)."""
    if tau_c <= 0 or xi2 <= 0:
        raise DomainError("tau_c and xi2 must be positive")
    return tau_c / xi2


def evaluate_scenario(params: ExperimentalParams) -> FeasibilityReport:
    """Full chain: detuned optics -> cavity enhancement (if T < 1) ->
    couplings -> every constraint check.  Domain errors carry the name of
    the failing stage; a report field that overflows to inf or NaN raises
    DomainError naming the first such field."""
    kappa_d, theta_d = _stage("detuned_optics", detuned_optics,
                              params.kappa0, params.gamma, params.delta)

    cavity = params.transmission < 1.0
    if cavity:
        theta_eff = _stage("cavity_enhancement", cavity_enhancement,
                           theta_d, params.transmission)
        kappa_d_eff = _stage("cavity_enhancement", cavity_enhancement,
                             kappa_d, params.transmission)
        kappa0_eff = 2.0 * params.kappa0 / params.transmission
    else:
        theta_eff, kappa_d_eff, kappa0_eff = theta_d, kappa_d, params.kappa0

    a, xi2_raw, beta, eta = _stage("coupling_chain", coupling_chain,
                                   theta_eff, kappa_d_eff,
                                   params.n_atoms, params.n_photons)

    xi2_depth = max_squeezing_depth(kappa0_eff)
    xi2_pol = polarization_limit(params.polarization)
    xi2_achieved = min(xi2_raw, xi2_depth, xi2_pol)

    depth_ok, xi2_required = cat_conditions_experimental(
        params.kappa0, params.n_atoms, params.transmission)
    effective = kappa0_eff
    threshold = 4.0 * np.cbrt(float(params.n_atoms)) ** 2
    if depth_ok:
        flag = "met"
    elif effective >= MARGINAL_FRACTION * threshold:
        flag = "marginal"
    else:
        flag = "unmet"

    report = FeasibilityReport(
        kappa_detuned=kappa_d,
        theta_detuned=theta_d,
        a_per_atom=a,
        xi2_raw=xi2_raw,
        xi2_achieved=xi2_achieved,
        beta=beta,
        eta=eta,
        xi2_max_depth=xi2_depth,
        xi2_max_polarization=xi2_pol,
        xi2_required_cat=xi2_required,
        effective_depth=effective,
        depth_threshold=threshold,
        depth_condition_met=depth_ok,
        depth_flag=flag,
        coherence_ok=coherence_ok(eta, xi2_achieved),
        rotation_tolerance=rotation_tolerance(xi2_achieved, params.n_atoms),
        cat_lifetime=cat_lifetime(params.tau_c, xi2_achieved),
        cavity_applied=cavity,
        inputs=asdict(params),
    )
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise DomainError(f"{field.name} is {value}: the inputs leave the double range")
    return report


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        raise DomainError(f"stage {name}: {exc}") from exc


# The two reference scenarios: a free-space cigar-shaped condensate probed
# far off resonance, and a small sample inside a low-finesse cavity.  Photon
# numbers are chosen to sit at the depumping boundary eta = 1/xi2, where the
# raw squeezing meets the depth cap.
PRESETS = {
    "bec-free-space": ExperimentalParams(
        kappa0=1e4, gamma=1.0, delta=100.0,
        n_atoms=400_000, n_photons=32_000.0,
        transmission=1.0, polarization=0.99, tau_c=0.1,
    ),
    "bec-cavity": ExperimentalParams(
        kappa0=10.0, gamma=1.0, delta=1e4,
        n_atoms=1_000, n_photons=1e8,
        transmission=0.05, polarization=0.99, tau_c=0.1,
    ),
}
