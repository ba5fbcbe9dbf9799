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
    """Sample and probe parameters.  `spincat.cli.FIELDS` and
    `cli._feasibility_rules` check their bounds; `evaluate_scenario`
    checks none of them."""

    kappa0: float            # resonant optical depth (dimensionless)
    gamma: float             # linewidth
    delta: float             # detuning, same unit as gamma, delta >= 10 gamma
    n_atoms: int
    n_photons: float
    transmission: float = 1.0    # cavity T; 1 = free space
    polarization: float = 0.99   # spin polarization fraction
    tau_c: float = 0.1           # ground-state coherence time, seconds


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


def evaluate_scenario(params: ExperimentalParams) -> FeasibilityReport:
    """The chain, in one pass over parameters inside the bounds that
    `spincat.cli` checks (kappa0, gamma, n_photons, tau_c > 0, n_atoms >=
    1, 0 < transmission <= 1, 0 < polarization < 1, delta >= 10 gamma):
    kappa_detuned = kappa0 gamma^2 / 4 delta^2, theta_detuned =
    kappa0 gamma / 2 delta; in a cavity (T < 1) each single-pass value v
    must lie below T/10 and becomes 2 v / T, and the effective depth is
    2 kappa0 / T (kappa0 in free space); a = theta/N_a, xi2_raw =
    a^2 N_a N_p / 4, beta = a sqrt(2 N_p), eta = kappa_detuned N_p / N_a;
    xi2_achieved = min(xi2_raw, sqrt(depth)/2, 1/(1 - polarization)); the
    cat needs depth >= 4 N_a^(2/3) and xi2 >= N_a^(1/3); coherence is
    eta <= 1/xi2, the rotation tolerance 1/(xi2 sqrt(N_a)) and the
    lifetime tau_c / xi2.  DomainError where the chain has no value: a
    single-pass value not small against T, 4 delta^2, eta or xi2
    underflowing to 0, or a report field past the double range (naming
    the first such field)."""
    kappa0, gamma, delta = params.kappa0, params.gamma, params.delta
    n_atoms, n_photons, transmission = params.n_atoms, params.n_photons, params.transmission
    denominator = 4.0 * delta * delta
    if denominator == 0.0:
        raise DomainError(f"kappa_detuned is undefined: 4*delta**2 underflows to 0 "
                          f"(delta={delta}), the inputs leave the double range")
    kappa_d = kappa0 * gamma * gamma / denominator
    theta_d = kappa0 * gamma / (2.0 * delta)

    cavity = transmission < 1.0
    theta_eff, kappa_d_eff, effective = theta_d, kappa_d, kappa0
    if cavity:
        for value in (theta_d, kappa_d):
            if not value < transmission / 10.0:
                raise DomainError(
                    f"single-pass value {value} is not small against "
                    f"transmission {transmission} (requires value < T/10 = {transmission / 10.0})")
        theta_eff, kappa_d_eff, effective = (2.0 * theta_d / transmission,
                                             2.0 * kappa_d / transmission,
                                             2.0 * kappa0 / transmission)

    a = theta_eff / n_atoms
    xi2_raw = a * a * n_atoms * n_photons / 4.0
    beta = a * np.sqrt(2.0 * n_photons)
    eta = kappa_d_eff * n_photons / n_atoms
    xi2_depth = float(np.sqrt(effective) / 2.0)
    xi2_pol = 1.0 / (1.0 - params.polarization)
    xi2 = min(xi2_raw, xi2_depth, xi2_pol)
    if eta <= 0 or xi2 <= 0:
        raise DomainError("eta and xi2 must be positive")

    cbrt_n = np.cbrt(float(n_atoms))
    threshold = 4.0 * cbrt_n ** 2
    depth_ok = bool(effective >= threshold * (1.0 - _DEPTH_REL_TOL))
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
        xi2_achieved=xi2,
        beta=beta,
        eta=eta,
        xi2_max_depth=xi2_depth,
        xi2_max_polarization=xi2_pol,
        xi2_required_cat=float(cbrt_n),
        effective_depth=effective,
        depth_threshold=threshold,
        depth_condition_met=depth_ok,
        depth_flag=flag,
        coherence_ok=eta <= 1.0 / xi2,
        rotation_tolerance=1.0 / (xi2 * np.sqrt(float(n_atoms))),
        cat_lifetime=params.tau_c / xi2,
        cavity_applied=cavity,
        inputs=asdict(params),
    )
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise DomainError(f"{field.name} is {value}: the inputs leave the double range")
    return report


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
