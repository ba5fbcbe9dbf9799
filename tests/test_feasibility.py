from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincat.errors import DomainError
from spincat.feasibility import ExperimentalParams, FeasibilityReport, PRESETS, evaluate_scenario

positive = st.floats(1e-6, 1e8)


def scenario(kappa0, delta, n_atoms, n_photons, gamma=1.0, **extra):
    return evaluate_scenario(ExperimentalParams(kappa0=kappa0, gamma=gamma, delta=delta,
                                                n_atoms=n_atoms, n_photons=n_photons, **extra))


FREE = evaluate_scenario(PRESETS["bec-free-space"])
CAVITY = evaluate_scenario(PRESETS["bec-cavity"])


# ---------------------------------------------------------------------------
# the chain's stages, read off the report


def test_detuned_optics_reference():
    assert FREE.kappa_detuned == 0.25
    assert FREE.theta_detuned == 50.0


def test_detuned_optics_quadratic_scaling():
    k1 = scenario(123.0, 50.0, 1000, 1e6).kappa_detuned
    k2 = scenario(123.0, 100.0, 1000, 1e6).kappa_detuned
    assert k1 / k2 == 4.0


@given(kappa0=positive, gamma=st.floats(1e-3, 1e3), ratio=st.floats(10.0, 1e6))
@settings(max_examples=50, deadline=None)
def test_detuned_optics_identity(kappa0, gamma, ratio):
    report = scenario(kappa0, ratio * gamma, 1000, 1e6, gamma=gamma)
    assert report.theta_detuned ** 2 / report.kappa_detuned == pytest.approx(kappa0, rel=1e-12)


def test_coupling_chain_reference():
    # eta = 0.02 at kappa0 = 1e4 gives xi2 = kappa0*eta/4 = 50
    assert FREE.a_per_atom == pytest.approx(1.25e-4, rel=1e-12)
    assert FREE.eta == pytest.approx(0.02, rel=1e-12)
    kappa0 = FREE.theta_detuned ** 2 / FREE.kappa_detuned
    assert FREE.xi2_raw == pytest.approx(kappa0 * FREE.eta / 4.0, rel=1e-12)
    assert FREE.xi2_raw == pytest.approx(50.0, rel=1e-12)


@given(kappa0=positive, gamma=st.floats(1e-3, 1e3), ratio=st.floats(10.0, 1e6),
       n_atoms=st.integers(1, 10 ** 9), n_photons=st.floats(1.0, 1e12))
@settings(max_examples=50, deadline=None)
def test_coupling_chain_identities(kappa0, gamma, ratio, n_atoms, n_photons):
    report = scenario(kappa0, ratio * gamma, n_atoms, n_photons, gamma=gamma)
    # beta^2 N_a = 8 xi2 exactly, from the two definitions
    assert report.beta ** 2 * n_atoms == pytest.approx(8.0 * report.xi2_raw, rel=1e-12)
    # xi2 = kappa0 * eta / 4 with kappa0 = theta^2 / kappa_d
    kappa0_back = report.theta_detuned ** 2 / report.kappa_detuned
    assert kappa0_back == pytest.approx(kappa0, rel=1e-12)
    assert report.xi2_raw == pytest.approx(kappa0_back * report.eta / 4.0, rel=1e-12)


def test_coupling_chain_photon_number_linearity():
    base = scenario(1e4, 100.0, 400_000, 1e4)
    double = scenario(1e4, 100.0, 400_000, 2e4)
    assert double.xi2_raw / base.xi2_raw == 2.0
    assert double.eta / base.eta == 2.0


def test_max_squeezing_depth():
    assert FREE.xi2_max_depth == 50.0
    assert scenario(4.0, 100.0, 1000, 1e6).xi2_max_depth == 1.0
    assert scenario(400.0, 100.0, 1000, 1e6).xi2_max_depth == 10.0


def test_coherence_ok():
    for kappa0, delta, n_atoms, n_photons, expected in [
        (1e4, 100.0, 400_000, 16_000.0, True),   # eta 0.01, xi2 25
        (1e4, 100.0, 400_000, 64_000.0, False),  # eta 0.04, xi2 capped at 50
        (4.0, 10.0, 1000, 9e4, True),            # eta 0.9, xi2 0.9
    ]:
        report = scenario(kappa0, delta, n_atoms, n_photons)
        assert report.coherence_ok is expected
        assert expected == (report.eta <= 1.0 / report.xi2_achieved)


def test_cat_conditions_experimental_free_space():
    assert FREE.depth_condition_met is False
    assert FREE.xi2_required_cat == pytest.approx(np.cbrt(4e5), rel=1e-12)
    assert FREE.depth_threshold == pytest.approx(21715.34, abs=0.01)


def test_cat_conditions_experimental_cavity_boundary():
    assert CAVITY.depth_condition_met is True
    assert CAVITY.xi2_required_cat == 10.0


def test_depth_tolerance_meets_the_boundary_and_no_depth_1e9_below():
    """feasibility._DEPTH_REL_TOL: a depth on the boundary 2 kappa0/T =
    4 N_a^(2/3) (kappa0 in free space) counts as met, also where the doubles
    of kappa0 and T put the exact depth a rounding below it, and a depth
    1e-9 below it, relative, does not.  With N_a = k**3 the threshold is
    exactly 4 k**2; fractions decide on which side of it the exact depth
    of the doubles lies."""
    preset = PRESETS["bec-cavity"]
    cases = [(preset, 0.0)]
    for k in (1, 7, 10, 100, 1000):
        for transmission in (1.0, 0.9, 1.0 / 3.0, 0.3, 0.05):
            gain = 2.0 / transmission if transmission < 1.0 else 1.0
            for below in (0.0, 1e-9):
                params = ExperimentalParams(
                    kappa0=4.0 * k * k * (1.0 - below) / gain, gamma=1.0, delta=1e9,
                    n_atoms=k ** 3, n_photons=1e6, transmission=transmission)
                cases.append((params, below))
    needs_tolerance = 0
    for params, below in cases:
        k = round(params.n_atoms ** (1.0 / 3.0))
        assert k ** 3 == params.n_atoms
        depth = Fraction(params.kappa0)
        if params.transmission < 1.0:
            depth *= 2 / Fraction(params.transmission)
        offset = depth / (4 * k * k) - 1
        report = evaluate_scenario(params)
        where = f"{params}: exact relative offset {float(offset):.3g}"
        if below:
            assert -1.000001e-9 < offset < -0.999999e-9, where
            assert report.depth_condition_met is False and report.depth_flag == "marginal", where
        else:
            assert abs(offset) < 2 ** -50, where
            assert report.depth_condition_met is True and report.depth_flag == "met", where
            needs_tolerance += report.effective_depth < report.depth_threshold
    # At k = 1, T = 0.9 the depth in doubles is 3.9999999999999996: only the
    # tolerance admits it.
    assert needs_tolerance >= 1


def test_cat_conditions_experimental_single_atom_scale():
    report = scenario(4.0, 100.0, 1, 1e6)
    assert report.xi2_required_cat == 1.0
    assert report.depth_condition_met is True
    assert scenario(3.9, 100.0, 1, 1e6).depth_condition_met is False


def test_cavity_enhancement():
    # theta_detuned = 0.001 at kappa0 = 0.2, delta = 100
    enhanced = scenario(0.2, 100.0, 1, 1e6, transmission=0.05)
    assert enhanced.a_per_atom == pytest.approx(0.04, rel=1e-12)
    assert enhanced.effective_depth == pytest.approx(8.0, rel=1e-12)
    nearly_open = scenario(0.2, 100.0, 1, 1e6, transmission=1.0 - 1e-12)
    assert nearly_open.a_per_atom == pytest.approx(0.002, rel=1e-9)
    assert nearly_open.cavity_applied is True
    with pytest.raises(DomainError, match="not small against transmission"):
        scenario(4.0, 100.0, 1, 1e6, transmission=0.05)  # theta_detuned 0.02
    free = scenario(0.2, 100.0, 1, 1e6, transmission=1.0)
    assert free.a_per_atom == free.theta_detuned and free.cavity_applied is False


def test_polarization_limit():
    def limit(polarization):
        return scenario(1e4, 100.0, 1000, 1e6, polarization=polarization).xi2_max_polarization

    assert limit(0.99) == pytest.approx(100.0, rel=1e-12)
    assert limit(0.5) == pytest.approx(2.0, rel=1e-12)
    assert limit(0.9999) == pytest.approx(1e4, rel=1e-10)


def test_rotation_tolerance():
    assert FREE.rotation_tolerance == pytest.approx(3.1623e-5, rel=1e-4)   # xi2 50
    assert CAVITY.rotation_tolerance == pytest.approx(3.1623e-3, rel=1e-4)  # xi2 10
    assert scenario(4.0, 100.0, 1, 1e6).rotation_tolerance == 1.0          # xi2 1


def test_cat_lifetime():
    assert FREE.cat_lifetime == pytest.approx(2e-3, rel=1e-12)
    assert CAVITY.cat_lifetime == pytest.approx(1e-2, rel=1e-12)
    assert scenario(4.0, 100.0, 1, 1e6, tau_c=0.7).cat_lifetime == 0.7


@given(kappa0_over_limit=st.floats(1e-6, 0.99), ratio=st.floats(10.0, 1e4),
       gamma=st.floats(1e-3, 1e3), n_atoms=st.integers(1, 10 ** 9),
       n_photons=st.floats(1.0, 1e12), transmission=st.one_of(st.just(1.0), st.floats(1e-3, 0.999)),
       polarization=st.floats(0.01, 0.9999), tau_c=st.floats(1e-3, 10.0))
@settings(max_examples=100, deadline=None)
def test_report_fields_match_their_closed_forms(kappa0_over_limit, ratio, gamma, n_atoms,
                                                n_photons, transmission, polarization, tau_c):
    # kappa0 sits below the cavity's small-signal limit 2 ratio T/10 on theta
    kappa0 = kappa0_over_limit * 2.0 * ratio * transmission / 10.0
    delta = ratio * gamma
    report = scenario(kappa0, delta, n_atoms, n_photons, gamma=gamma, transmission=transmission,
                      polarization=polarization, tau_c=tau_c)
    cavity = transmission < 1.0
    gain = 2.0 / transmission if cavity else 1.0
    kappa_d = kappa0 * (gamma / delta) ** 2 / 4.0
    theta = kappa0 * (gamma / delta) / 2.0
    a = gain * theta / n_atoms
    xi2_raw = gain ** 2 * theta ** 2 * n_photons / (4.0 * n_atoms)
    depth = gain * kappa0
    xi2 = min(xi2_raw, np.sqrt(depth) / 2.0, 1.0 / (1.0 - polarization))
    expected = {
        "kappa_detuned": kappa_d, "theta_detuned": theta, "a_per_atom": a,
        "xi2_raw": xi2_raw, "xi2_achieved": xi2, "beta": a * np.sqrt(2.0 * n_photons),
        "eta": gain * kappa_d * n_photons / n_atoms,
        "xi2_max_depth": np.sqrt(depth) / 2.0,
        "xi2_max_polarization": 1.0 / (1.0 - polarization),
        "xi2_required_cat": n_atoms ** (1.0 / 3.0),
        "effective_depth": depth, "depth_threshold": 4.0 * n_atoms ** (2.0 / 3.0),
        "rotation_tolerance": 1.0 / (xi2 * np.sqrt(n_atoms)),
        "cat_lifetime": tau_c / xi2,
    }
    floats = {f.name for f in fields(FeasibilityReport) if f.type == "float"}
    assert floats == set(expected)
    for name, value in expected.items():
        assert getattr(report, name) == pytest.approx(value, rel=1e-10), name
    assert report.cavity_applied is cavity
    assert report.coherence_ok == (report.eta <= 1.0 / report.xi2_achieved)
    assert report.depth_condition_met == (
        report.effective_depth >= report.depth_threshold * (1.0 - 1e-12))


# ---------------------------------------------------------------------------
# scenario evaluation


def test_free_space_preset_report():
    report = evaluate_scenario(PRESETS["bec-free-space"])
    assert report.xi2_max_depth == 50.0
    assert report.depth_condition_met is False
    assert report.depth_flag == "marginal"
    assert report.xi2_required_cat == pytest.approx(73.68, abs=0.01)
    assert report.xi2_achieved == pytest.approx(50.0, rel=1e-9)
    assert report.coherence_ok is True
    assert report.cavity_applied is False
    assert report.rotation_tolerance == pytest.approx(3.16e-5, rel=0.01)


def test_cavity_preset_report():
    report = evaluate_scenario(PRESETS["bec-cavity"])
    assert report.xi2_required_cat == 10.0
    assert report.depth_condition_met is True
    assert report.depth_flag == "met"
    assert report.xi2_achieved == pytest.approx(10.0, rel=1e-9)
    assert report.cavity_applied is True
    assert report.rotation_tolerance == pytest.approx(3.16e-3, rel=0.01)
    assert report.coherence_ok is True


def test_free_space_never_calls_cavity_enhancement():
    free, cavity = PRESETS["bec-free-space"], PRESETS["bec-cavity"]
    assert FREE.cavity_applied is False
    assert FREE.a_per_atom == FREE.theta_detuned / free.n_atoms
    assert CAVITY.cavity_applied is True
    assert CAVITY.a_per_atom == 2.0 * CAVITY.theta_detuned / cavity.transmission / cavity.n_atoms


def test_stage_name_propagates():
    params = ExperimentalParams(kappa0=10.0, gamma=1.0, delta=100.0,
                                n_atoms=1000, n_photons=1e8,
                                transmission=0.05)
    # theta at this detuning is not small against T: the cavity enhancement fails
    with pytest.raises(DomainError, match="is not small against transmission"):
        evaluate_scenario(params)


def test_xi2_achieved_monotone_in_depth_and_photons():
    def achieved(kappa0, n_photons):
        params = ExperimentalParams(kappa0=kappa0, gamma=1.0, delta=1e3,
                                    n_atoms=10_000, n_photons=n_photons)
        return evaluate_scenario(params).xi2_achieved

    values = [achieved(k, 1e6) for k in (10.0, 100.0, 1e3, 1e4, 1e5)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    values = [achieved(1e4, nph) for nph in (1e4, 1e5, 1e6, 1e7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rotation_tolerance_monotone():
    # rising xi2 (0.625, 6.25, then the depth cap 50) at fixed N_a
    reports = [scenario(1e4, 100.0, 1000, n_photons) for n_photons in (1.0, 10.0, 100.0)]
    xi2s = [r.xi2_achieved for r in reports]
    tols = [r.rotation_tolerance for r in reports]
    assert all(b > a for a, b in zip(xi2s, xi2s[1:]))
    assert all(b < a for a, b in zip(tols, tols[1:]))
    # rising N_a at xi2 held by the depth cap at 10
    reports = [scenario(400.0, 100.0, n_atoms, 1e6) for n_atoms in (1, 10, 100)]
    assert all(r.xi2_achieved == 10.0 for r in reports)
    tols = [r.rotation_tolerance for r in reports]
    assert all(b < a for a, b in zip(tols, tols[1:]))


def test_combined_condition_implied_by_depth_derivation():
    # whenever the raw squeezing reaches N_a^(1/3), beta*xi2 exceeds 1 with
    # a 2*sqrt(2) margin (from beta^2 N_a = 8 xi2)
    for n_atoms in np.logspace(2, 6, 5):
        for kappa0 in np.logspace(1, 5, 5):
            for n_photons in np.logspace(3, 9, 7):
                report = scenario(float(kappa0), 1e3, float(n_atoms), float(n_photons))
                xi2, beta = report.xi2_raw, report.beta
                if xi2 >= np.cbrt(n_atoms):
                    assert beta * xi2 >= 2.0 * np.sqrt(2.0) * (1.0 - 1e-9)
                    assert beta * xi2 > 1.0
