import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spincat.feasibility as feas
from spincat import (
    DomainError,
    ExperimentalParams,
    PRESETS,
    evaluate_scenario,
)
from spincat.feasibility import (
    cat_conditions_experimental,
    cat_lifetime,
    cavity_enhancement,
    coherence_ok,
    coupling_chain,
    detuned_optics,
    max_squeezing_depth,
    polarization_limit,
    rotation_tolerance,
)

positive = st.floats(1e-6, 1e8)


def test_detuned_optics_reference():
    kappa_d, theta_d = detuned_optics(1e4, 1.0, 100.0)
    assert kappa_d == 0.25
    assert theta_d == 50.0


def test_detuned_optics_quadratic_scaling():
    k1, _ = detuned_optics(123.0, 1.0, 50.0)
    k2, _ = detuned_optics(123.0, 1.0, 100.0)
    assert k1 / k2 == 4.0


@given(kappa0=positive, gamma=st.floats(1e-3, 1e3), ratio=st.floats(10.0, 1e6))
@settings(max_examples=50, deadline=None)
def test_detuned_optics_identity(kappa0, gamma, ratio):
    kappa_d, theta_d = detuned_optics(kappa0, gamma, ratio * gamma)
    assert theta_d ** 2 / kappa_d == pytest.approx(kappa0, rel=1e-12)


def test_detuned_optics_regime_violation():
    with pytest.raises(DomainError):
        detuned_optics(1e4, 1.0, 5.0)


def test_coupling_chain_reference():
    # eta = 0.02 at kappa0 = 1e4 gives xi2 = kappa0*eta/4 = 50
    theta_d, kappa_d = 50.0, 0.25
    n_atoms, n_photons = 4e5, 32_000.0
    a, xi2, beta, eta = coupling_chain(theta_d, kappa_d, n_atoms, n_photons)
    assert a == pytest.approx(1.25e-4, rel=1e-12)
    assert eta == pytest.approx(0.02, rel=1e-12)
    kappa0 = theta_d ** 2 / kappa_d
    assert xi2 == pytest.approx(kappa0 * eta / 4.0, rel=1e-12)
    assert xi2 == pytest.approx(50.0, rel=1e-12)


@given(theta=positive, kappa_d=positive, n_atoms=st.floats(1.0, 1e9),
       n_photons=st.floats(1.0, 1e12))
@settings(max_examples=50, deadline=None)
def test_coupling_chain_identities(theta, kappa_d, n_atoms, n_photons):
    a, xi2, beta, eta = coupling_chain(theta, kappa_d, n_atoms, n_photons)
    # beta^2 N_a = 8 xi2 exactly, from the two definitions
    assert beta ** 2 * n_atoms == pytest.approx(8.0 * xi2, rel=1e-12)
    # xi2 = kappa0 * eta / 4 with kappa0 = theta^2 / kappa_d
    assert xi2 == pytest.approx((theta ** 2 / kappa_d) * eta / 4.0, rel=1e-12)


def test_coupling_chain_photon_number_linearity():
    base = coupling_chain(50.0, 0.25, 4e5, 1e4)
    double = coupling_chain(50.0, 0.25, 4e5, 2e4)
    assert double[1] / base[1] == 2.0  # xi2
    assert double[3] / base[3] == 2.0  # eta


def test_max_squeezing_depth():
    assert max_squeezing_depth(1e4) == 50.0
    assert max_squeezing_depth(4.0) == 1.0
    assert max_squeezing_depth(400.0) == 10.0


def test_coherence_ok():
    assert coherence_ok(0.01, 50.0) is True
    assert coherence_ok(0.05, 50.0) is False
    assert coherence_ok(0.9, 1.0) is True


def test_cat_conditions_experimental_free_space():
    depth_ok, xi2_required = cat_conditions_experimental(1e4, 4e5, 1.0)
    assert depth_ok is False
    assert xi2_required == pytest.approx(np.cbrt(4e5), rel=1e-12)
    assert 4.0 * np.cbrt(4e5) ** 2 == pytest.approx(21715.34, abs=0.01)


def test_cat_conditions_experimental_cavity_boundary():
    depth_ok, xi2_required = cat_conditions_experimental(10.0, 1e3, 0.05)
    assert depth_ok is True
    assert xi2_required == 10.0


def test_cat_conditions_experimental_single_atom_scale():
    depth_ok, xi2_required = cat_conditions_experimental(4.0, 1, 1.0)
    assert xi2_required == 1.0
    assert depth_ok is True
    assert cat_conditions_experimental(3.9, 1, 1.0)[0] is False


def test_cavity_enhancement():
    assert cavity_enhancement(0.001, 0.05) == pytest.approx(0.04, rel=1e-12)
    assert cavity_enhancement(0.001, 1.0 - 1e-12) == pytest.approx(0.002, rel=1e-9)
    with pytest.raises(DomainError):
        cavity_enhancement(0.02, 0.05)
    with pytest.raises(DomainError):
        cavity_enhancement(0.001, 1.0)


def test_polarization_limit():
    assert polarization_limit(0.99) == pytest.approx(100.0, rel=1e-12)
    assert polarization_limit(0.5) == pytest.approx(2.0, rel=1e-12)
    assert polarization_limit(0.9999) == pytest.approx(1e4, rel=1e-10)


def test_rotation_tolerance():
    assert rotation_tolerance(50.0, 4e5) == pytest.approx(3.1623e-5, rel=1e-4)
    assert rotation_tolerance(10.0, 1e3) == pytest.approx(3.1623e-3, rel=1e-4)
    assert rotation_tolerance(1.0, 1.0) == 1.0


def test_cat_lifetime():
    assert cat_lifetime(0.1, 50.0) == pytest.approx(2e-3, rel=1e-12)
    assert cat_lifetime(0.1, 10.0) == pytest.approx(1e-2, rel=1e-12)
    assert cat_lifetime(0.7, 1.0) == 0.7


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


def test_free_space_never_calls_cavity_enhancement(monkeypatch):
    def boom(*args):
        raise AssertionError("cavity enhancement applied in free space")

    monkeypatch.setattr(feas, "cavity_enhancement", boom)
    report = feas.evaluate_scenario(PRESETS["bec-free-space"])
    assert report.cavity_applied is False
    with pytest.raises(AssertionError):
        feas.evaluate_scenario(PRESETS["bec-cavity"])


def test_stage_name_propagates():
    params = ExperimentalParams(kappa0=10.0, gamma=1.0, delta=100.0,
                                n_atoms=1000, n_photons=1e8,
                                transmission=0.05)
    # theta at this detuning is not small against T: the cavity stage fails
    with pytest.raises(DomainError, match="cavity_enhancement"):
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
    grid = (1.0, 10.0, 100.0)
    for n_atoms in grid:
        tols = [rotation_tolerance(x, n_atoms) for x in grid]
        assert all(b < a for a, b in zip(tols, tols[1:]))
    for xi2 in grid:
        tols = [rotation_tolerance(xi2, n) for n in grid]
        assert all(b < a for a, b in zip(tols, tols[1:]))


def test_combined_condition_implied_by_depth_derivation():
    # whenever the raw squeezing reaches N_a^(1/3), beta*xi2 exceeds 1 with
    # a 2*sqrt(2) margin (from beta^2 N_a = 8 xi2)
    for n_atoms in np.logspace(2, 6, 5):
        for kappa0 in np.logspace(1, 5, 5):
            for n_photons in np.logspace(3, 9, 7):
                kappa_d, theta_d = detuned_optics(kappa0, 1.0, 1e3)
                _, xi2, beta, _ = coupling_chain(theta_d, kappa_d, n_atoms, n_photons)
                if xi2 >= np.cbrt(n_atoms):
                    assert beta * xi2 >= 2.0 * np.sqrt(2.0) * (1.0 - 1e-9)
                    assert beta * xi2 > 1.0


# ---------------------------------------------------------------------------
# parameter types


def test_experimental_params_validation():
    with pytest.raises(DomainError):
        ExperimentalParams(kappa0=-1.0, gamma=1.0, delta=100.0,
                           n_atoms=10, n_photons=10.0)
    with pytest.raises(DomainError):
        ExperimentalParams(kappa0=1.0, gamma=1.0, delta=5.0,
                           n_atoms=10, n_photons=10.0)
