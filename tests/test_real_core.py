"""The real, even core against the general complex copy in helpers.py.

The core keeps amplitudes and wavefunctions real, so its norms, sums and
inner products reduce in a different order than the complex forms it
replaced: the results may differ in the last bits, within the bounds
below, and nowhere else.  The expansions themselves are bitwise equal.
"""

from dataclasses import asdict

import numpy as np
import pytest

from helpers import (
    GeneralState,
    complex_bits,
    general_apply_number_qnd,
    general_expand,
    general_overlap,
    general_quadrature_variances,
    normalized,
)
from spincat import (
    Basis,
    QuadratureWavefunction,
    analyze_cat,
    choose_truncation,
    compute_cat_metrics,
    grid_for_state,
    quadrature_variances,
    squeezed_state_exact,
    squeezed_state_stirling,
)
from spincat.state import _expand

TOL_VALUES = 1e-15      # of the peak |value|
TOL_AMPLITUDES = 1e-15  # relative, per amplitude
TOL_METRICS = 1e-14     # relative, per metric
TOL_MOMENTS = 1e-15     # of dp2


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


@pytest.mark.parametrize("xi2, beta, pr_over_beta", [
    (20.0, 1.0 / 3.0, 7.0), (200.0, 0.05, 100.0)], ids=["reference", "large"])
def test_cat_against_complex_copy(xi2, beta, pr_over_beta):
    p_R = beta * pr_over_beta
    cat, grid, wavefunctions, metrics = analyze_cat(xi2, beta, p_R, 1e-10)
    general = general_apply_number_qnd(
        GeneralState(squeezed_state_exact(xi2, cat.n_max).amplitudes), beta, p_R)
    assert not general.amplitudes.imag.any()
    assert np.all(np.abs(cat.amplitudes - general.amplitudes.real)
                  <= TOL_AMPLITUDES * np.abs(general.amplitudes.real))

    emitted = dict(wavefunctions)
    expanded = general_expand([(general, Basis.P), (general, Basis.X)], grid)
    for name, wf in zip(("cat_p", "cat_x"), (normalized(w) for w in expanded)):
        assert not wf.values.imag.any()
        peak = np.abs(wf.values).max()
        assert np.abs(emitted[name].values - wf.values.real).max() <= TOL_VALUES * peak, name
    exact_p, exact_x = (QuadratureWavefunction(grid, normalized(w).values, w.basis)
                        for w in expanded)
    expected = asdict(compute_cat_metrics(exact_p, exact_x, metrics["mu_exact"], beta, xi2))
    expected["overlap_p_approx"] = general_overlap(normalized(expanded[0]),
                                                   emitted["cat_approx_p"])
    for key, value in expected.items():
        got = metrics[key]
        if isinstance(value, float):
            assert close(got, value, TOL_METRICS), key
        elif isinstance(value, tuple):
            assert all(close(g, v, TOL_METRICS) for g, v in zip(got, value)), key
        else:
            assert got == value, key


@pytest.mark.parametrize("xi2", [20.0, 150.0])
def test_squeeze_against_complex_copy(xi2):
    n_max = choose_truncation(xi2, 1.0, 0.0, 1e-10)
    exact = squeezed_state_exact(xi2, n_max)
    stirling = squeezed_state_stirling(xi2, n_max)
    grid = grid_for_state(exact)
    states = (exact, stirling)
    pairs = [(state, basis) for state in states for basis in (Basis.P, Basis.X)]
    general_pairs = [(GeneralState(s.amplitudes), b) for s, b in pairs]
    for real, general in zip(_expand(pairs, grid), general_expand(general_pairs, grid)):
        assert complex_bits(real.values) == general.values.tobytes()

    dx2, dp2 = quadrature_variances(exact)
    ref_dx2, ref_dp2 = general_quadrature_variances(GeneralState(exact.amplitudes))
    assert abs(dx2 - ref_dx2) <= TOL_MOMENTS * ref_dp2
    assert abs(dp2 - ref_dp2) <= TOL_MOMENTS * ref_dp2
    # The Stirling overlap as `spincat squeeze` computes it.
    overlap = float(abs(np.vdot(exact.amplitudes, stirling.amplitudes)))
    ref_overlap = float(abs(np.vdot(exact.amplitudes.astype(complex),
                                    stirling.amplitudes.astype(complex))))
    assert close(overlap, ref_overlap, TOL_METRICS)
