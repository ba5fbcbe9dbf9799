"""The real, even core against the oracles in helpers.py.

The expansions are bitwise those of `reference_expansions`, which adds one
complex term at a time on every grid point, so `_expand`'s half-grid
mirror, its x-basis sign flips and its one pass for several pairs are all
under test.  The QND step, norms, sums and inner products reduce in a
different order than their oracles (a plain-array QND step, exactly
rounded sums, long-double moments): the results may differ in the last
bits, within the bounds below, and nowhere else.
"""

import math
from dataclasses import asdict

import numpy as np
import pytest

from helpers import (
    general_apply_number_qnd,
    longdouble_quadrature_variances,
    normalized,
    reference_expansions,
)
from spincat import (
    Basis,
    NumberState,
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


def real_references(pairs, grid) -> list[np.ndarray]:
    references = reference_expansions(pairs, grid)
    assert not any(values.imag.any() for values in references)
    return [values.real for values in references]


@pytest.mark.parametrize("xi2, beta, pr_over_beta", [
    (20.0, 1.0 / 3.0, 7.0), (200.0, 0.05, 100.0)], ids=["reference", "large"])
def test_cat_against_oracles(xi2, beta, pr_over_beta):
    p_R = beta * pr_over_beta
    cat, grid, wavefunctions, metrics = analyze_cat(xi2, beta, p_R, 1e-10)
    reference = NumberState(general_apply_number_qnd(
        squeezed_state_exact(xi2, cat.n_max).amplitudes, beta, p_R))
    assert np.all(np.abs(cat.amplitudes - reference.amplitudes)
                  <= TOL_AMPLITUDES * np.abs(reference.amplitudes))

    emitted = dict(wavefunctions)
    p_values, x_values = real_references([(reference, Basis.P), (reference, Basis.X)], grid)
    exact_p = QuadratureWavefunction(grid, normalized(p_values, grid.spacing), Basis.P)
    exact_x = QuadratureWavefunction(grid, normalized(x_values, grid.spacing), Basis.X)
    for name, wf in (("cat_p", exact_p), ("cat_x", exact_x)):
        peak = np.abs(wf.values).max()
        assert np.abs(emitted[name].values - wf.values).max() <= TOL_VALUES * peak, name
    expected = asdict(compute_cat_metrics(exact_p, exact_x, metrics["mu_exact"], beta, xi2))
    expected["overlap_p_approx"] = abs(
        math.fsum(exact_p.values * emitted["cat_approx_p"].values) * grid.spacing)
    for key, value in expected.items():
        got = metrics[key]
        if isinstance(value, float):
            assert close(got, value, TOL_METRICS), key
        elif isinstance(value, tuple):
            assert all(close(g, v, TOL_METRICS) for g, v in zip(got, value)), key
        else:
            assert got == value, key


@pytest.mark.parametrize("xi2", [20.0, 150.0])
def test_squeeze_against_oracles(xi2):
    n_max = choose_truncation(xi2, 1.0, 0.0, 1e-10)
    exact = squeezed_state_exact(xi2, n_max)
    stirling = squeezed_state_stirling(xi2, n_max)
    grid = grid_for_state(exact)
    pairs = [(state, basis) for state in (exact, stirling) for basis in (Basis.P, Basis.X)]
    for wf, values in zip(_expand(pairs, grid), real_references(pairs, grid)):
        assert wf.values.tobytes() == values.tobytes()

    dx2, dp2 = quadrature_variances(exact)
    ref_dx2, ref_dp2 = longdouble_quadrature_variances(exact)
    assert abs(dx2 - ref_dx2) <= TOL_MOMENTS * ref_dp2
    assert abs(dp2 - ref_dp2) <= TOL_MOMENTS * ref_dp2
    # The Stirling overlap as `spincat squeeze` computes it.
    overlap = float(abs(np.vdot(exact.amplitudes, stirling.amplitudes)))
    assert close(overlap, math.fsum(exact.amplitudes * stirling.amplitudes), TOL_METRICS)
