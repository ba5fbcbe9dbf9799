"""spincat: two-step QND measurement simulator for collective-spin
squeezed and cat states, plus an experimental feasibility calculator."""

from .cat import (
    CatApproxParams,
    CatMetrics,
    analyze_cat,
    approx_p_wavefunction,
    approx_x_wavefunction,
    check_cat_conditions,
    compute_cat_metrics,
    detect_peaks,
    fringe_metrics,
    overlap,
)
from .errors import (
    CapacityError,
    DegenerateStateError,
    DomainError,
    ImprobableOutcomeError,
    NoFringeError,
    ResolutionError,
    SpinCatError,
)
from .feasibility import (
    PRESETS,
    ExperimentalParams,
    FeasibilityReport,
    evaluate_scenario,
)
from .protocol import (
    alpha_from_xi2,
    apply_number_qnd,
    mu_of_outcome,
    outcome_density_second,
    quadrature_variances,
    sample_first_outcome,
    sample_second_outcome,
    squeezed_state_exact,
    squeezed_state_stirling,
)
from .state import (
    Basis,
    NumberState,
    QuadratureGrid,
    QuadratureWavefunction,
    RandomSource,
    choose_truncation,
    default_cat_grid,
    grid_for_state,
    mean_occupation,
    quadrature_moment,
    riemann_norm,
    riemann_normalize,
    to_quadrature,
)

__version__ = "0.1.0"
