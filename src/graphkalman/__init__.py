"""Stationary graph signals over symmetric shifts and graph Kalman filtering.

The library covers graph construction and shift validation, spectral
decomposition with distinct-eigenvalue grouping, polynomial filter algebra,
stationary signal generation/whitening, polynomial state-space dynamics,
the graph Kalman filter in spectral and matrix form, baseline estimators,
and a reproducible cycle-graph experiment CLI.
"""

from .baselines import (
    LoewnerComparison,
    inverse_error_covariance,
    inverse_estimate,
    loewner_less,
    spectral_loewner_less,
    zero_estimate,
)
from .dynamics import (
    DynamicalSystem,
    Trajectory,
    covariance_sequence,
    observe,
    propagate_covariance,
    simulate,
    step_state,
    trajectory_to_csv,
)
from .errors import (
    DegenerateTrajectoryError,
    GraphKalmanError,
    InvalidShiftError,
    NotAllPassError,
    NotPositiveSemidefiniteError,
    NumericalFailureError,
    SingularGainError,
)
from .experiment import (
    ExperimentConfig,
    HeatmapResult,
    TraceResult,
    TraceSpec,
    relative_error_metric,
    run_heatmap,
    run_trace,
)
from .filters import FilterMatrix, MembershipResult, apply_filter, eval_filter, is_polynomial_filter
from .graphs import Graph, GraphShift, build_shift, cycle_graph, validate_shift
from .kalman import (
    KalmanState,
    RiccatiSequence,
    matrix_error_update,
    matrix_gain,
    riccati_sequence,
    run_filter,
    spectral_error_update,
    spectral_gain,
)
from .polynomials import Polynomial, lagrange_interpolate, reduce_mod_minimal
from .spectral import (
    DistinctSpectrum,
    SpectralDecomposition,
    distinct_eigenvalues,
    eigendecompose,
    minimal_polynomial,
)
from .stationary import StationaryModel, fit_covariance_poly, sample, sqrt_filter, whiten

__version__ = "0.1.0"

__all__ = [
    "DegenerateTrajectoryError",
    "DistinctSpectrum",
    "DynamicalSystem",
    "ExperimentConfig",
    "FilterMatrix",
    "Graph",
    "GraphKalmanError",
    "GraphShift",
    "HeatmapResult",
    "InvalidShiftError",
    "KalmanState",
    "LoewnerComparison",
    "MembershipResult",
    "NotAllPassError",
    "NotPositiveSemidefiniteError",
    "NumericalFailureError",
    "Polynomial",
    "RiccatiSequence",
    "SingularGainError",
    "SpectralDecomposition",
    "StationaryModel",
    "TraceResult",
    "TraceSpec",
    "Trajectory",
    "apply_filter",
    "build_shift",
    "covariance_sequence",
    "cycle_graph",
    "distinct_eigenvalues",
    "eigendecompose",
    "eval_filter",
    "fit_covariance_poly",
    "inverse_error_covariance",
    "inverse_estimate",
    "is_polynomial_filter",
    "lagrange_interpolate",
    "loewner_less",
    "matrix_error_update",
    "matrix_gain",
    "minimal_polynomial",
    "observe",
    "propagate_covariance",
    "reduce_mod_minimal",
    "relative_error_metric",
    "riccati_sequence",
    "run_filter",
    "run_heatmap",
    "run_trace",
    "sample",
    "simulate",
    "spectral_error_update",
    "spectral_gain",
    "spectral_loewner_less",
    "sqrt_filter",
    "step_state",
    "trajectory_to_csv",
    "validate_shift",
    "whiten",
    "zero_estimate",
]
