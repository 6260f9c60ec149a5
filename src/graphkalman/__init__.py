"""Stationary graph signals over symmetric shifts and graph Kalman filtering.

The library covers graph construction and shift validation, one spectral
handle (the eigendecomposition of a shift with its distinct-eigenvalue
grouping, which every system, model and filter reads), polynomial filters carried
as their values at the distinct eigenvalues (and interpolated back in the
Chebyshev basis), stationary signal generation/whitening, polynomial
state-space dynamics, the graph Kalman filter in spectral and matrix form,
baseline estimators, and a reproducible cycle-graph experiment CLI.
"""

from .baselines import (
    LoewnerComparison,
    inverse_error_covariance,
    inverse_estimate,
    loewner_less,
    spectral_loewner_less,
)
from .dynamics import (
    DynamicalSystem,
    Trajectory,
    covariance_responses,
    simulate,
)
from .errors import (
    GraphKalmanError,
    InvalidShiftError,
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
    trajectory_to_csv,
)
from .filters import MembershipResult, apply_filter, eval_filter, is_polynomial_filter
from .graphs import Graph, GraphShift, build_shift, cycle_graph, validate_shift
from .kalman import (
    FilterResult,
    KalmanState,
    RiccatiSequence,
    matrix_riccati_step,
    riccati_sequence,
    run_filter,
)
from .polynomials import ChebyshevSeries, Polynomial, lagrange_interpolate
from .spectral import SpectralDecomposition, distinct_eigenvalues, eigendecompose
from .stationary import StationaryModel, fit_covariance_poly, sample, sqrt_filter, whiten

__version__ = "0.1.0"

__all__ = [
    "ChebyshevSeries",
    "DynamicalSystem",
    "ExperimentConfig",
    "FilterResult",
    "Graph",
    "GraphKalmanError",
    "GraphShift",
    "HeatmapResult",
    "InvalidShiftError",
    "KalmanState",
    "LoewnerComparison",
    "MembershipResult",
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
    "covariance_responses",
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
    "matrix_riccati_step",
    "relative_error_metric",
    "riccati_sequence",
    "run_filter",
    "run_heatmap",
    "run_trace",
    "sample",
    "simulate",
    "spectral_loewner_less",
    "sqrt_filter",
    "trajectory_to_csv",
    "validate_shift",
    "whiten",
]
