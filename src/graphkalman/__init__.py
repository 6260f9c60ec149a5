"""Stationary graph signals over symmetric shifts and graph Kalman filtering.

The library modules, each importing only those above it:

- ``errors``: the package's named exceptions, the ``GraphKalmanError``
  family.
- ``graphs``: graphs, their symmetric shifts and each shift's spectrum,
  the one handle for its eigenbasis.
- ``filters``: polynomial filters as responses at the distinct
  eigenvalues, stationary signals among them.
- ``dynamics``: polynomial state-space systems and their simulation in the
  eigenbasis.
- ``kalman``: the graph Kalman filter and its baseline, static inverse
  filtering, in the eigenbasis.
- ``experiment``: the reproducible cycle-graph study, its config and its
  CSV and SVG tables.

``verify`` (the invariant suite) and ``cli`` (the command line) build on
them and are not loaded by ``import graphkalman``.
"""

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
from .filters import (
    ChebyshevSeries,
    LoewnerComparison,
    MembershipResult,
    Polynomial,
    StationaryModel,
    apply_filter,
    eval_filter,
    fit_covariance_poly,
    is_polynomial_filter,
    lagrange_interpolate,
    loewner_less,
    sample,
    spectral_loewner_less,
    sqrt_filter,
    whiten,
)
from .graphs import (Graph, GraphShift, SpectralDecomposition, build_shift, cycle_graph, distinct_eigenvalues,
                     eigendecompose, validate_shift)
from .kalman import (
    FilterResult,
    KalmanState,
    RiccatiSequence,
    inverse_error_covariance,
    inverse_estimate,
    riccati_sequence,
    run_filter,
)

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
