"""Exception types shared across the package."""


class GraphKalmanError(Exception):
    """Base class for all library-specific errors."""


class InvalidShiftError(GraphKalmanError, ValueError):
    """A shift matrix is not finite (a custom entry, or a degree sum that
    overflows), is asymmetric, or violates the graph's sparsity."""


class NumericalFailureError(GraphKalmanError, ArithmeticError):
    """A numerical routine failed (eigensolver non-convergence, ill-conditioned solve)."""


class NotPositiveSemidefiniteError(GraphKalmanError, ValueError):
    """A covariance polynomial has a negative frequency variance."""


class SingularGainError(GraphKalmanError, ArithmeticError):
    """Zero observation noise at a blind frequency leaves the gain undefined."""


class DegenerateTrajectoryError(GraphKalmanError, ValueError):
    """Every step of a trajectory has numerically zero state energy."""
