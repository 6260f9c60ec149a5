"""Baseline estimators and Loewner-order comparisons.

Static inverse filtering inverts the observation filter frequency-wise
(Moore-Penrose style: near-zero responses are zeroed); the zero estimator
returns the signal mean and inherits the state covariance as its error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicalSystem, covariance_responses
from .errors import NotAllPassError
from .polynomials import Polynomial, lagrange_interpolate
from .spectral import DistinctSpectrum, SpectralDecomposition

PINV_TOL_SCALE = 1e-10
LOEWNER_TOL_SCALE = 1e-12

VERDICT_STRICT = "strict"
VERDICT_NON_STRICT = "non-strict"
VERDICT_FAILS = "fails"


@dataclass(frozen=True, eq=False)
class LoewnerComparison:
    """Outcome of testing left < right in the Loewner order."""

    min_eigenvalue: float
    tol: float
    verdict: str


def _verdict(min_eigenvalue: float, tol: float) -> str:
    if min_eigenvalue > tol:
        return VERDICT_STRICT
    if min_eigenvalue >= -tol:
        return VERDICT_NON_STRICT
    return VERDICT_FAILS


def loewner_less(left: np.ndarray, right: np.ndarray, tol: float | None = None) -> LoewnerComparison:
    """Strict Loewner comparison of symmetric matrices via the difference spectrum."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape or left.ndim != 2 or left.shape[0] != left.shape[1]:
        raise ValueError(f"operands must be equal square matrices, got {left.shape} vs {right.shape}")
    for name, mat in (("left", left), ("right", right)):
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(mat))):
            raise ValueError(f"{name} operand is not symmetric")
    if tol is None:
        tol = LOEWNER_TOL_SCALE * np.linalg.norm(right)
    diff = right - left
    diff = 0.5 * (diff + diff.T)
    min_eigenvalue = float(np.linalg.eigvalsh(diff)[0])
    return LoewnerComparison(min_eigenvalue=min_eigenvalue, tol=float(tol), verdict=_verdict(min_eigenvalue, tol))


def spectral_loewner_less(
    left_poly: Polynomial,
    right_poly: Polynomial,
    spectrum: DistinctSpectrum,
    tol: float | None = None,
) -> LoewnerComparison:
    """Loewner comparison of two polynomial filters by per-eigenvalue values."""
    mu = spectrum.representatives
    left_values = left_poly(mu)
    right_values = right_poly(mu)
    if tol is None:
        tol = LOEWNER_TOL_SCALE * float(np.linalg.norm(spectrum.expand(right_values)))
    min_eigenvalue = float(np.min(right_values - left_values))
    return LoewnerComparison(min_eigenvalue=min_eigenvalue, tol=float(tol), verdict=_verdict(min_eigenvalue, tol))


def _passing(responses: np.ndarray, pinv_tol: float | None) -> np.ndarray:
    """Where the pseudo-inverse inverts: |response| above ``pinv_tol``
    (default ``PINV_TOL_SCALE * max|response|``)."""
    if pinv_tol is None:
        pinv_tol = PINV_TOL_SCALE * float(np.max(np.abs(responses)))
    return np.abs(responses) > pinv_tol


def inverse_estimate(
    observation_poly: Polynomial,
    z: np.ndarray,
    decomposition: SpectralDecomposition,
    pinv_tol: float | None = None,
) -> np.ndarray:
    """Static inverse-filtering estimate: invert the observation responses,
    zeroing frequencies where the response magnitude is below ``pinv_tol``.

    ``z`` is one observation (n,) or a batch of columns (n, m).
    """
    z = np.asarray(z, dtype=float)
    if z.shape[0] != decomposition.n:
        raise ValueError(f"observation length {z.shape[0]} does not match graph order {decomposition.n}")
    responses = observation_poly(decomposition.eigenvalues)
    passing = _passing(responses, pinv_tol)
    inverted = np.zeros_like(responses)
    inverted[passing] = 1.0 / responses[passing]
    return decomposition.apply(inverted, z)


def inverse_error_covariance(
    observation_poly: Polynomial,
    sigma_tilde: float,
    spectrum: DistinctSpectrum,
    pinv_tol: float | None = None,
) -> Polynomial:
    """Error covariance polynomial of inverse filtering for an all-pass observation."""
    mu = spectrum.representatives
    responses = observation_poly(mu)
    if not np.all(_passing(responses, pinv_tol)):
        raise NotAllPassError(
            "observation filter vanishes at a distinct eigenvalue; inverse error covariance undefined"
        )
    return lagrange_interpolate(mu, sigma_tilde**2 / responses**2)


def zero_estimate(sys: DynamicalSystem, k: int) -> tuple[np.ndarray, Polynomial]:
    """The zero-signal estimator and its error covariance (the state covariance h_k)."""
    h_k = covariance_responses(sys, upto=k)[k]
    return np.zeros(sys.n), lagrange_interpolate(sys.spectrum.representatives, h_k)
