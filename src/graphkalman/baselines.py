"""Baseline estimators and Loewner-order comparisons.

Every error covariance the paper compares is a polynomial of the shift and
comes back as one (M, d) array of responses at the distinct eigenvalues,
row k - 1 for step k, as ``RiccatiSequence.error_responses`` holds Kalman's.
Static inverse filtering inverts the system's ``observed_responses``, the
array the Kalman recursion reads (Moore-Penrose style: blind frequencies,
where it is 0, are zeroed); its error is sigma_tilde_k^2 / b_k^2 where a
frequency is observed and h_k where it is blind, as Kalman's is (gain 0).  The
zero-signal strategy needs no code: its estimate is ``np.zeros(n)`` and its
error covariance is ``covariance_responses(sys)``.
``spectral_loewner_less`` compares two rows of such arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicalSystem, covariance_responses, require_finite_steps
from .spectral import SpectralDecomposition

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


def loewner_less(left: np.ndarray, right: np.ndarray) -> LoewnerComparison:
    """Strict Loewner comparison of symmetric matrices via the difference
    spectrum, within ``LOEWNER_TOL_SCALE * ||right||_F``."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape or left.ndim != 2 or left.shape[0] != left.shape[1]:
        raise ValueError(f"operands must be equal square matrices, got {left.shape} vs {right.shape}")
    for name, mat in (("left", left), ("right", right)):
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(mat))):
            raise ValueError(f"{name} operand is not symmetric")
    tol = LOEWNER_TOL_SCALE * float(np.linalg.norm(right))
    diff = right - left
    diff = 0.5 * (diff + diff.T)
    min_eigenvalue = float(np.linalg.eigvalsh(diff)[0])
    return LoewnerComparison(min_eigenvalue=min_eigenvalue, tol=tol, verdict=_verdict(min_eigenvalue, tol))


def spectral_loewner_less(left: np.ndarray, right: np.ndarray, spectrum: SpectralDecomposition) -> LoewnerComparison:
    """Loewner comparison of two filters from their responses at the distinct
    eigenvalues, within ``LOEWNER_TOL_SCALE`` times the right filter's norm."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    for name, values in (("left", left), ("right", right)):
        if values.shape != (spectrum.count,):
            raise ValueError(f"{name} responses have shape {values.shape}, expected ({spectrum.count},)")
    tol = LOEWNER_TOL_SCALE * float(np.linalg.norm(spectrum.expand(right)))
    min_eigenvalue = float(np.min(right - left))
    return LoewnerComparison(min_eigenvalue=min_eigenvalue, tol=tol, verdict=_verdict(min_eigenvalue, tol))


def inverse_estimate(sys: DynamicalSystem, observations) -> np.ndarray:
    """Static inverse-filtering estimates of a (T, m, n) stack of observation
    rows z_1..z_m: z_k divided by row k of ``observed_responses`` in the
    eigenbasis, zero where that is 0.  The estimates have the stack's shape,
    and trial t is what its rows give as a stack of one.

    Raises:
        NumericalFailureError: naming the first step at which an estimate of
            any trial is not finite (a non-finite observation, or one so
            large that its inverse overflows).
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 3 or obs.shape[2] != sys.n or obs.shape[1] > sys.horizon:
        raise ValueError(f"observations have shape {obs.shape}, expected (T, m, {sys.n}) with m <= {sys.horizon}")
    responses = sys.observed_responses[: obs.shape[1]]
    inverted = np.divide(1.0, responses, out=np.zeros_like(responses), where=responses != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        rotated = sys.spectrum.to_spectral(obs)
        rotated *= sys.spectrum.expand(inverted)
        estimates = sys.spectrum.from_spectral(rotated)
    require_finite_steps(estimates, "inverse-filtering estimate", first_step=1)
    return estimates


def inverse_error_covariance(sys: DynamicalSystem) -> np.ndarray:
    """Error covariances of ``inverse_estimate`` at steps 1..M, at the
    distinct eigenvalues mu, shape (M, d), row k - 1 for step k:
    sigma_tilde_k^2 / b_k(mu)^2 where ``observed_responses`` b_k is nonzero,
    and the state covariance h_k(mu) where it is 0, since the estimate there
    is 0.

    Raises:
        NumericalFailureError: naming the first step whose state covariance
            is not finite, as ``covariance_responses`` does, or whose error
            covariance is not, as when sigma_tilde_k^2 / b_k^2 overflows.
    """
    responses = sys.observed_responses
    with np.errstate(over="ignore", divide="ignore"):
        noise = np.square(sys.observation_noise)[:, None]
        errors = np.divide(noise, responses**2, out=covariance_responses(sys), where=responses != 0.0)
    require_finite_steps(errors, "inverse error covariance", first_step=1)
    return errors
