"""Graph Kalman filter in the eigenbasis of the shift.

On a symmetric shift the gain and error covariance stay polynomials of the
shift, so each step reduces to independent scalar updates at the distinct
eigenvalues:

    predicted  pe = a^2 p_prev + sigma^2
    gain       gamma = pe * b / (b^2 pe + sigma_tilde^2)
    updated    pi = sigma_tilde^2 * pe / (b^2 pe + sigma_tilde^2)

The recursion and the filter are carried on these frequency responses.
Filtering moves the observations into the eigenbasis once, updates every
frequency on its own and moves the estimates back once; gain and error
polynomials are interpolated only when asked for.  The dense matrix Riccati
step below drives ``verify.matrix_riccati_path``, the oracle that the
spectral path is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .dynamics import DynamicalSystem, write_text
from .errors import (
    NotPositiveSemidefiniteError,
    NumericalFailureError,
    SingularGainError,
)
from .polynomials import Polynomial, lagrange_interpolate
from .spectral import DistinctSpectrum

INNOVATION_CONDITION_LIMIT = 1e14


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Estimate after step k with the error and gain responses at the
    distinct eigenvalues (the gain is None at k=0)."""

    step: int
    estimate: np.ndarray
    error_response: np.ndarray
    gain_response: np.ndarray | None


def _scalar_riccati(
    p_values: np.ndarray,
    a_values: np.ndarray,
    b_values: np.ndarray,
    sigma: float,
    sigma_tilde: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-eigenvalue gain and updated error variance."""
    predicted = a_values**2 * p_values + sigma**2
    if sigma_tilde > 0:
        denom = b_values**2 * predicted + sigma_tilde**2
        return predicted * b_values / denom, sigma_tilde**2 * predicted / denom
    blind = b_values == 0.0
    if np.any(blind & (predicted > 0.0)):
        raise SingularGainError(
            "zero observation noise with a vanishing observation response at an uncertain frequency"
        )
    safe = np.where(blind, 1.0, b_values)
    gains = np.where(blind, 0.0, 1.0 / safe)
    return gains, np.zeros_like(predicted)


def _response(poly: Polynomial, mu: np.ndarray) -> np.ndarray:
    return np.atleast_1d(poly(mu))


def _riccati_step(
    p_values: np.ndarray,
    state_poly: Polynomial,
    observation_poly: Polynomial,
    sigma: float,
    sigma_tilde: float,
    mu: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and updated error responses at ``mu`` from the previous error responses."""
    return _scalar_riccati(
        p_values, _response(state_poly, mu), _response(observation_poly, mu), sigma, sigma_tilde
    )


def spectral_gain(
    p_prev: Polynomial,
    state_poly: Polynomial,
    observation_poly: Polynomial,
    sigma: float,
    sigma_tilde: float,
    spectrum: DistinctSpectrum,
) -> Polynomial:
    """Gain polynomial interpolated from the per-eigenvalue scalar gains."""
    mu = spectrum.representatives
    gains, _ = _riccati_step(_response(p_prev, mu), state_poly, observation_poly, sigma, sigma_tilde, mu)
    return lagrange_interpolate(mu, gains)


def spectral_error_update(
    p_prev: Polynomial,
    state_poly: Polynomial,
    observation_poly: Polynomial,
    sigma: float,
    sigma_tilde: float,
    spectrum: DistinctSpectrum,
) -> Polynomial:
    """Updated error covariance polynomial interpolated from scalar updates."""
    mu = spectrum.representatives
    _, errors = _riccati_step(_response(p_prev, mu), state_poly, observation_poly, sigma, sigma_tilde, mu)
    return lagrange_interpolate(mu, errors)


def _as_matrix(operand) -> np.ndarray:
    return np.asarray(getattr(operand, "matrix", operand), dtype=float)


def _predicted_covariance(p_prev: np.ndarray, a: np.ndarray, sigma: float) -> np.ndarray:
    predicted = a @ p_prev @ a.T + sigma**2 * np.eye(a.shape[0])
    return 0.5 * (predicted + predicted.T)


def _innovation_solve(predicted: np.ndarray, b: np.ndarray, sigma_tilde: float) -> np.ndarray:
    innovation = b @ predicted @ b.T + sigma_tilde**2 * np.eye(b.shape[0])
    innovation = 0.5 * (innovation + innovation.T)
    eigenvalues = np.linalg.eigvalsh(innovation)
    if eigenvalues[0] <= 0 or eigenvalues[-1] / eigenvalues[0] > INNOVATION_CONDITION_LIMIT:
        raise NumericalFailureError(
            f"innovation matrix numerically singular (condition beyond {INNOVATION_CONDITION_LIMIT:g})"
        )
    factor = scipy.linalg.cho_factor(innovation)
    return scipy.linalg.cho_solve(factor, b @ predicted).T


def matrix_gain(p_prev, state_matrix, observation_matrix, sigma: float, sigma_tilde: float) -> np.ndarray:
    """Dense Kalman gain via a symmetric positive-definite solve."""
    p = _as_matrix(p_prev)
    a = _as_matrix(state_matrix)
    b = _as_matrix(observation_matrix)
    predicted = _predicted_covariance(p, a, sigma)
    return _innovation_solve(predicted, b, sigma_tilde)


def matrix_error_update(
    p_prev,
    state_matrix,
    observation_matrix,
    sigma: float,
    sigma_tilde: float,
    gain: np.ndarray | None = None,
) -> np.ndarray:
    """Dense error covariance update P = (I - K B)(A P A^T + sigma^2 I)."""
    p = _as_matrix(p_prev)
    a = _as_matrix(state_matrix)
    b = _as_matrix(observation_matrix)
    predicted = _predicted_covariance(p, a, sigma)
    if gain is None:
        gain = _innovation_solve(predicted, b, sigma_tilde)
    updated = (np.eye(a.shape[0]) - gain @ b) @ predicted
    return 0.5 * (updated + updated.T)


@dataclass(frozen=True, eq=False)
class RiccatiSequence:
    """Gain and error responses at the distinct eigenvalues ``nodes``.

    ``initial_response`` holds p_0 at the nodes; row k-1 of
    ``gain_responses`` and ``error_responses`` holds step k.  ``gains`` and
    ``error_polys`` interpolate those rows on first access.
    """

    nodes: np.ndarray
    initial_response: np.ndarray
    gain_responses: np.ndarray
    error_responses: np.ndarray

    @cached_property
    def gains(self) -> tuple[Polynomial, ...]:
        return tuple(lagrange_interpolate(self.nodes, row) for row in self.gain_responses)

    @cached_property
    def error_polys(self) -> tuple[Polynomial, ...]:
        return tuple(lagrange_interpolate(self.nodes, row) for row in self.error_responses)


def _validate_initial_error(p0: Polynomial, spectrum: DistinctSpectrum) -> np.ndarray:
    values = _response(p0, spectrum.representatives)
    tol = 1e-10 * max(float(np.max(values)), 0.0)
    if np.min(values) < -tol:
        raise NotPositiveSemidefiniteError(
            f"initial error covariance has negative frequency variance {float(np.min(values)):g}"
        )
    return values


def riccati_sequence(
    sys: DynamicalSystem,
    p0: Polynomial | None = None,
    steps: int | None = None,
) -> RiccatiSequence:
    """Run the error/gain recursion for ``steps`` steps (default: the horizon).

    Each step is one scalar update per distinct eigenvalue; the responses
    of all steps come back as ``(steps, d)`` arrays.
    """
    if p0 is None:
        p0 = sys.initial_covariance
    if steps is None:
        steps = sys.horizon
    if not 0 <= steps <= sys.horizon:
        raise ValueError(f"steps {steps} out of range 0..{sys.horizon}")
    mu = sys.spectrum.representatives
    initial = _validate_initial_error(p0, sys.spectrum)
    gains = np.empty((steps, mu.size))
    errors = np.empty((steps, mu.size))
    p_values = initial
    for k in range(1, steps + 1):
        try:
            gains[k - 1], p_values = _riccati_step(
                p_values,
                sys.state_poly(k),
                sys.observation_poly(k),
                sys.state_sigma(k),
                sys.observation_sigma(k),
                mu,
            )
        except SingularGainError as exc:
            raise SingularGainError(f"step {k}: {exc}") from exc
        errors[k - 1] = p_values
    for values in (initial, gains, errors):
        values.flags.writeable = False
    return RiccatiSequence(
        nodes=mu, initial_response=initial, gain_responses=gains, error_responses=errors
    )


def run_filter(
    sys: DynamicalSystem,
    observations,
    xhat0: np.ndarray | None = None,
    p0: Polynomial | None = None,
    riccati: RiccatiSequence | None = None,
) -> list[KalmanState]:
    """Filter a full observation sequence; returns states for k = 0..M.

    The filter runs in the eigenbasis U of the shift.  The observations are
    moved there once (z~ = U^T z), every step updates each frequency on its
    own with the expanded state, observation and gain responses a, b, g,

        x~ <- a x~ + g (z~ - b a x~),

    and the estimates are moved back once.  The dense matrix recursion is
    not run here; ``verify.matrix_riccati_path`` keeps it as the oracle.

    Defaults follow the stationary initialization: zero initial estimate
    with the system's initial covariance as p_0.  A precomputed
    ``riccati`` sequence (which is data-independent) may be reused across
    trajectories.
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim == 1:
        obs = obs.reshape(0, sys.n) if obs.size == 0 else obs.reshape(1, -1)
    if obs.shape[1] != sys.n:
        raise ValueError(f"observations have {obs.shape[1]} entries per step, expected {sys.n}")
    m = obs.shape[0]
    if m > sys.horizon:
        raise ValueError(f"{m} observations exceed the system horizon {sys.horizon}")
    if riccati is None:
        riccati = riccati_sequence(sys, p0=p0, steps=m)
    elif riccati.gain_responses.shape[0] < m:
        raise ValueError("precomputed riccati sequence is shorter than the observations")

    mu = sys.spectrum.representatives
    expand = sys.spectrum.expand
    u = sys.decomposition.eigenvectors
    xhat = np.zeros(sys.n) if xhat0 is None else np.asarray(xhat0, dtype=float)
    x_tilde = xhat @ u
    z_tilde = obs @ u
    rotated = np.empty_like(z_tilde)
    for k in range(1, m + 1):
        a = expand(_response(sys.state_poly(k), mu))
        b = expand(_response(sys.observation_poly(k), mu))
        predicted = a * x_tilde
        x_tilde = predicted + expand(riccati.gain_responses[k - 1]) * (z_tilde[k - 1] - b * predicted)
        rotated[k - 1] = x_tilde
    estimates = rotated @ u.T

    states = [KalmanState(step=0, estimate=xhat, error_response=riccati.initial_response, gain_response=None)]
    for k in range(1, m + 1):
        states.append(
            KalmanState(
                step=k,
                estimate=estimates[k - 1],
                error_response=riccati.error_responses[k - 1],
                gain_response=riccati.gain_responses[k - 1],
            )
        )
    return states


def filter_spectrum_to_csv(states: list[KalmanState], sys: DynamicalSystem, target) -> None:
    """Write rows (k, eigenindex, lambda, p_k, g_k); k=0 rows carry no gain."""
    lam = sys.decomposition.eigenvalues
    expand = sys.spectrum.expand
    lines = ["k,eigenindex,lambda,p,g"]
    for state in states:
        p_values = expand(state.error_response)
        g_values = None if state.gain_response is None else expand(state.gain_response)
        for idx in range(lam.size):
            g_text = "" if g_values is None else repr(float(g_values[idx]))
            lines.append(
                f"{state.step},{idx + 1},{float(lam[idx])!r},{float(p_values[idx])!r},{g_text}"
            )
    write_text(target, "\n".join(lines) + "\n")


def filter_estimates_to_csv(states: list[KalmanState], target) -> None:
    """Write rows (k, vertex, xhat)."""
    lines = ["k,vertex,xhat"]
    for state in states:
        for vertex in range(1, state.estimate.size + 1):
            lines.append(f"{state.step},{vertex},{float(state.estimate[vertex - 1])!r}")
    write_text(target, "\n".join(lines) + "\n")
