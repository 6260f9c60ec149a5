"""Graph Kalman filter in the eigenbasis of the shift.

On a symmetric shift the gain and error covariance stay polynomials of the
shift, so each step reduces to independent scalar updates at the distinct
eigenvalues:

    predicted  pe = a^2 p_prev + sigma^2
    gain       gamma = pe * b / (b^2 pe + sigma_tilde^2)
    updated    pi = sigma_tilde^2 * pe / (b^2 pe + sigma_tilde^2)

The recursion and the filter are carried on these frequency responses and
read a and b as rows of the system's response arrays, evaluated once per
system.  The prior is the system's: x^_0 = 0, p_0 = h_0, the stationary
initialization (x_0 is zero-mean).
``riccati_sequence`` returns the gain and error responses as (steps, d)
arrays, or raises ``NumericalFailureError`` at the first step where one is
not finite.  For a time-invariant system a step's only changing input is
p_{k-1}, so once a step returns p_k bitwise equal to p_{k-1} every later
step would return the same rows: the recursion stops at that exact fixed
point and copies them forward, bit for bit what the full loop gives.  A
step that returns p_k bitwise equal to p_{k-2} starts an exact 2-cycle,
and the remaining rows are filled with period 2 the same way.
A ``RiccatiSequence`` owns every data-independent array the filter reads:
the gain and error responses and, formed once per sequence, the per-step
carry and gain rows at the eigenindices (``filter_rows``).  Filtering moves
the observations into the eigenbasis once, updates every frequency on its
own, adding each step's carry times the previous estimate to that step's
drive in place, and moves the estimates back once.  ``run_filter`` returns
a ``FilterResult``, the estimates as one (M + 1, n) array (also readable as
a sequence of ``KalmanState`` built on demand); an estimate that is not
finite raises ``NumericalFailureError`` naming its first step.
The one edge back to a polynomial of the shift is ``RiccatiSequence.gains``,
Chebyshev interpolants made on request (``NumericalFailureError`` where an
interpolant cannot keep its node values).  A frequency is blind, with gain
0, where the system's ``observed_responses`` is 0; with zero observation noise
an uncertain blind frequency raises ``SingularGainError``.  The dense matrix
Riccati step below, ``matrix_riccati_step``, drives ``verify.matrix_riccati_path``,
the oracle that the spectral path is checked against; it uses numpy only.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import DynamicalSystem, require_finite_steps
from .errors import NumericalFailureError, SingularGainError
from .polynomials import ChebyshevSeries, lagrange_interpolate

INNOVATION_CONDITION_LIMIT = 1e14


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Estimate after one step, row k of a ``FilterResult``.  Kept for
    perfbench's filter capture, which reads results step by step; it goes
    with ROADMAP items 1 and 2."""

    estimate: np.ndarray


def _scalar_riccati(
    p_values: np.ndarray,
    a_squared: np.ndarray,
    b_values: np.ndarray,
    sigma_squared: float,
    sigma_tilde_squared: float,
    b_squared: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-eigenvalue gain and updated error variance from the squared state
    response and noise levels; ``b_values`` is zero at the blind frequencies
    and ``b_squared`` is ``b_values**2``, computed once per system.

    The update is written into ``out`` = (gain row, error row, scratch row),
    and the gain and error rows are returned; nothing is allocated when
    sigma_tilde^2 > 0.
    """
    gains, errors, denom = out
    if sigma_tilde_squared > 0:
        # the predicted variance pe is held in the error row until its last use
        predicted = np.multiply(a_squared, p_values, out=errors)
        predicted += sigma_squared
        np.multiply(b_squared, predicted, out=denom)
        denom += sigma_tilde_squared
        np.multiply(predicted, b_values, out=gains)
        gains /= denom
        np.multiply(predicted, sigma_tilde_squared, out=errors)
        errors /= denom
        return gains, errors
    predicted = a_squared * p_values + sigma_squared
    blind = b_values == 0.0
    if np.any(blind & (predicted > 0.0)):
        raise SingularGainError(
            "zero observation noise with a vanishing observation response at an uncertain frequency"
        )
    safe = np.where(blind, 1.0, b_values)
    gains[...] = np.where(blind, 0.0, 1.0 / safe)
    errors[...] = 0.0
    return gains, errors


def matrix_riccati_step(p_prev, a, b, sigma: float, sigma_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    """One dense Riccati step from the predicted P = A P_prev A^T + sigma^2 I:
    the gain K = P B^T S^-1 with S = B P B^T + sigma_tilde^2 I, one dense
    solve after the SPD and condition check on S, and the updated error
    covariance (I - K B) P."""
    p_prev, a, b = (np.asarray(x, dtype=float) for x in (p_prev, a, b))
    eye = np.eye(a.shape[0])
    predicted = a @ p_prev @ a.T + sigma**2 * eye
    predicted = 0.5 * (predicted + predicted.T)
    innovation = b @ predicted @ b.T + sigma_tilde**2 * eye
    innovation = 0.5 * (innovation + innovation.T)
    eigenvalues = np.linalg.eigvalsh(innovation)
    if eigenvalues[0] <= 0 or eigenvalues[-1] / eigenvalues[0] > INNOVATION_CONDITION_LIMIT:
        raise NumericalFailureError(
            f"innovation matrix numerically singular (condition beyond {INNOVATION_CONDITION_LIMIT:g})"
        )
    gain = np.linalg.solve(innovation, b @ predicted).T
    updated = (eye - gain @ b) @ predicted
    return gain, 0.5 * (updated + updated.T)


@dataclass(frozen=True, eq=False)
class RiccatiSequence:
    """Gain and error responses of ``system`` at its distinct eigenvalues:
    the one owner of the filter's data-independent arrays.

    Row k-1 of ``gain_responses`` and ``error_responses`` holds step k;
    p_0 is the system's h_0 (``system.initial_model.group_variances``).
    ``filter_rows`` expands them into the filter's per-step rows, and
    ``gains`` interpolates the gain rows, one ``ChebyshevSeries`` per step
    on the span of the distinct eigenvalues; both are made on first access.
    """

    system: DynamicalSystem
    gain_responses: np.ndarray
    error_responses: np.ndarray

    @cached_property
    def filter_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(carry, gain): read-only (steps, n) arrays whose row k-1 holds
        carry_k = a_k (1 - g_k b_k) and g_k of step k at the eigenindices,
        with b_k the system's ``observed_responses``."""
        sys, g = self.system, self.gain_responses
        steps = g.shape[0]
        carry = sys.spectrum.expand(sys.state_responses[:steps] * (1.0 - g * sys.observed_responses[:steps]))
        gain = sys.spectrum.expand(g)
        for values in (carry, gain):
            values.flags.writeable = False
        return carry, gain

    @cached_property
    def gains(self) -> tuple[ChebyshevSeries, ...]:
        nodes = self.system.spectrum.representatives
        return tuple(lagrange_interpolate(nodes, row) for row in self.gain_responses)


def riccati_sequence(sys: DynamicalSystem, steps: int | None = None) -> RiccatiSequence:
    """Run the error/gain recursion for ``steps`` steps (default: the horizon).

    The prior p_0 is the system's h_0 at the distinct eigenvalues, the
    stationary initialization.  Each step is one scalar update per distinct
    eigenvalue; the responses of all steps come back as ``(steps, d)``
    arrays.  It reads the system's ``observed_responses``, 0 at the blind
    frequencies, so the gain there is 0 and, with zero observation noise at
    an uncertain frequency, ``SingularGainError`` is raised.  A
    response that overflows (an unstable blind frequency) raises
    ``NumericalFailureError`` naming its first step.

    For a time-invariant system, step k reads p_{k-1} and rows that never
    change.  So when step k returns p_k bitwise equal to p_{k-1}, the
    recursion has reached an exact floating-point fixed point: every later
    step would return step k's gain and error rows again, and they are
    copied into the remaining rows instead of computed.  When step k
    returns p_k bitwise equal to p_{k-2} instead, step k+1 reads step k-1's
    inputs, so the recursion has entered an exact 2-cycle: every later step
    repeats the step two before it, and the remaining rows alternate
    between steps k-1 and k.  A copied step could not raise, since its
    inputs are those of a step that passed, and a non-finite row stays
    non-finite, so the first non-finite step named is the same.
    Time-varying systems run every step.  Each step writes into its output
    rows, with b^2 computed once per system, and allocates nothing when
    sigma_tilde > 0.
    """
    if steps is None:
        steps = sys.horizon
    if not 0 <= steps <= sys.horizon:
        raise ValueError(f"steps {steps} out of range 0..{sys.horizon}")
    d = sys.spectrum.count
    initial = sys.initial_model.group_variances
    observation = sys.observed_responses
    observation_squared = observation**2
    state_squared = sys.state_responses**2
    sigma_squared = [sigma**2 for sigma in sys.state_noise]
    sigma_tilde_squared = [sigma_tilde**2 for sigma_tilde in sys.observation_noise]
    invariant = sys.time_invariant
    gains = np.empty((steps, d))
    errors = np.empty((steps, d))
    scratch = np.empty(d)
    # the bytes of p_{k-1} and p_{k-2}: a step that repeats one of them repeats forever
    p_values = initial
    seen = (initial.tobytes(), None)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            row = 0 if invariant else k - 1
            try:
                _, p_k = _scalar_riccati(
                    p_values, state_squared[row], observation[row], sigma_squared[row], sigma_tilde_squared[row],
                    b_squared=observation_squared[row], out=(gains[k - 1], errors[k - 1], scratch),
                )
            except SingularGainError as exc:
                raise SingularGainError(f"step {k}: {exc}") from exc
            if invariant:
                key = p_k.tobytes()
                if key == seen[0]:
                    gains[k:] = gains[k - 1]
                    errors[k:] = errors[k - 1]
                    break
                if key == seen[1]:
                    for values in (gains, errors):
                        values[k::2] = values[k - 2]
                        values[k + 1 :: 2] = values[k - 1]
                    break
                seen = (key, seen[0])
            p_values = p_k
    require_finite_steps(np.hstack((gains, errors)), "Riccati gain or error response", first_step=1)
    for values in (gains, errors):
        values.flags.writeable = False
    return RiccatiSequence(system=sys, gain_responses=gains, error_responses=errors)


@dataclass(frozen=True, eq=False)
class FilterResult(Sequence[KalmanState]):
    """Estimates of steps 0..M: row k of the read-only (M + 1, n)
    ``estimates`` is step k, row 0 the initial estimate 0.  The gain and
    error responses are read from the ``RiccatiSequence``.  As a read-only
    sequence of ``KalmanState`` of length M + 1, ``result[k]`` builds step
    k's state on demand and a slice returns a list of states.
    """

    estimates: np.ndarray

    def __post_init__(self) -> None:
        self.estimates.flags.writeable = False

    def __len__(self) -> int:
        return self.estimates.shape[0]

    def __getitem__(self, index) -> KalmanState | list[KalmanState]:
        if isinstance(index, slice):
            return [KalmanState(row) for row in self.estimates[index]]
        return KalmanState(self.estimates[operator.index(index)])


def run_filter(
    sys: DynamicalSystem,
    observations,
    riccati: RiccatiSequence | None = None,
) -> FilterResult:
    """Filter observation rows z_1..z_m, an (m, n) array with m <= the horizon
    (any other shape raises ``ValueError``); returns the estimates for k = 0..m.

    The filter runs in the shift's eigenbasis.  The observations are moved
    there once (``to_spectral``), and with the state, observed and gain
    responses a_k, b_k, g_k every step updates each frequency on its own,

        x~ <- a_k x~ + g_k (z~_k - b_k a_k x~) = carry_k x~ + drive_k,

    where drive_k = g_k z~_k.  carry_k = a_k (1 - g_k b_k) and g_k at the
    eigenindices are not formed here: they are ``riccati.filter_rows``,
    formed once per sequence, and are read up to step m.  The drives are
    written into the rows of the eigenbasis estimates and the loop adds
    carry_k x~_{k-1} to row k in place.  The estimates are moved back once.
    The dense matrix recursion is not run here; ``verify.matrix_riccati_path``
    keeps it as the oracle.

    The prior is the system's: x^_0 = 0 and p_0 = h_0.  A precomputed
    ``riccati`` sequence (which is data-independent) may be reused across
    trajectories of the system it was computed for; one computed for any
    other system raises ``ValueError``.

    Raises:
        NumericalFailureError: naming the first step whose estimate is not
            finite (a non-finite observation, or an estimate that overflows).
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != sys.n or obs.shape[0] > sys.horizon:
        raise ValueError(f"observations have shape {obs.shape}, expected (m, {sys.n}) with m <= {sys.horizon}")
    m = obs.shape[0]
    if riccati is None:
        riccati = riccati_sequence(sys, steps=m)
    elif riccati.system is not sys:
        raise ValueError("precomputed riccati sequence belongs to another system")
    elif riccati.gain_responses.shape[0] < m:
        raise ValueError("precomputed riccati sequence is shorter than the observations")

    carry, gain = riccati.filter_rows
    estimates = np.zeros((m + 1, sys.n))
    # a non-finite estimate is named below, once, rather than warned about per operation
    with np.errstate(over="ignore", invalid="ignore"):
        rotated = sys.spectrum.to_spectral(obs)
        rotated *= gain[:m]
        previous = estimates[0]
        for carry_k, x_k in zip(carry[:m], rotated):
            x_k += carry_k * previous
            previous = x_k
        estimates[1:] = sys.spectrum.from_spectral(rotated)
    if not np.isfinite(estimates).all():
        require_finite_steps(estimates, "Kalman estimate", first_step=0)
    return FilterResult(estimates)
