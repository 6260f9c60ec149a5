"""Graph Kalman filter and static inverse filtering in the eigenbasis of the shift.

On a symmetric shift the gain and error covariance stay polynomials of the
shift, so each step reduces to independent scalar updates at the distinct
eigenvalues:

    predicted  pe = a^2 p_prev + sigma^2
    gain       gamma = pe * b / (b^2 pe + sigma_tilde^2)
    updated    pi = sigma_tilde^2 * pe / (b^2 pe + sigma_tilde^2)

With sigma_tilde = 0 the update is its limit, gain 1/b and error 0, except at
a blind frequency (``observed_responses`` 0): there the gain is 0 and the error
pe at any sigma_tilde, so a filter that sees nothing predicts and estimates 0.

The recursion and the filter are carried on these frequency responses and
read a and b of step k as row k - 1 of the system's (M, d) response arrays,
evaluated once per system.  The prior is the system's: x^_0 = 0, p_0 = h_0
clamped at 0, the array ``simulate`` draws x_0 from and
``covariance_responses`` starts at (x_0 is zero-mean).  ``riccati_sequence``
always runs the system's whole horizon M and returns the gain and error
responses as (M, d) arrays, or raises ``NumericalFailureError`` at the first
step where one is not finite.
Its recursion carries one state, the error variance p; the predicted
variances and the gains are read off the finished error sequence as whole
(M, d) arrays.  For a time-invariant system (every step has the first
step's inputs) a step's only changing input is p_{k-1}, so once a step
returns p_k bitwise equal to p_{k-2} every later step repeats the step two
before it: the remaining rows are filled with period 2, bit for bit what
the full loop gives (an exact fixed point is the case p_{k-1} = p_k).
A ``RiccatiSequence`` owns every data-independent array the filter reads:
the gain and error responses and, formed once per sequence, the per-step
carry and gain rows at the eigenindices (``filter_rows``).  Filtering moves
the observations into the eigenbasis once, updates every frequency on its
own through ``dynamics.propagate``, the in-place loop the simulation and
the state covariance also run, and moves the estimates back once; a prefix
of the observations reads a prefix of the rows.  ``run_filter`` returns
a ``FilterResult``, the m + 1 estimates as one (m + 1, n) array (readable as
a sequence of ``KalmanState`` built on demand); an estimate that is not
finite raises ``NumericalFailureError`` naming its first step.
The one edge back to a polynomial of the shift is ``RiccatiSequence.gains``,
Chebyshev interpolants made on request (``NumericalFailureError`` where an
interpolant cannot keep its node values).

Static inverse filtering, the paper's baseline, is the gain's sigma_tilde -> 0
limit applied without memory: ``inverse_estimate`` scales each z~_k alone by
``_inverse_gains`` (1/b, 0 where ``observed_responses`` is 0), the gain rows of
a noise-free Riccati step, and ``inverse_error_covariance`` is its (M, d) error.
The zero estimate needs no code: its error is ``covariance_responses(sys)``.
The dense Riccati step is ``verify``'s oracle.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import DynamicalSystem, covariance_responses, propagate, require_finite_steps
from .filters import ChebyshevSeries, lagrange_interpolate


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Estimate after one step, row k of a ``FilterResult``.  Kept for
    perfbench's filter capture, which reads results step by step; it goes
    with ROADMAP items 1 and 2."""

    estimate: np.ndarray


@dataclass(frozen=True, eq=False)
class RiccatiSequence:
    """Gain and error responses of ``system`` at its distinct eigenvalues:
    the one owner of the filter's data-independent arrays.

    Row k-1 of ``gain_responses`` and ``error_responses`` holds step k of
    the system's whole horizon; p_0 is the system's h_0 as ``simulate`` draws
    x_0 (``system.initial_model.clamped_group_variances``).
    ``filter_rows`` expands them into the filter's per-step rows, and
    ``gains`` interpolates the gain rows, one ``ChebyshevSeries`` per step
    on the span of the distinct eigenvalues; both are made on first access.
    """

    system: DynamicalSystem
    gain_responses: np.ndarray
    error_responses: np.ndarray

    @cached_property
    def filter_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(carry, gain): read-only (M, n) arrays whose row k-1 holds
        carry_k = a_k (1 - g_k b_k) and g_k of step k at the eigenindices,
        with b_k the system's ``observed_responses``."""
        sys, g = self.system, self.gain_responses
        carry = sys.spectrum.expand(sys.state_responses * (1.0 - g * sys.observed_responses))
        gain = sys.spectrum.expand(g)
        for values in (carry, gain):
            values.flags.writeable = False
        return carry, gain

    @cached_property
    def gains(self) -> tuple[ChebyshevSeries, ...]:
        nodes = self.system.spectrum.representatives
        return tuple(lagrange_interpolate(nodes, row) for row in self.gain_responses)


def _inverse_gains(observed: np.ndarray) -> np.ndarray:
    """1/b of ``observed_responses`` rows b, 0 where b is 0: the Kalman gain
    at sigma_tilde = 0 and the inverse filter's gain at any sigma_tilde."""
    return np.divide(1.0, observed, out=np.zeros_like(observed), where=observed != 0.0)


def riccati_sequence(sys: DynamicalSystem) -> RiccatiSequence:
    """Run the error/gain recursion over the system's whole horizon M.

    The prior p_0 is the system's h_0 at the distinct eigenvalues, clamped at
    0 as ``simulate`` and ``covariance_responses`` read it, the stationary
    initialization.  The recursion carries the error variance alone, one
    scalar update per distinct eigenvalue (its limit at zero observation
    noise, see above); the predicted variances and the gains are then read
    off the whole error sequence, and the responses of all steps come back
    as ``(M, d)`` arrays.  A response that overflows (an unstable blind
    frequency) raises ``NumericalFailureError`` naming its first step.

    For a time-invariant system, step k reads p_{k-1} and inputs that
    never change.  So when step k returns p_k bitwise equal to p_{k-2} (p_0
    included), every later step repeats the step two before it: the
    remaining error rows alternate between p_{k-1} and p_k, bit for bit what
    the full loop gives, and are filled instead of computed.  An exact fixed
    point p_k = p_{k-1} is the same rule one step later.  A filled row could
    not raise, since its inputs are those of a computed row, and a
    non-finite row stays non-finite, so the first step named is the same.
    Time-varying systems run every step.
    """
    steps, d = sys.horizon, sys.spectrum.count
    observation = sys.observed_responses
    observation_squared = observation**2
    state_squared = sys.state_responses**2
    invariant = sys.time_invariant
    # row k holds p_k, row 0 the prior
    variances = np.empty((steps + 1, d))
    variances[0] = sys.initial_model.clamped_group_variances
    pe = np.empty(d)
    denom = np.empty(d)
    # finite by the system's noise-level rule, and nonzero unless the level is 0
    sigma_squared = np.square(sys.state_noise)
    sigma_tilde_squared = np.square(sys.observation_noise)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, sigma_k, noise_k in zip(range(1, steps + 1), sigma_squared.tolist(), sigma_tilde_squared.tolist()):
            np.multiply(state_squared[k - 1], variances[k - 1], out=pe)
            pe += sigma_k
            if noise_k > 0:
                np.multiply(observation_squared[k - 1], pe, out=denom)
                denom += noise_k
                np.multiply(pe, noise_k, out=variances[k])
                variances[k] /= denom
            else:
                # a noise-free step sees an observed frequency exactly and predicts a blind one
                variances[k] = 0.0
                np.copyto(variances[k], pe, where=observation[k - 1] == 0.0)
            if invariant and k >= 2 and variances[k].tobytes() == variances[k - 2].tobytes():
                variances[k + 1 :: 2] = variances[k - 1]
                variances[k + 2 :: 2] = variances[k]
                break

        # every step's predicted variance and gain, from the error rows
        noise = sigma_tilde_squared[:, None]
        predicted = state_squared * variances[:-1] + sigma_squared[:, None]
        gains = predicted * observation / (observation_squared * predicted + noise)
        gains = np.where(noise == 0.0, _inverse_gains(observation), gains)
    errors = variances[1:]
    require_finite_steps(np.hstack((gains, errors)), "Riccati gain or error response", first_step=1)
    for values in (gains, errors):
        values.flags.writeable = False
    return RiccatiSequence(system=sys, gain_responses=gains, error_responses=errors)


def inverse_estimate(sys: DynamicalSystem, observations) -> np.ndarray:
    """Static inverse-filtering estimates of a (T, m, n) stack of observation
    rows z_1..z_m: z_k times step k's ``_inverse_gains`` in the eigenbasis,
    with no memory of earlier steps.  The estimates have the stack's shape,
    and trial t is what its rows give as a stack of one.

    Raises:
        NumericalFailureError: naming the first step at which an estimate of
            any trial is not finite (a non-finite observation, or one so
            large that its inverse overflows).
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 3 or obs.shape[2] != sys.n or obs.shape[1] > sys.horizon:
        raise ValueError(f"observations have shape {obs.shape}, expected (T, m, {sys.n}) with m <= {sys.horizon}")
    inverted = _inverse_gains(sys.observed_responses[: obs.shape[1]])
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
    Unlike ``simulate`` and ``inverse_estimate``, it takes one trajectory per
    call, not a (T, m, n) stack: perfbench's filter capture reads its
    results trial by trial, until ROADMAP items 1 and 2.

    The filter runs in the shift's eigenbasis.  The observations are moved
    there once (``to_spectral``), and with the state, observed and gain
    responses a_k, b_k, g_k every step updates each frequency on its own,

        x~ <- a_k x~ + g_k (z~_k - b_k a_k x~) = carry_k x~ + drive_k,

    where drive_k = g_k z~_k.  carry_k = a_k (1 - g_k b_k) and g_k at the
    eigenindices are not formed here: they are ``riccati.filter_rows``,
    formed once per sequence over the whole horizon; the first m are read.
    The drives are written into rows 1..m of the estimates (row 0 is
    x~_0 = 0), ``propagate`` adds carry_k x~_{k-1} to row k in place, and
    the estimates are moved back once.  g_k is 0 at a blind frequency, so
    the estimate there is 0.  The dense matrix recursion is not run here;
    ``verify.matrix_riccati_path`` keeps it as the oracle.

    The prior is the system's: x^_0 = 0 and p_0 = h_0.  Without ``riccati``
    the sequence of ``sys`` is computed; a precomputed one (it is
    data-independent) may be reused across trajectories of its system, and
    one computed for any other system raises ``ValueError``.

    Raises:
        NumericalFailureError: naming the first step whose estimate is not
            finite (a non-finite observation, or an estimate that overflows).
    """
    obs = np.asarray(observations, dtype=float)
    if obs.ndim != 2 or obs.shape[1] != sys.n or obs.shape[0] > sys.horizon:
        raise ValueError(f"observations have shape {obs.shape}, expected (m, {sys.n}) with m <= {sys.horizon}")
    m = obs.shape[0]
    if riccati is None:
        riccati = riccati_sequence(sys)
    elif riccati.system is not sys:
        raise ValueError("precomputed riccati sequence belongs to another system")

    carry, gain = riccati.filter_rows
    estimates = np.zeros((m + 1, sys.n))
    # a non-finite estimate is named below, once, rather than warned about per operation
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(sys.spectrum.to_spectral(obs), gain[:m], out=estimates[1:])
        propagate(estimates, carry)
        estimates[1:] = sys.spectrum.from_spectral(estimates[1:])
    if not np.isfinite(estimates).all():
        require_finite_steps(estimates, "Kalman estimate", first_step=0)
    return FilterResult(estimates)
