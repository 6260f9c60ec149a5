"""State-space dynamics with polynomial-filter state and observation matrices.

States evolve as x_k = a_k(S) x_{k-1} + sigma_k e_k and are observed through
z_k = b_k(S) x_k + sigma_tilde_k e~_k with independent standard white noises.
A ``DynamicalSystem`` is built on one ``SpectralDecomposition``, which
carries the shift, its eigenbasis and its distinct eigenvalues.  Its
constructor is the one way to build a system:
``DynamicalSystem(spectrum, M, (a,), (b,), (sigma,), (sigma_tilde,))`` is
time-invariant, and a time-varying system passes M entries in each tuple
(a single given entry is repeated over the horizon M).  It lays out the
per-step inputs once and makes every check on them, one rule
(``filters.require_polynomial``) for every polynomial and one
(``require_noise_level``) for every noise level.  a_k and b_k are
evaluated at the distinct eigenvalues into read-only (M, d) response
arrays, row k - 1 for step k, which the simulation, covariance and Kalman
recursions read (one that is not finite is refused, naming its polynomial
and first step); none of them applies a polynomial to a vertex signal, and
none asks which step an entry serves.  x_0 has mean 0 and covariance h_0,
evaluated once at the distinct eigenvalues and clamped at 0: the one prior
that the simulation, the state covariance and the Riccati recursion start
from; h_0 is the zero polynomial unless given.  Its
``observed_responses``, b_k set to 0.0 where ``filters.passband`` calls a
frequency blind, is what every estimator reads, each with gain 0 there;
``simulate`` reads the raw b_k, since the channel is physical.

``simulate`` runs a stack of T trajectories, one seed each, held as
(T, M + 1, n) states and (T, M, n) observations.  Each trajectory draws one
vertex-space white-noise block of shape (2M + 1, n) from its own stream,
child key 0 of its seed (``child_sequence``) drawn with numpy's
``default_rng`` (``generator``; ``numpy.random`` is loaded on the first
draw, not with the package): row 0 drives the initial state, row 2k-1 the
process noise and row 2k the observation noise of step k.  The
(T, 2M + 1, n) blocks are rotated into the eigenbasis by one stacked
product, every frequency runs its own scalar recursion (the scaled
process noise is written into the state rows and ``propagate`` adds a_k
times the previous state in place, one Python step per time step for all
T trials), and states and observations are rotated back once.  A stacked product rounds
each trial as a product of its own rows would, so trial t of a stack is
bit for bit the trajectory its seed gives in a stack of one.  A stack with
a state or observation that is not finite raises ``NumericalFailureError``
naming the first such step.

The state covariance stays a polynomial of the shift and follows the closed
recursion h_k = a_k^2 h_{k-1} + sigma_k^2.  ``covariance_responses`` runs it
over steps 1..M, one scalar update per distinct eigenvalue; no
covariance is turned back into monomial coefficients here.  It, ``simulate``
and ``kalman.run_filter`` share one in-place loop, ``propagate``.  The
user's a_k, b_k and h_0 are the only polynomials, and they are inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailureError
from .filters import Polynomial, StationaryModel, passband, require_polynomial, require_psd
from .graphs import GraphShift, require_integral, require_real
from .spectral import SpectralDecomposition


def require_noise_level(value, name: str) -> float:
    """``value`` as a float if it is a real number (not a boolean), finite and
    >= 0, whose square is finite and, unless the level is 0, at least the
    smallest normal float, ``np.finfo(float).tiny``; else ValueError naming
    ``name``.  The one rule for every sigma and sigma_tilde: the recursions
    read the squares, so 1e200 (square inf), 1e-200 (square 0, read as no
    noise) and 1e-158 (a subnormal square, which the Riccati update rounds
    to a few digits) are refused.  The smallest positive level accepted is
    about 1.4917e-154."""
    level = require_real(value, name)
    if not 0 <= level < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {level!r}")
    tiny = np.finfo(float).tiny
    if level and not tiny <= level * level < math.inf:
        raise ValueError(f"{name} must be 0 or have a finite square of at least {tiny:.4g}, got {level!r}")
    return level


def _uniform(entries: tuple) -> bool:
    """Whether every entry equals the first (a C-level comparison, identity first)."""
    return entries[:1] * len(entries) == entries


@dataclass(frozen=True, eq=False)
class DynamicalSystem:
    """Per-step polynomials and noise levels over one spectrum.

    The spectrum carries the shift (``shift`` is read from it), and ``n``
    is its eigenvalue count.  The constructor is the one way to build a
    system and the one place that lays out the per-step inputs: each of the
    four per-step tuples holds one entry per step, entry k - 1 for step k,
    and a single given entry is repeated over the horizon.  h_0
    (``initial_covariance``) defaults to the zero polynomial.  The
    constructor also makes every check: every polynomial, h_0 included, by
    ``require_polynomial``'s rule (a sequence of numbers becomes a
    ``Polynomial``), every noise level by ``require_noise_level``'s (0 is
    allowed), and h_0 not negative at a distinct eigenvalue
    (``require_psd``).  The response arrays are (M, d), row k - 1 for step
    k, evaluated here (one not finite raises ``NumericalFailureError``), and
    a system is ``time_invariant`` when every step has the first step's inputs.
    """

    spectrum: SpectralDecomposition
    horizon: int
    state_polys: tuple[Polynomial, ...]
    observation_polys: tuple[Polynomial, ...]
    state_noise: tuple[float, ...]
    observation_noise: tuple[float, ...]
    initial_covariance: Polynomial = Polynomial()

    def __post_init__(self) -> None:
        horizon = require_integral(self.horizon, "horizon")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        entries = {
            "state_polys": tuple(require_polynomial(p, "state polynomial") for p in self.state_polys),
            "observation_polys": tuple(require_polynomial(p, "observation polynomial") for p in self.observation_polys),
            "state_noise": tuple(require_noise_level(s, "state noise level") for s in self.state_noise),
            "observation_noise": tuple(require_noise_level(s, "observation noise level") for s in self.observation_noise),
        }
        lengths = set(map(len, entries.values()))
        if len(lengths) != 1 or not lengths <= {1, horizon}:
            raise ValueError(f"per-step polynomials and noise levels must share one length, 1 or {horizon}")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "initial_covariance", require_polynomial(self.initial_covariance, "initial covariance"))
        for field, values in entries.items():
            object.__setattr__(self, field, values * horizon if len(values) == 1 else values)
        require_psd(self.initial_model.group_variances, "initial covariance")
        _ = self.state_responses, self.observation_responses  # refused here if not finite

    @property
    def time_invariant(self) -> bool:
        """Whether every step has the first step's polynomials and noise levels."""
        return all(map(_uniform, (self.state_polys, self.observation_polys, self.state_noise, self.observation_noise)))

    @property
    def shift(self) -> GraphShift:
        return self.spectrum.shift

    @property
    def n(self) -> int:
        return self.spectrum.n

    @cached_property
    def initial_model(self) -> StationaryModel:
        return StationaryModel(self.initial_covariance, self.spectrum)

    @cached_property
    def state_responses(self) -> np.ndarray:
        """a_k at the distinct eigenvalues, read-only (M, d), row k - 1 for step k."""
        return self._responses(self.state_polys, "state polynomial")

    @cached_property
    def observation_responses(self) -> np.ndarray:
        """b_k at the distinct eigenvalues, read-only (M, d), row k - 1 for step k."""
        return self._responses(self.observation_polys, "observation polynomial")

    @cached_property
    def observed_responses(self) -> np.ndarray:
        """``observation_responses`` with the frequencies ``passband`` calls
        blind set to 0.0, read-only: the responses every estimator reads."""
        responses = self.observation_responses
        values = np.where(passband(responses), responses, 0.0)
        values.flags.writeable = False
        return values

    def _responses(self, polys: tuple[Polynomial, ...], what: str) -> np.ndarray:
        # a polynomial every step shares is evaluated once and its row repeated
        mu = self.spectrum.representatives
        uniform = _uniform(polys)
        with np.errstate(over="ignore", invalid="ignore"):
            rows = np.array([poly(mu) for poly in (polys[:1] if uniform else polys)]).reshape(-1, mu.size)
        require_finite_steps(rows, f"{what} response", first_step=1)
        values = np.repeat(rows, len(polys), axis=0) if uniform else rows
        values.flags.writeable = False
        return values


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states x_0..x_M and observations z_1..z_M of T trials, as rows:
    (T, M + 1, n) states, (T, M, n) observations and a tuple of T seeds;
    ``states[t]`` is trial t.
    """

    states: np.ndarray
    observations: np.ndarray
    seed: tuple[np.random.SeedSequence, ...]

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        observations = np.asarray(self.observations, dtype=float)
        if states.ndim != 3 or observations.shape != (states.shape[0], states.shape[1] - 1, states.shape[2]):
            raise ValueError(
                f"states and observations must be (T, M + 1, n) and (T, M, n), got {states.shape} and {observations.shape}"
            )
        states.flags.writeable = False
        observations.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", observations)


def covariance_responses(sys: DynamicalSystem) -> np.ndarray:
    """State covariances h_1..h_M at the distinct eigenvalues mu, (M, d), row
    k - 1 for step k: h_k(mu) = sigma_k^2 + a_k(mu)^2 h_{k-1}(mu) through
    ``propagate``, from h_0 as ``simulate`` draws x_0 (``clamped_group_variances``).

    Raises:
        NumericalFailureError: naming the first step whose response is not finite.
    """
    out = np.empty((sys.horizon + 1, sys.spectrum.count))
    out[0] = sys.initial_model.clamped_group_variances
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:] = np.square(sys.state_noise)[:, None]
        propagate(out, sys.state_responses**2)
    require_finite_steps(out[1:], "state covariance response", first_step=1)
    return out[1:]


def propagate(rows: np.ndarray, carries: np.ndarray) -> None:
    """rows[k] += carries[k-1] * rows[k-1] in place for k >= 1: row 0 holds
    the start, rows 1.. the drives, and carries past the last row are not
    read.  Overflow is left to each caller, which names its first non-finite
    step."""
    previous = rows[0]
    for carry, row in zip(carries, rows[1:]):
        row += carry * previous
        previous = row


def require_finite_steps(values: np.ndarray, what: str, first_step: int) -> None:
    """Raise ``NumericalFailureError`` naming the first step at which
    ``values`` holds a NaN or infinity.  Steps run along axis -2, row i
    being step ``first_step + i``, under any leading trial axes."""
    finite = np.isfinite(values).all(axis=(*range(values.ndim - 2), -1))
    if not finite.all():
        step = first_step + int(np.argmin(finite))
        raise NumericalFailureError(f"{what} is not finite from step {step} on")


def generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, the package's one way to draw.  A
    function rather than an import, so ``numpy.random`` loads on the first
    draw and not with the package."""
    return np.random.default_rng(seed)


def child_sequence(parent: np.random.SeedSequence, key: int) -> np.random.SeedSequence:
    """Child ``key`` of ``parent``, derived by extending its spawn key.

    Unlike ``parent.spawn``, this is stateless: the same key always yields
    the same child, so any stream can be re-derived on its own.
    """
    return np.random.SeedSequence(entropy=parent.entropy, spawn_key=(*parent.spawn_key, int(key)))


def simulate(sys: DynamicalSystem, seeds) -> Trajectory:
    """A stack of T trajectories of the system, deterministic given their seeds.

    ``seeds`` is a list, tuple, range or 1-D array of T seeds (anything else
    raises ValueError), and trial t of the stack is the one that seed t
    gives in a stack of one.  Each trial's stream, child key 0 of its seed,
    draws a vertex-space standard white-noise block E of shape (2M + 1, n):
    row 0 drives the initial state, row 2k-1 the process noise and row 2k
    the observation noise of step k.  In the eigenbasis (E~ =
    ``to_spectral(E)``, one stacked product, so each trial is rounded as on
    its own) each frequency runs

        x~_0 = sqrt(h_0) e~_0,   x~_k = a_k x~_{k-1} + sigma_k e~_{2k-1},
        z~_k = b_k x~_k + sigma_tilde_k e~_{2k},

    and states and observations are rotated back once (``from_spectral``).  The
    rows x~_k are first filled with sigma_k e~_{2k-1}, and ``propagate`` adds
    a_k x~_{k-1} to each in place, one Python step per time step for all
    trials at once.  Each z~_k is formed in the place of e~_{2k}.

    Raises:
        NumericalFailureError: naming the first step at which a state or an
            observation of any trial is not finite (an unstable a_k overflows).
    """
    if not (isinstance(seeds, (list, tuple, range)) or (isinstance(seeds, np.ndarray) and seeds.ndim == 1)):
        raise ValueError(
            f"seeds must be a list, tuple, range or 1-D array, one per trial of a (T, M + 1, n) stack, got {seeds!r}"
        )
    seed_sequence = np.random.SeedSequence
    sequences = tuple(seed if isinstance(seed, seed_sequence) else seed_sequence(seed) for seed in seeds)
    trials, n, m = len(sequences), sys.n, sys.horizon
    noise = np.empty((trials, 2 * m + 1, n))
    for t, ss in enumerate(sequences):
        generator(child_sequence(ss, 0)).standard_normal(out=noise[t])
    # the drawn blocks are freed once rotated; time-major from here: row k of
    # x~, shape (M + 1, T, n), is step k of every trial
    e_tilde = sys.spectrum.to_spectral(noise).swapaxes(0, 1)
    del noise
    expand = sys.spectrum.expand
    x_tilde = np.empty((m + 1, trials, n))
    initial_scale = np.sqrt(sys.initial_model.clamped_group_variances)
    np.multiply(expand(initial_scale), e_tilde[0], out=x_tilde[0])
    np.multiply(np.asarray(sys.state_noise)[:, None, None], e_tilde[1::2], out=x_tilde[1:])
    # a_k at each step's full (T, n) shape keeps numpy on its fast loop
    a = np.repeat(expand(sys.state_responses)[:, None], trials, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        propagate(x_tilde, a)
        # z~_k = sigma_tilde_k e~_{2k} + b_k x~_k, formed in the rows of e~_{2k}
        z_tilde = e_tilde[2::2]
        z_tilde *= np.asarray(sys.observation_noise)[:, None, None]
        z_tilde += expand(sys.observation_responses)[:, None] * x_tilde[1:]
        states = sys.spectrum.from_spectral(x_tilde.swapaxes(0, 1))
        observations = sys.spectrum.from_spectral(z_tilde.swapaxes(0, 1))
    if not (np.isfinite(states).all() and np.isfinite(observations).all()):
        # row k of each trial: step k's state and observation (none at step 0)
        steps = np.concatenate((states, np.insert(observations, 0, 0.0, axis=1)), axis=2)
        require_finite_steps(steps, "simulated trajectory", first_step=0)
    return Trajectory(states=states, observations=observations, seed=sequences)

