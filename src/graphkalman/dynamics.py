"""State-space dynamics with polynomial-filter state and observation matrices.

States evolve as x_k = a_k(S) x_{k-1} + sigma_k e_k and are observed through
z_k = b_k(S) x_k + sigma_tilde_k e~_k with independent standard white noises.
The state covariance stays a polynomial of the shift and follows the closed
recursion h_k = a_k^2 h_{k-1} + sigma_k^2 (reduced modulo the minimal
polynomial).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .graphs import GraphShift
from .polynomials import Polynomial, reduce_mod_minimal
from .seeding import as_seed_sequence, child_sequence, generator
from .spectral import (
    DistinctSpectrum,
    SpectralDecomposition,
    distinct_eigenvalues,
    eigendecompose,
    minimal_polynomial,
)
from .stationary import StationaryModel, sample
from .filters import apply_filter


def _as_tuple(value, length: int, name: str) -> tuple:
    seq = tuple(value)
    if len(seq) != length:
        raise ValueError(f"{name} must have length {length}, got {len(seq)}")
    return seq


@dataclass(frozen=True, eq=False)
class DynamicalSystem:
    """Per-step polynomials and noise levels over a fixed graph shift.

    Time-invariant systems store a single polynomial/noise entry; per-step
    accessors serve both layouts.
    """

    shift: GraphShift
    decomposition: SpectralDecomposition
    spectrum: DistinctSpectrum
    horizon: int
    state_polys: tuple[Polynomial, ...]
    observation_polys: tuple[Polynomial, ...]
    state_noise: tuple[float, ...]
    observation_noise: tuple[float, ...]
    initial_covariance: Polynomial
    time_invariant: bool

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        expected = 1 if self.time_invariant else self.horizon
        for name in ("state_polys", "observation_polys", "state_noise", "observation_noise"):
            if len(getattr(self, name)) != expected:
                raise ValueError(f"{name} must have length {expected}")
        for sigma in (*self.state_noise, *self.observation_noise):
            if not np.isfinite(sigma) or sigma < 0:
                raise ValueError(f"noise level {sigma!r} must be finite and >= 0")

    @classmethod
    def from_constant(
        cls,
        shift: GraphShift,
        state_poly: Polynomial,
        observation_poly: Polynomial,
        sigma: float,
        sigma_tilde: float,
        horizon: int,
        initial_covariance: Polynomial | None = None,
        decomposition: SpectralDecomposition | None = None,
        spectrum: DistinctSpectrum | None = None,
        allow_zero_noise: bool = False,
    ) -> "DynamicalSystem":
        """Time-invariant system; noise levels must be positive unless the
        zero-noise reference mode is explicitly requested."""
        if not allow_zero_noise and (sigma <= 0 or sigma_tilde <= 0):
            raise ValueError("noise levels must be positive (set allow_zero_noise for the reference mode)")
        if decomposition is None:
            decomposition = eigendecompose(shift)
        if spectrum is None:
            spectrum = distinct_eigenvalues(decomposition)
        return cls(
            shift=shift,
            decomposition=decomposition,
            spectrum=spectrum,
            horizon=int(horizon),
            state_polys=(state_poly,),
            observation_polys=(observation_poly,),
            state_noise=(float(sigma),),
            observation_noise=(float(sigma_tilde),),
            initial_covariance=initial_covariance or Polynomial.zero(),
            time_invariant=True,
        )

    @classmethod
    def from_sequences(
        cls,
        shift: GraphShift,
        state_polys: Sequence[Polynomial],
        observation_polys: Sequence[Polynomial],
        sigmas: Sequence[float],
        sigma_tildes: Sequence[float],
        initial_covariance: Polynomial | None = None,
        decomposition: SpectralDecomposition | None = None,
        spectrum: DistinctSpectrum | None = None,
        allow_zero_noise: bool = False,
    ) -> "DynamicalSystem":
        horizon = len(state_polys)
        if not allow_zero_noise and any(s <= 0 for s in (*sigmas, *sigma_tildes)):
            raise ValueError("noise levels must be positive (set allow_zero_noise for the reference mode)")
        if decomposition is None:
            decomposition = eigendecompose(shift)
        if spectrum is None:
            spectrum = distinct_eigenvalues(decomposition)
        return cls(
            shift=shift,
            decomposition=decomposition,
            spectrum=spectrum,
            horizon=horizon,
            state_polys=_as_tuple(state_polys, horizon, "state_polys"),
            observation_polys=_as_tuple(observation_polys, horizon, "observation_polys"),
            state_noise=tuple(float(s) for s in _as_tuple(sigmas, horizon, "sigmas")),
            observation_noise=tuple(float(s) for s in _as_tuple(sigma_tildes, horizon, "sigma_tildes")),
            initial_covariance=initial_covariance or Polynomial.zero(),
            time_invariant=False,
        )

    @property
    def n(self) -> int:
        return self.shift.n

    @cached_property
    def minimal_poly(self) -> Polynomial:
        return minimal_polynomial(self.spectrum)

    @cached_property
    def initial_model(self) -> StationaryModel:
        return StationaryModel(self.initial_covariance, self.decomposition, self.spectrum)

    def _check_step(self, k: int) -> None:
        if not 1 <= k <= self.horizon:
            raise ValueError(f"step {k} out of range 1..{self.horizon}")

    def state_poly(self, k: int) -> Polynomial:
        self._check_step(k)
        return self.state_polys[0 if self.time_invariant else k - 1]

    def observation_poly(self, k: int) -> Polynomial:
        self._check_step(k)
        return self.observation_polys[0 if self.time_invariant else k - 1]

    def state_sigma(self, k: int) -> float:
        self._check_step(k)
        return self.state_noise[0 if self.time_invariant else k - 1]

    def observation_sigma(self, k: int) -> float:
        self._check_step(k)
        return self.observation_noise[0 if self.time_invariant else k - 1]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Simulated states x_0..x_M (rows) and observations z_1..z_M (rows)."""

    states: np.ndarray
    observations: np.ndarray
    seed: np.random.SeedSequence

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float)
        observations = np.asarray(self.observations, dtype=float)
        if states.shape[0] != observations.shape[0] + 1:
            raise ValueError("states must have exactly one more row than observations")
        states.flags.writeable = False
        observations.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "observations", observations)

    @property
    def horizon(self) -> int:
        return self.observations.shape[0]


def step_state(
    sys: DynamicalSystem, x_prev: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """One state transition: a_k(S) x_{k-1} + sigma_k * fresh white noise."""
    sys._check_step(k)
    filtered = apply_filter(sys.state_poly(k), sys.shift, x_prev)
    return filtered + sys.state_sigma(k) * rng.standard_normal(sys.n)


def observe(
    sys: DynamicalSystem, x: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """One observation: b_k(S) x_k + sigma_tilde_k * fresh white noise."""
    sys._check_step(k)
    filtered = apply_filter(sys.observation_poly(k), sys.shift, x)
    return filtered + sys.observation_sigma(k) * rng.standard_normal(sys.n)


def propagate_covariance(
    h_prev: Polynomial, state_poly: Polynomial, sigma: float, minimal_poly: Polynomial
) -> Polynomial:
    """Covariance polynomial recursion h_k = a_k^2 h_{k-1} + sigma_k^2 (mod p_S)."""
    return reduce_mod_minimal(state_poly * state_poly * h_prev + sigma**2, minimal_poly)


def covariance_sequence(sys: DynamicalSystem, upto: int | None = None) -> list[Polynomial]:
    """State covariance polynomials h_0..h_upto (default: the full horizon)."""
    if upto is None:
        upto = sys.horizon
    if not 0 <= upto <= sys.horizon:
        raise ValueError(f"upto {upto} out of range 0..{sys.horizon}")
    h = reduce_mod_minimal(sys.initial_covariance, sys.minimal_poly)
    out = [h]
    for k in range(1, upto + 1):
        h = propagate_covariance(h, sys.state_poly(k), sys.state_sigma(k), sys.minimal_poly)
        out.append(h)
    return out


def simulate(sys: DynamicalSystem, seed) -> Trajectory:
    """Full trajectory, deterministic given the seed.

    Noise streams are disjoint per step: child key 0 drives the initial
    state, key 2k-1 the k-th process noise, key 2k the k-th observation
    noise.
    """
    ss = as_seed_sequence(seed)
    n, m = sys.n, sys.horizon
    states = np.zeros((m + 1, n))
    observations = np.zeros((m, n))
    if not sys.initial_covariance.is_zero:
        states[0] = sample(sys.initial_model, generator(child_sequence(ss, 0)))
    x = states[0]
    for k in range(1, m + 1):
        x = step_state(sys, x, k, generator(child_sequence(ss, 2 * k - 1)))
        states[k] = x
        observations[k - 1] = observe(sys, x, k, generator(child_sequence(ss, 2 * k)))
    return Trajectory(states=states, observations=observations, seed=ss)


def write_text(target, text: str) -> None:
    """Write ``text`` to a path, or to a stream with a ``write`` method."""
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)


def trajectory_to_csv(trajectory: Trajectory, target) -> None:
    """Write rows (k, vertex, x, z); the k=0 rows carry no observation."""
    lines = ["k,vertex,x,z"]
    n = trajectory.states.shape[1]
    for vertex in range(1, n + 1):
        lines.append(f"0,{vertex},{float(trajectory.states[0, vertex - 1])!r},")
    for k in range(1, trajectory.horizon + 1):
        for vertex in range(1, n + 1):
            x = float(trajectory.states[k, vertex - 1])
            z = float(trajectory.observations[k - 1, vertex - 1])
            lines.append(f"{k},{vertex},{x!r},{z!r}")
    write_text(target, "\n".join(lines) + "\n")
