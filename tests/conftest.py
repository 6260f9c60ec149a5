"""Shared fixtures and helpers: cycle-graph spectral setups."""
from __future__ import annotations

import numpy as np
import pytest

from graphkalman import (
    DynamicalSystem,
    Polynomial,
    RiccatiSequence,
    SingularGainError,
    build_shift,
    cycle_graph,
    eigendecompose,
)
from graphkalman import kalman
from graphkalman.dynamics import require_finite_steps


def plain_recursion(x0, carry, drive):
    """Rows x_0 = x0 and x_k = c_k x_{k-1} + d_k, each a new array: the
    reference for the in-place loops of ``simulate`` and ``run_filter``."""
    rows = [x0]
    for c, d in zip(carry, drive):
        rows.append(c * rows[-1] + d)
    return np.array(rows)


def full_riccati_sequence(sys: DynamicalSystem) -> RiccatiSequence:
    """The Riccati recursion over the whole horizon, one ``_scalar_riccati``
    call per step read through the system's per-step accessors, with no
    early exit: the reference for ``riccati_sequence``'s fixed-point fill."""
    steps = sys.horizon
    observation = sys.observed_responses
    gains = np.empty((steps, sys.spectrum.count))
    errors = np.empty((steps, sys.spectrum.count))
    scratch = np.empty(sys.spectrum.count)
    p_values = sys.initial_model.group_variances
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            row = sys.response_row(k)
            try:
                _, p_values = kalman._scalar_riccati(
                    p_values,
                    sys.state_responses[row] ** 2,
                    observation[row],
                    sys.state_sigma(k) ** 2,
                    sys.observation_sigma(k) ** 2,
                    observation[row] ** 2,
                    (gains[k - 1], errors[k - 1], scratch),
                )
            except SingularGainError as exc:
                raise SingularGainError(f"step {k}: {exc}") from exc
    require_finite_steps(np.hstack((gains, errors)), "Riccati gain or error response", first_step=1)
    return RiccatiSequence(system=sys, gain_responses=gains, error_responses=errors)


def time_varying_cycle_system(n: int, steps: int) -> DynamicalSystem:
    """A C_n Laplacian system whose polynomials and noise levels change every step."""
    ks = range(1, steps + 1)
    return DynamicalSystem.from_sequences(
        eigendecompose(build_shift(cycle_graph(n), "laplacian")),
        state_polys=[Polynomial((0.9 - 0.05 * k, 0.02 * k)) for k in ks],
        observation_polys=[Polynomial((1.0, -0.1 * k)) for k in ks],
        sigmas=[0.1 * k for k in ks],
        sigma_tildes=[1.2 - 0.1 * k for k in ks],
        initial_covariance=Polynomial((0.5, 0.1)),
    )


def cycle_laplacian_eigenvalues(n: int) -> np.ndarray:
    """Independent oracle: eigenvalues of the cycle Laplacian are 2 - 2cos(2 pi k / n)."""
    k = np.arange(n)
    return np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * k / n))


@pytest.fixture(scope="session")
def c4():
    graph = cycle_graph(4)
    shift = build_shift(graph, "laplacian")
    return graph, shift, eigendecompose(shift)


@pytest.fixture(scope="session")
def c30():
    graph = cycle_graph(30)
    shift = build_shift(graph, "laplacian")
    return graph, shift, eigendecompose(shift)


@pytest.fixture(scope="session")
def c120():
    # 61 distinct eigenvalues: beyond what a monomial interpolant keeps in float64
    graph = cycle_graph(120)
    shift = build_shift(graph, "laplacian")
    return graph, shift, eigendecompose(shift)

