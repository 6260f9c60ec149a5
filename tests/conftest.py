"""Shared fixtures and helpers: cycle-graph spectral setups."""
from __future__ import annotations

import numpy as np
import pytest

from graphkalman import (
    DynamicalSystem,
    Polynomial,
    RiccatiSequence,
    build_shift,
    cycle_graph,
    eigendecompose,
)
from graphkalman.dynamics import require_finite_steps


def plain_recursion(x0, carry, drive):
    """Rows x_0 = x0 and x_k = c_k x_{k-1} + d_k, each a new array: the
    reference for ``dynamics.propagate`` as ``simulate``, ``run_filter`` and
    ``covariance_responses`` run it."""
    rows = [x0]
    for c, d in zip(carry, drive):
        rows.append(c * rows[-1] + d)
    return np.array(rows)


def full_riccati_sequence(sys: DynamicalSystem) -> RiccatiSequence:
    """The textbook Riccati recursion over the whole horizon, reading step
    k's entry k - 1 of each per-step input, with no early exit: predict, gain,
    update at every step, and with zero observation noise the gain 1/b and
    error 0 where b is nonzero, and at a blind frequency gain 0 and the
    predicted variance as error.  The reference for ``riccati_sequence``,
    which shares no step code with it."""
    steps, d = sys.horizon, sys.spectrum.count
    gains = np.empty((steps, d))
    errors = np.empty((steps, d))
    p = sys.initial_model.clamped_group_variances
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, steps + 1):
            a = sys.state_responses[k - 1]
            b = sys.observed_responses[k - 1]
            sigma_tilde_squared = sys.observation_noise[k - 1] ** 2
            predicted = a**2 * p + sys.state_noise[k - 1] ** 2
            if sigma_tilde_squared > 0:
                innovation = b**2 * predicted + sigma_tilde_squared
                gains[k - 1] = predicted * b / innovation
                errors[k - 1] = predicted * sigma_tilde_squared / innovation
            else:
                for i in range(d):
                    if b[i] == 0.0:
                        gains[k - 1, i], errors[k - 1, i] = 0.0, predicted[i]
                    else:
                        gains[k - 1, i], errors[k - 1, i] = 1.0 / b[i], 0.0
            p = errors[k - 1]
    require_finite_steps(np.hstack((gains, errors)), "Riccati gain or error response", first_step=1)
    return RiccatiSequence(system=sys, gain_responses=gains, error_responses=errors)


def time_varying_cycle_system(n: int, steps: int) -> DynamicalSystem:
    """A C_n Laplacian system whose polynomials and noise levels change every step."""
    ks = range(1, steps + 1)
    return DynamicalSystem(
        eigendecompose(build_shift(cycle_graph(n), "laplacian")),
        steps,
        tuple(Polynomial((0.9 - 0.05 * k, 0.02 * k)) for k in ks),
        tuple(Polynomial((1.0, -0.1 * k)) for k in ks),
        tuple(0.1 * k for k in ks),
        tuple(1.2 - 0.1 * k for k in ks),
        Polynomial((0.5, 0.1)),
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

