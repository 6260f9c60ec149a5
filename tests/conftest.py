"""Shared fixtures and helpers: cycle-graph spectral setups."""
from __future__ import annotations

import numpy as np
import pytest

from graphkalman import (
    DynamicalSystem,
    Polynomial,
    build_shift,
    cycle_graph,
    distinct_eigenvalues,
    eigendecompose,
)


def spectrum_of(shift):
    """The distinct spectrum of a shift: the one spectral handle systems and models take."""
    return distinct_eigenvalues(eigendecompose(shift))


def plain_recursion(x0, carry, drive):
    """Rows x_0 = x0 and x_k = c_k x_{k-1} + d_k, each a new array: the
    reference for the in-place loops of ``simulate`` and ``run_filter``."""
    rows = [x0]
    for c, d in zip(carry, drive):
        rows.append(c * rows[-1] + d)
    return np.array(rows)


def time_varying_cycle_system(n: int, steps: int) -> DynamicalSystem:
    """A C_n Laplacian system whose polynomials and noise levels change every step."""
    ks = range(1, steps + 1)
    return DynamicalSystem.from_sequences(
        spectrum_of(build_shift(cycle_graph(n), "laplacian")),
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
    decomposition = eigendecompose(shift)
    spectrum = distinct_eigenvalues(decomposition)
    return graph, shift, decomposition, spectrum


@pytest.fixture(scope="session")
def c30():
    graph = cycle_graph(30)
    shift = build_shift(graph, "laplacian")
    decomposition = eigendecompose(shift)
    spectrum = distinct_eigenvalues(decomposition)
    return graph, shift, decomposition, spectrum

