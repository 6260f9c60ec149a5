"""Shared fixtures and helpers: cycle-graph spectral setups."""
from __future__ import annotations

import numpy as np
import pytest

from graphkalman import build_shift, cycle_graph, distinct_eigenvalues, eigendecompose


def spectrum_of(shift):
    """The distinct spectrum of a shift: the one spectral handle systems and models take."""
    return distinct_eigenvalues(eigendecompose(shift))


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

