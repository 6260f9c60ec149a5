"""Symmetric eigendecomposition with its distinct-eigenvalue grouping.

The Laplacian of the unweighted cycle C_n, the shift of the cycle-graph
study, is circulant, so ``eigendecompose`` gives it its eigenpairs in
closed form: the eigenvalues 4 sin^2(pi k / n) and the orthonormal real DFT
basis (constant, cosine and sine pairs, and the alternating column for
even n; Gray, "Toeplitz and circulant matrices: a review", 2006).  A shift
is taken to be that Laplacian by how it was built, kind ``"laplacian"`` on
a graph equal to ``cycle_graph(n)``, never by its matrix.  Every other
shift goes to LAPACK's ``eigh``.  The closed form is a few numpy ufunc
calls, keeps full relative accuracy at the eigenvalues near 0, and starts
no BLAS thread (a threaded ``eigh`` can leave one spinning after it returns).

A ``SpectralDecomposition`` is the one spectral handle the package takes.
It holds the shift, its eigenpairs and, worked out from the eigenvalues
alone on first use, their grouping into distinct eigenvalues
(``representatives``, ``group_index``, ``multiplicities``), so a system, a
stationary model or a membership test cannot mix eigenpairs of one shift
with the eigenvalue groups of another.  Only it reads the eigenvectors U;
every other module changes basis through its four methods: ``to_spectral``
(x U, the graph Fourier transform), ``from_spectral`` (c U^T), ``operator``
(U diag(r) U^T) and ``in_eigenbasis`` (U^T M U).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFailureError
from .graphs import GraphShift, cycle_graph

# Largest within-group eigh spread in the tests and verify: 4.4e-16 (relative);
# the closed-form C_n's smallest distinct gap, about 40/n^2, exceeds 4e-12 to n = 10^6
DEFAULT_GROUPING_SCALE = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a symmetric shift, S = U diag(eigenvalues) U^T, and
    their grouping into distinct eigenvalues.

    Eigenvalues are ascending; eigenvector signs are fixed so the first
    component above 1e-12 of the column's largest is positive.  Both arrays
    are read-only.  The grouping is single linkage on the eigenvalues alone:
    a gap > ``tol`` = ``DEFAULT_GROUPING_SCALE * max(1, max|lambda|)`` starts
    a new group.  ``group_index[i]`` maps the i-th eigenvalue to its group;
    the ``representatives`` (group means) are strictly increasing and
    pairwise separated by more than ``tol``.  Each is computed on first
    access and read-only.
    """

    shift: GraphShift
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def tol(self) -> float:
        return DEFAULT_GROUPING_SCALE * max(1.0, float(np.max(np.abs(self.eigenvalues))))

    @cached_property
    def group_index(self) -> np.ndarray:
        index = np.concatenate(([0], np.cumsum(np.diff(self.eigenvalues) > self.tol)))
        index.flags.writeable = False
        return index

    @cached_property
    def multiplicities(self) -> np.ndarray:
        counts = np.bincount(self.group_index)
        counts.flags.writeable = False
        return counts

    @cached_property
    def representatives(self) -> np.ndarray:
        means = np.bincount(self.group_index, weights=self.eigenvalues) / self.multiplicities
        means.flags.writeable = False
        return means

    @property
    def count(self) -> int:
        return self.representatives.size

    def group_means(self, values: np.ndarray) -> np.ndarray:
        """Average per-eigenindex ``values`` within each group."""
        values = np.asarray(values, dtype=float)
        sums = np.bincount(self.group_index, weights=values, minlength=self.count)
        return sums / self.multiplicities

    def expand(self, group_values: np.ndarray) -> np.ndarray:
        """Broadcast per-group values back to per-eigenindex order along the
        last axis, so a (T, d) array of responses becomes (T, n)."""
        return np.asarray(group_values, dtype=float)[..., self.group_index]

    def to_spectral(self, x: np.ndarray) -> np.ndarray:
        """x U, for signals along the last axis.  A (T, m, n) stack is one matmul
        that rounds each (m, n) block as it would be rounded alone."""
        return x @ self.eigenvectors

    def from_spectral(self, c: np.ndarray) -> np.ndarray:
        """c U^T, back to vertex signals along the last axis; rounds as ``to_spectral``."""
        return c @ self.eigenvectors.T

    def operator(self, responses: np.ndarray) -> np.ndarray:
        """Dense U diag(responses) U^T, symmetrised and read-only."""
        u = self.eigenvectors
        matrix = (u * responses) @ u.T
        matrix = 0.5 * (matrix + matrix.T)
        matrix.flags.writeable = False
        return matrix

    def in_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """U^T M U, for an (n, n) matrix M; any other shape raises ``ValueError``."""
        if np.shape(matrix) != (self.n, self.n):
            raise ValueError(f"matrix shape {np.shape(matrix)} does not match graph order {self.n}")
        return self.eigenvectors.T @ matrix @ self.eigenvectors


def eigendecompose(shift: GraphShift) -> SpectralDecomposition:
    """Orthogonal eigendecomposition of a symmetric graph shift: the closed
    form for the cycle Laplacian (see the module docstring), ``eigh`` for
    any other shift."""
    if shift.kind == "laplacian" and shift.n >= 3 and shift.graph == cycle_graph(shift.n):
        eigenvalues, vectors = _cycle_laplacian_eigenpairs(shift.n)
    else:
        eigenvalues, vectors = _eigh(shift.matrix)
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return SpectralDecomposition(shift=shift, eigenvalues=eigenvalues, eigenvectors=vectors)


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        eigenvalues, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    # sign convention: first component exceeding a relative threshold is positive
    n = eigenvalues.size
    threshold = 1e-12 * np.max(np.abs(vectors), axis=0)
    first_nonzero = np.argmax(np.abs(vectors) > threshold, axis=0)
    signs = np.sign(vectors[first_nonzero, np.arange(n)])
    return eigenvalues, vectors * signs


def _cycle_laplacian_eigenpairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the C_n Laplacian, eigenvalues ascending.

    Column 0 is the constant 1/sqrt(n) with eigenvalue 0.  For 1 <= k < n/2,
    columns 2k - 1 and 2k are sqrt(2/n) cos(2 pi k j / n) and
    sqrt(2/n) sin(2 pi k j / n), j = 0..n-1, sharing one float eigenvalue
    4 sin^2(pi k / n).  For even n the last column is (-1)^j / sqrt(n) with
    eigenvalue 4.  Every column's first nonzero component is positive.
    """
    j = np.arange(n)
    k = np.arange(1, (n + 1) // 2)
    # k j reduced mod n first, so every angle lies in [0, 2 pi)
    angles = (2.0 * np.pi / n) * (np.outer(j, k) % n)
    scale = np.sqrt(2.0 / n)
    vectors = np.empty((n, n))
    vectors[:, 0] = 1.0 / np.sqrt(n)
    vectors[:, 1 : 2 * k.size + 1 : 2] = scale * np.cos(angles)
    vectors[:, 2 : 2 * k.size + 1 : 2] = scale * np.sin(angles)
    if n % 2 == 0:
        vectors[:, -1] = np.where(j % 2 == 0, 1.0, -1.0) / np.sqrt(n)
    # 4 sin^2 rather than 2 - 2 cos, which loses digits near 0
    values = 4.0 * np.sin((np.pi / n) * np.arange(n // 2 + 1)) ** 2
    return values[(j + 1) // 2], vectors


def distinct_eigenvalues(spectrum: SpectralDecomposition) -> SpectralDecomposition:
    """Work out ``spectrum``'s grouping now and return ``spectrum``.

    Kept for the benchmark, whose set-up probe times this call; it goes
    once the benchmark reads the grouping from ``eigendecompose``'s result
    (ROADMAP item 1).
    """
    spectrum.representatives
    return spectrum
