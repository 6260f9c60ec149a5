"""Undirected weighted graphs, the symmetric graph shifts built from them, and
the shifts' eigendecompositions.

Vertices are numbered 1..n in every public interface (edge lists, CSV
output); arrays are indexed 0..n-1 internally.  A ``Graph`` has one
canonical form, which its constructor makes and checks whichever path built
it (``Graph.from_edges``, ``cycle_graph`` or a direct call): each edge
(i, j) has i < j, the edges are sorted, and the weights are floats parallel
to them.  So two graphs with the same weighted edges are equal, however
their edges were ordered or oriented.

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
everything else changes basis through its four methods: ``to_spectral``
(x U, the graph Fourier transform), ``from_spectral`` (c U^T), ``operator``
(U diag(r) U^T) and ``in_eigenbasis`` (U^T M U).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidShiftError, NumericalFailureError

SHIFT_KINDS = ("adjacency", "degree", "laplacian", "custom")


def require_integral(value, name: str) -> int:
    """``value`` as an int; 12.0 (as JSON may spell it) is accepted, 12.7 and booleans raise ValueError."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(value, name: str) -> float:
    """``value`` as a float if it is a real number within the float range;
    anything else (a string, a boolean, None, 10**400) raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within the float range, got {value!r}") from None


def _floats(values: Sequence, accept: Callable[[type], bool]) -> np.ndarray:
    """``values`` as a float array, NaN in place of each value whose type ``accept`` refuses."""
    if all(map(accept, set(map(type, values)))):
        return np.array(values, dtype=float)
    return np.array([float(v) if accept(type(v)) else np.nan for v in values])


def _entries(item) -> int:
    """``len(item)``, or 0 for an edge item without a length, such as an int."""
    return len(item) if hasattr(item, "__len__") else 0


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph without self-loops, in its one canonical form.

    The constructor makes the form and checks it, with array operations: each
    vertex id must be integral by ``require_integral``'s rule (the first one
    that is not, in input order, raises its ValueError), each pair is oriented
    i < j and the pairs are sorted.  The first edge in that order that lies
    outside 1..n, is a self-loop, repeats an earlier pair or has a weight that
    is not a finite number >= 0 raises ValueError naming it.

    Attributes:
        n: Number of vertices (>= 2), an int; 12.0 reads as 12.
        edges: Edge tuples (i, j) with 1 <= i < j <= n, sorted.
        weights: Nonnegative finite float weights, parallel to ``edges``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        n = require_integral(self.n, "graph order")
        if n < 2:
            raise ValueError(f"graph order must be an integer >= 2, got {self.n!r}")
        if len(self.edges) != len(self.weights) or set(map(_entries, self.edges)) - {2}:
            raise ValueError("edges must be (i, j) pairs, as many as the weights")
        flat = list(chain.from_iterable(self.edges))
        ids = _floats(flat, lambda t: t is not bool and issubclass(t, (numbers.Integral, float)))
        integral = np.isfinite(ids) & (ids == np.floor(ids))
        if not integral.all():
            require_integral(flat[int(np.argmax(~integral))], "vertex id")
        pairs = np.sort(ids.reshape(len(self.edges), 2), axis=1)
        order = np.lexsort(pairs.T[::-1])
        (lo, hi), weights = pairs[order].T, _floats(self.weights, lambda t: issubclass(t, numbers.Real))[order]
        repeated = (lo == np.roll(lo, 1)) & (hi == np.roll(hi, 1)) & (np.arange(lo.size) > 0)
        faults = np.stack(((lo < 1) | (hi > n), lo == hi, repeated, ~(np.isfinite(weights) & (weights >= 0))), axis=1)
        if faults.any():
            k, fault = np.unravel_index(np.argmax(faults), faults.shape)  # the first faulty edge, its first fault
            i, j, w = int(lo[k]), int(hi[k]), self.weights[order[k]]
            shown = float(w) if isinstance(w, numbers.Real) else w
            raise ValueError((f"edge ({i},{j}) out of range 1..{n}", f"self-loop ({i},{j}) not allowed",
                              f"duplicate edge ({i},{j})", f"edge ({i},{j}) has invalid weight {shown!r}")[fault])
        index = np.array((lo, hi), dtype=np.intp) - 1
        index.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(zip(*(index + 1).tolist())))
        object.__setattr__(self, "weights", tuple(weights.tolist()))
        object.__setattr__(self, "_index", index)

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[float]]) -> "Graph":
        """Build a graph from ``(i, j)`` or ``(i, j, weight)`` items (weight defaults to 1),
        in any order and orientation."""
        items = list(edges)
        for item in items:
            if _entries(item) not in (2, 3):
                raise ValueError(f"edge item {item!r} must have 2 or 3 entries")
        return Graph(n, [item[:2] for item in items], [item[2] if len(item) == 3 else 1.0 for item in items])

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix W (read-only)."""
        w = np.zeros((self.n, self.n))
        rows, cols = self._index
        w[rows, cols] = w[cols, rows] = self.weights
        w.flags.writeable = False
        return w


@dataclass(frozen=True, eq=False)
class GraphShift:
    """Symmetric shift of a graph: adjacency W, degree D or Laplacian D - W,
    derived from the graph, or a ``"custom"`` matrix.  A matrix of any kind
    that ``validate_shift`` refuses (a custom one of a complex dtype, before
    any cast; a derived one only when a degree sum overflows) raises
    InvalidShiftError.  The matrix is a read-only float copy."""

    graph: Graph
    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}; expected one of {SHIFT_KINDS}")
        if self.kind == "custom":
            if self.matrix is None:
                raise ValueError("custom shift requires an explicit matrix")
            # uncast, so validate_shift sees a complex dtype (a cast drops the imaginary part)
            mat = np.array(self.matrix)
        elif self.matrix is not None:
            raise ValueError(f"matrix argument only valid for kind='custom', got {self.kind!r}")
        else:
            w = self.graph.weight_matrix
            # a degree sum that overflows is infinite, and validate_shift refuses it
            with np.errstate(over="ignore"):
                mat = np.array(w) if self.kind == "adjacency" else np.diag(w.sum(axis=1))
            if self.kind == "laplacian":
                mat = mat - w
        if not validate_shift(self.graph, mat):
            raise InvalidShiftError(f"{self.kind} shift is not finite or real, asymmetric, "
                                    "or nonzero off the diagonal outside edges")
        mat = mat.astype(float, copy=False)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def n(self) -> int:
        return self.graph.n


def cycle_graph(n: int) -> Graph:
    """Unweighted cycle graph C_n (n >= 3; an integral float such as 3.0 reads as 3)."""
    n = require_integral(n, "graph order")
    if n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n!r}")
    return Graph(n, [(k, k % n + 1) for k in range(1, n + 1)], (1.0,) * n)


def validate_shift(graph: Graph, matrix: np.ndarray) -> bool:
    """Whether ``matrix`` is real (not of a complex dtype, read before any
    cast), finite, exactly symmetric and zero off the diagonal outside the
    graph's edges (a zero-weight edge is still an edge); a matrix that is not
    n x n raises ValueError."""
    if np.shape(matrix) != (graph.n, graph.n):
        raise ValueError(f"shift matrix shape {np.shape(matrix)} does not match graph order {graph.n}")
    if np.iscomplexobj(matrix):
        return False
    mat = np.asarray(matrix, dtype=float)
    support = np.eye(graph.n, dtype=bool)
    rows, cols = graph._index
    support[rows, cols] = support[cols, rows] = True
    # zero outside the support, the matrix is symmetric there, so symmetry is read at the edge pairs alone
    return bool(np.isfinite(mat).all() and (support | (mat == 0.0)).all() and np.array_equal(mat[rows, cols], mat[cols, rows]))


def build_shift(graph: Graph, kind: str, matrix: np.ndarray | None = None) -> GraphShift:
    """Construct a graph shift: adjacency W, degree D, Laplacian D - W, or a custom matrix."""
    return GraphShift(graph=graph, kind=kind, matrix=matrix)


# Largest within-group eigh spread in the tests and verify: 4.4e-16 (relative);
# the closed-form C_n's smallest distinct gap, about 40/n^2, exceeds 4e-12 to n = 10^6
DEFAULT_GROUPING_SCALE = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenpairs of a symmetric shift, S = U diag(eigenvalues) U^T, and
    their grouping into distinct eigenvalues.

    Eigenvalues are a nonempty, finite, ascending 1-D array (the constructor
    refuses any other with ValueError, since the grouping reads them in
    order); eigenvector signs are fixed so the first component above 1e-12
    of the column's largest is positive.  Both arrays are read-only.  The
    grouping is single linkage on the eigenvalues alone:
    a gap > ``tol`` = ``DEFAULT_GROUPING_SCALE * max(1, max|lambda|)`` starts
    a new group.  ``group_index[i]`` maps the i-th eigenvalue to its group;
    the ``representatives`` (group means) are strictly increasing and
    pairwise separated by more than ``tol``.  Each is computed on first
    access and read-only.
    """

    shift: GraphShift
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        e = self.eigenvalues
        if not (isinstance(e, np.ndarray) and e.ndim == 1 and e.size and np.isfinite(e).all() and (np.diff(e) >= 0).all()):
            raise ValueError("eigenvalues must be a nonempty 1-D array, finite and ascending")

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
    any other shift.  ``eigh`` failing to converge, or returning a non-finite
    eigenpair (entries near the float64 limit), raises NumericalFailureError."""
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
    if not (np.isfinite(eigenvalues).all() and np.isfinite(vectors).all()):
        raise NumericalFailureError("eigendecomposition is not finite")
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
