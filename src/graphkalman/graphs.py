"""Undirected weighted graphs and symmetric graph shifts built from them.

Vertices are numbered 1..n in every public interface (edge lists, CSV
output); arrays are indexed 0..n-1 internally.  A ``Graph`` has one
canonical form, which its constructor makes and checks whichever path built
it (``Graph.from_edges``, ``cycle_graph`` or a direct call): each edge
(i, j) has i < j, the edges are sorted, and the weights are floats parallel
to them.  So two graphs with the same weighted edges are equal, however
their edges were ordered or oriented.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidShiftError

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
        if len(self.edges) != len(self.weights) or set(map(len, self.edges)) - {2}:
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
            if len(item) not in (2, 3):
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
    that ``validate_shift`` refuses (a derived one only when a degree sum
    overflows) raises InvalidShiftError.  The matrix is a read-only copy."""

    graph: Graph
    kind: str
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in SHIFT_KINDS:
            raise ValueError(f"unknown shift kind {self.kind!r}; expected one of {SHIFT_KINDS}")
        if self.kind == "custom":
            if self.matrix is None:
                raise ValueError("custom shift requires an explicit matrix")
            mat = np.array(self.matrix, dtype=float)
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
            raise InvalidShiftError(f"{self.kind} shift is not finite, asymmetric, or nonzero off the diagonal outside edges")
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
    """Whether ``matrix`` is finite, exactly symmetric and zero off the diagonal
    outside the graph's edges (a zero-weight edge is still an edge); a matrix
    that is not n x n raises ValueError."""
    mat = np.asarray(matrix, dtype=float)
    if mat.shape != (graph.n, graph.n):
        raise ValueError(
            f"shift matrix shape {mat.shape} does not match graph order {graph.n}"
        )
    support = np.eye(graph.n, dtype=bool)
    rows, cols = graph._index
    support[rows, cols] = support[cols, rows] = True
    # zero outside the support, the matrix is symmetric there, so symmetry is read at the edge pairs alone
    return bool(np.isfinite(mat).all() and (support | (mat == 0.0)).all() and np.array_equal(mat[rows, cols], mat[cols, rows]))


def build_shift(graph: Graph, kind: str, matrix: np.ndarray | None = None) -> GraphShift:
    """Construct a graph shift: adjacency W, degree D, Laplacian D - W, or a custom matrix."""
    return GraphShift(graph=graph, kind=kind, matrix=matrix)
