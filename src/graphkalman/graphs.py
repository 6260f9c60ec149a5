"""Undirected weighted graphs and symmetric graph shifts built from them.

Vertices are numbered 1..n in every public interface (edge lists, CSV
output); arrays are indexed 0..n-1 internally.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidShiftError

SHIFT_KINDS = ("adjacency", "degree", "laplacian", "custom")


def require_integral(value, name: str) -> int:
    """``value`` as an int; 12.0 (as JSON may spell it) is accepted, 12.7 and booleans raise ValueError."""
    integral = isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph without self-loops.

    Attributes:
        n: Number of vertices (>= 2).
        edges: Normalized edge tuples (i, j) with 1 <= i < j <= n.
        weights: Nonnegative edge weights, parallel to ``edges``.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"graph order must be an integer >= 2, got {self.n!r}")
        if len(self.edges) != len(self.weights):
            raise ValueError("edges and weights must have equal length")
        seen: set[tuple[int, int]] = set()
        for (i, j), w in zip(self.edges, self.weights):
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{self.n}")
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if i > j:
                raise ValueError(f"edge ({i},{j}) not normalized (need i < j)")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"edge ({i},{j}) has invalid weight {w!r}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[Sequence[float]]) -> "Graph":
        """Build a graph from ``(i, j)`` or ``(i, j, weight)`` items (weight defaults to 1)."""
        normalized: list[tuple[int, int]] = []
        weights: list[float] = []
        for item in edges:
            if len(item) == 2:
                i, j = item
                w = 1.0
            elif len(item) == 3:
                i, j, w = item
            else:
                raise ValueError(f"edge item {item!r} must have 2 or 3 entries")
            i, j = require_integral(i, "vertex id"), require_integral(j, "vertex id")
            normalized.append((i, j) if i < j else (j, i))
            weights.append(float(w))
        order = sorted(range(len(normalized)), key=lambda k: normalized[k])
        return Graph(
            n=require_integral(n, "graph order"),
            edges=tuple(normalized[k] for k in order),
            weights=tuple(weights[k] for k in order),
        )

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix W (read-only)."""
        w = np.zeros((self.n, self.n))
        rows, cols = _edge_index(self)
        w[rows, cols] = w[cols, rows] = self.weights
        w.flags.writeable = False
        return w


def _edge_index(graph: Graph) -> np.ndarray:
    """Zero-based (row, column) index arrays of the graph's edges, row < column."""
    return np.array(graph.edges, dtype=np.intp).reshape(-1, 2).T - 1


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
    """Unweighted cycle graph C_n (n >= 3)."""
    if not isinstance(n, (int, np.integer)) or n < 3:
        raise ValueError(f"cycle graph needs n >= 3, got {n!r}")
    edges = [(k, k + 1) for k in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


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
    rows, cols = _edge_index(graph)
    support[rows, cols] = support[cols, rows] = True
    return bool(np.isfinite(mat).all() and np.array_equal(mat, mat.T) and (support | (mat == 0.0)).all())


def build_shift(graph: Graph, kind: str, matrix: np.ndarray | None = None) -> GraphShift:
    """Construct a graph shift: adjacency W, degree D, Laplacian D - W, or a custom matrix."""
    return GraphShift(graph=graph, kind=kind, matrix=matrix)
