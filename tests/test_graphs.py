import ast
import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from graphkalman import Graph, GraphShift, InvalidShiftError, build_shift, cycle_graph, graphs, validate_shift
from graphkalman.graphs import require_integral
from graphkalman.seeding import generator
from graphkalman.spectral import _cycle_laplacian_eigenpairs, eigendecompose
from graphkalman.verify import random_graph


def entry_walk(graph, matrix):
    """The entry-by-entry check ``validate_shift`` made before it worked on
    arrays: symmetric, and every nonzero off-diagonal entry on an edge."""
    mat = np.asarray(matrix, dtype=float)
    if not np.array_equal(mat, mat.T):
        return False
    edges = set(graph.edges)
    rows, cols = np.nonzero(mat)
    for r, c in zip(rows, cols):
        if r != c and (min(r, c) + 1, max(r, c) + 1) not in edges:
            return False
    return True


def edge_loop(n, items):
    """``Graph.from_edges`` as it was before the constructor made the canonical
    form: each item oriented and its ids read by ``require_integral`` in input
    order, a Python key sort, then the per-edge loop with its ``seen`` set.
    Returns the accepted (edges, weights) or the refusal's message."""
    try:
        normalized, weights = [], []
        for item in items:
            i, j, w = item if len(item) == 3 else (*item, 1.0)
            i, j = require_integral(i, "vertex id"), require_integral(j, "vertex id")
            normalized.append((i, j) if i < j else (j, i))
            weights.append(float(w))
        order = sorted(range(len(normalized)), key=lambda k: normalized[k])
        edges, weights = tuple(normalized[k] for k in order), tuple(weights[k] for k in order)
        seen = set()
        for (i, j), w in zip(edges, weights):
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i},{j}) out of range 1..{n}")
            if i == j:
                raise ValueError(f"self-loop ({i},{j}) not allowed")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i},{j})")
            seen.add((i, j))
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"edge ({i},{j}) has invalid weight {w!r}")
    except ValueError as error:
        return str(error)
    return edges, weights


# each fault, and the messages it gets when it is the only one; a duplicate
# with a NaN weight is named by whichever copy comes first in input order
EDGE_FAULTS = {
    "valid": None,
    "out-of-range": "out of range",
    "non-integral": "vertex id must be an integer, got ",
    "boolean": "vertex id must be an integer, got ",
    "self-loop": "self-loop",
    "duplicate": "duplicate edge",
    "reversed-duplicate": "duplicate edge",
    "nan-duplicate": "duplicate edge|has invalid weight nan",
    "negative": "has invalid weight -",
    "nan": "has invalid weight nan",
    "infinite": "has invalid weight inf",
}


def spelled_edges(rng, n):
    """A random graph's edges as ``from_edges`` items, in random order and
    orientation, with ids spelled as int, integral float or numpy int, and
    weights as float, int or left out."""
    graph = random_graph(rng, n)
    items = []
    for (i, j), w in zip(graph.edges, graph.weights):
        i, j = (i, j) if rng.random() < 0.5 else (j, i)
        spelling = int(rng.integers(0, 4))
        if spelling == 1:
            i, j = float(i), float(j)
        elif spelling == 2:
            i, j = np.int64(i), np.int64(j)
        w = w if rng.random() < 0.8 else int(rng.integers(0, 3))
        items.append((i, j) if spelling == 3 else (i, j, w))
    return [items[k] for k in rng.permutation(len(items))]


def add_fault(rng, items, n, fault):
    k = int(rng.integers(0, len(items)))
    i, j, *w = items[k]
    if fault == "out-of-range":
        items[k] = (rng.choice([0, -2, n + 1, n + 3]).item(), j, *w)
    elif fault == "non-integral":
        items[k] = (i, rng.choice([j + 0.5, np.nan, np.inf]).item(), *w)
    elif fault == "boolean":
        items[k] = (bool(rng.integers(0, 2)), j, *w)
    elif fault == "self-loop":
        items[k] = (i, i, *w)
    elif fault.endswith("duplicate"):
        copy = (j, i) if fault == "reversed-duplicate" else (i, j)
        weight = np.nan if fault == "nan-duplicate" else float(rng.uniform(0.2, 1.5))
        items.insert(int(rng.integers(0, len(items) + 1)), (*copy, weight))
    elif fault != "valid":
        items[k] = (i, j, {"negative": -float(rng.uniform(0.1, 2.0)), "nan": np.nan, "infinite": np.inf}[fault])


class TestCycleGraph:
    def test_c4_edges_and_weights(self):
        g = cycle_graph(4)
        assert g.n == 4
        assert set(g.edges) == {(1, 2), (2, 3), (3, 4), (1, 4)}
        assert all(w == 1.0 for w in g.weights)

    def test_c30_counts(self):
        g = cycle_graph(30)
        assert g.n == 30
        assert len(g.edges) == 30

    def test_degenerate_order_rejected(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_integral_float_order(self):
        # 3.0 was refused as "cycle graph needs n >= 3, got 3.0", while Graph.from_edges took it
        graph = cycle_graph(3.0)
        assert graph == cycle_graph(3) and type(graph.n) is int
        with pytest.raises(ValueError, match="graph order must be an integer, got 3.5"):
            cycle_graph(3.5)

    @pytest.mark.parametrize("n", [4, 5, 30])
    def test_shuffled_cycle_is_the_cycle_graph(self, n):
        # the constructor took a cycle's oriented pairs in any order, and
        # eigendecompose then sent it to eigh (eigenvalues off by up to 7.5e-16 on C_4)
        rng = generator(n)
        pairs = [(k, k % n + 1) if rng.random() < 0.5 else (k % n + 1, k) for k in range(1, n + 1)]
        pairs = tuple(pairs[k] for k in rng.permutation(n))
        assert pairs != cycle_graph(n).edges
        graph = Graph(n, pairs, (1,) * n)
        assert graph == cycle_graph(n)
        spectrum = eigendecompose(build_shift(graph, "laplacian"))
        eigenvalues, vectors = _cycle_laplacian_eigenpairs(n)
        np.testing.assert_array_equal(spectrum.eigenvalues, eigenvalues)
        np.testing.assert_array_equal(spectrum.eigenvectors, vectors)

    def test_every_vertex_has_degree_two(self):
        g = cycle_graph(7)
        degrees = g.weight_matrix.sum(axis=1)
        np.testing.assert_array_equal(degrees, 2.0)


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(1, 2), (2, 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Graph.from_edges(3, [(1, 2, -0.5)])

    def test_order_below_two_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(1, [])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(3, [(1, 4)])

    def test_non_integral_order_rejected(self):
        # 3.7 used to become a graph of order 3
        with pytest.raises(ValueError, match="graph order must be an integer, got 3.7"):
            Graph.from_edges(3.7, [(1, 2)])
        assert Graph.from_edges(3.0, [(1, 2)]).n == 3

    def test_non_integral_vertex_id_rejected(self):
        # (1.5, 2.9) used to become the edge (1, 2)
        with pytest.raises(ValueError, match="vertex id must be an integer, got 1.5"):
            Graph.from_edges(3, [(1.5, 2.9)])
        assert Graph.from_edges(4, [(1.0, 2.0, 0.5)]).edges == ((1, 2),)
        # the constructor took these, and its weight matrix truncated 1.5 to vertex 1
        for pair, shown in [((1.5, 2), "1.5"), ((True, 2), "True")]:
            with pytest.raises(ValueError, match=f"vertex id must be an integer, got {shown}"):
                Graph(3, (pair,), (1.0,))

    @pytest.mark.parametrize("edges", [((1, 2, 3), (3,)), ((1, 2, 3), (2, 3)), ((1, 2),)])
    def test_edges_must_be_pairs_one_per_weight(self, edges):
        # the flat id array must not pair a triple's last id with the next edge's
        with pytest.raises(ValueError, match=re.escape("edges must be (i, j) pairs, as many as the weights")):
            Graph(3, edges, (1.0,) * 2)

    @pytest.mark.parametrize("weight", [None, "x"])
    def test_non_numeric_weight_rejected(self, weight):
        # numpy's TypeError escaped the constructor
        with pytest.raises(ValueError, match=re.escape(f"edge (1,2) has invalid weight {weight!r}")):
            Graph(3, ((1, 2),), (weight,))

    def test_array_checks_match_the_edge_loop(self):
        rng = generator(28)
        messages = {}
        for case in range(264):
            n = int(rng.integers(3, 10))
            items = spelled_edges(rng, n)
            fault = list(EDGE_FAULTS)[case % len(EDGE_FAULTS)]
            add_fault(rng, items, n, fault)
            single = fault == "valid" or rng.random() < 0.7
            if not single:
                add_fault(rng, items, n, list(EDGE_FAULTS)[int(rng.integers(1, len(EDGE_FAULTS)))])
            expected = edge_loop(n, items)
            try:
                graph = Graph.from_edges(n, items)
            except ValueError as error:
                assert str(error) == expected
            else:
                assert repr((graph.edges, graph.weights)) == repr(expected)
            if single:
                messages.setdefault(fault, set()).add(expected if isinstance(expected, str) else None)
        # every fault is refused, and alone it is named by its own message
        assert messages["valid"] == {None}
        for fault, pattern in EDGE_FAULTS.items():
            if pattern is not None:
                assert messages[fault] and all(re.search(pattern, message) for message in messages[fault]), fault
        # the order of two equal pairs is kept, so either copy of a duplicate can be named
        assert len({message.split()[0] for message in messages["nan-duplicate"]}) == 2

    def test_weight_matrix_is_symmetric_and_readonly(self):
        g = Graph.from_edges(4, [(1, 2, 0.3), (2, 4, 1.7)])
        w = g.weight_matrix
        np.testing.assert_array_equal(w, w.T)
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


def test_graph_is_checked_without_an_edge_loop():
    # the constructor makes and checks the canonical form with array operations,
    # and the graph keeps the zero-based index arrays the shift code reads
    tree = ast.parse(textwrap.dedent(inspect.getsource(Graph.__post_init__)))
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert "_edge_index" not in Path(graphs.__file__).read_text()


class TestBuildShift:
    def test_c4_laplacian_is_2i_minus_w(self):
        g = cycle_graph(4)
        lap = build_shift(g, "laplacian").matrix
        expected = 2.0 * np.eye(4) - g.weight_matrix
        np.testing.assert_array_equal(lap, expected)

    def test_c30_laplacian_is_2i_minus_w(self):
        g = cycle_graph(30)
        lap = build_shift(g, "laplacian").matrix
        np.testing.assert_array_equal(lap, 2.0 * np.eye(30) - g.weight_matrix)

    def test_adjacency_kind(self):
        g = cycle_graph(5)
        np.testing.assert_array_equal(build_shift(g, "adjacency").matrix, g.weight_matrix)

    def test_degree_kind_is_diagonal(self):
        g = Graph.from_edges(3, [(1, 2, 2.0), (2, 3, 0.5)])
        d = build_shift(g, "degree").matrix
        np.testing.assert_array_equal(d, np.diag([2.0, 2.5, 0.5]))

    def test_custom_off_edge_entry_rejected(self):
        g = cycle_graph(4)
        bad = np.zeros((4, 4))
        bad[0, 2] = bad[2, 0] = 1.0  # vertices 1 and 3 are not adjacent in C_4
        with pytest.raises(InvalidShiftError):
            build_shift(g, "custom", matrix=bad)

    def test_custom_asymmetric_rejected(self):
        g = cycle_graph(4)
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(InvalidShiftError):
            build_shift(g, "custom", matrix=bad)

    @pytest.mark.parametrize(
        "entries", [[(2, 2)], [(0, 1), (1, 0)], [(3, 3), (0, 0)]], ids=["diagonal", "edge-pair", "two-diagonal"]
    )
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_custom_non_finite_entry_rejected(self, entries, value):
        # an infinite diagonal gave an all-NaN spectrum grouped as one eigenvalue
        mat = build_shift(cycle_graph(8), "laplacian").matrix.copy()
        for entry in entries:
            mat[entry] = value
        with pytest.raises(InvalidShiftError, match="custom shift is not finite"):
            build_shift(cycle_graph(8), "custom", matrix=mat)

    def test_overflowing_degree_rejected(self):
        # every weight is finite, but the degree of vertex 2 overflows to inf
        g = Graph.from_edges(3, [(1, 2, 1.5e308), (2, 3, 1.5e308)])
        assert np.all(np.isfinite(build_shift(g, "adjacency").matrix))
        for kind in ("degree", "laplacian"):
            with pytest.raises(InvalidShiftError, match=f"{kind} shift is not finite"):
                build_shift(g, kind)

    def test_custom_accepts_diagonal_perturbation(self):
        g = cycle_graph(4)
        mat = build_shift(g, "laplacian").matrix + np.diag([1.0, 0.0, -2.0, 0.5])
        shift = build_shift(g, "custom", matrix=mat)
        assert shift.kind == "custom"

    def test_matrix_follows_from_graph_and_kind(self):
        # a Laplacian shift holding 2 L would decompose as the Laplacian L
        g = cycle_graph(6)
        with pytest.raises(ValueError, match="only valid for kind='custom'"):
            GraphShift(graph=g, matrix=2.0 * build_shift(g, "laplacian").matrix, kind="laplacian")

    @pytest.mark.parametrize("make", [build_shift, GraphShift], ids=["build_shift", "constructor"])
    def test_every_path_checks_the_matrix(self, make):
        g = cycle_graph(4)
        asymmetric = np.zeros((4, 4))
        asymmetric[0, 1] = 1.0
        with pytest.raises(ValueError, match="requires an explicit matrix"):
            make(g, "custom")
        with pytest.raises(ValueError, match="only valid for kind='custom'"):
            make(g, "adjacency", np.eye(4))
        with pytest.raises(InvalidShiftError):
            make(g, "custom", asymmetric)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_shift(cycle_graph(4), "normalized")

    def test_constructed_shifts_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(3, 9))
            edges = [(i, j, float(rng.uniform(0.1, 2.0))) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.5]
            if not edges:
                continue
            g = Graph.from_edges(n, edges)
            for kind in ("adjacency", "degree", "laplacian"):
                s = build_shift(g, kind).matrix
                assert np.max(np.abs(s - s.T)) == 0.0

    def test_laplacian_rows_sum_to_zero_exactly_for_unit_weights(self):
        for n in (3, 4, 30):
            lap = build_shift(cycle_graph(n), "laplacian").matrix
            np.testing.assert_array_equal(lap.sum(axis=1), 0.0)


class TestValidateShift:
    def test_identity_is_valid(self):
        assert validate_shift(cycle_graph(4), np.eye(4)) is True

    def test_adjacency_pattern_is_valid(self):
        g = cycle_graph(4)
        assert validate_shift(g, g.weight_matrix) is True

    def test_non_edge_entry_invalid(self):
        g = cycle_graph(4)
        m = np.zeros((4, 4))
        m[0, 2] = m[2, 0] = 0.3
        assert validate_shift(g, m) is False

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            validate_shift(cycle_graph(4), np.eye(5))

    def test_array_check_matches_the_entry_walk(self):
        rng = generator(27)
        verdicts = {}
        for case in range(240):
            n = int(rng.integers(5, 13))
            graph = random_graph(rng, n)
            rows, cols = (np.array(ends) - 1 for ends in zip(*graph.edges))
            mat = np.diag(rng.uniform(-2.0, 2.0, n))
            mat[rows, cols] = mat[cols, rows] = rng.uniform(-1.5, 1.5, rows.size)
            kind = ("support", "off-edge", "asymmetric", "zero-weight-edge", "diagonal", "infinite")[case % 6]
            if kind == "off-edge":
                r, c = np.argwhere(np.triu(mat == 0.0, 1))[int(rng.integers(0, n * (n - 1) // 2 - rows.size))]
                mat[r, c] = mat[c, r] = rng.uniform(0.5, 1.0)
            elif kind == "asymmetric":
                k = int(rng.integers(0, rows.size))
                mat[rows[k], cols[k]] += 0.25
            elif kind == "zero-weight-edge":
                k = int(rng.integers(0, rows.size))
                weights = list(graph.weights)
                weights[k] = 0.0
                graph = Graph(n, graph.edges, tuple(weights))
                assert graph.weight_matrix[rows[k], cols[k]] == 0.0 and mat[rows[k], cols[k]] != 0.0
            elif kind == "diagonal":
                mat[np.diag_indices(n)] += rng.uniform(-1.0, 1.0, n)
            elif kind == "infinite":
                k = int(rng.integers(0, rows.size + n))
                index = (rows[k], cols[k]) if k < rows.size else (k - rows.size,) * 2
                mat[index] = mat[index[::-1]] = np.inf
            expected = entry_walk(graph, mat)
            assert validate_shift(graph, mat) is (expected and kind != "infinite")
            verdicts.setdefault(kind, set()).add(expected)
        # the walk accepts exactly the cases built on the graph's support
        assert verdicts == {
            "support": {True}, "off-edge": {False}, "asymmetric": {False},
            "zero-weight-edge": {True}, "diagonal": {True}, "infinite": {True},
        }

    def test_roundtrip_with_build_shift(self):
        g = cycle_graph(6)
        for kind in ("adjacency", "degree", "laplacian"):
            assert validate_shift(g, build_shift(g, kind).matrix)


