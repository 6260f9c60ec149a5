import numpy as np
import pytest

from graphkalman import Graph, GraphShift, InvalidShiftError, build_shift, cycle_graph, validate_shift
from graphkalman.seeding import generator
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

    def test_weight_matrix_is_symmetric_and_readonly(self):
        g = Graph.from_edges(4, [(1, 2, 0.3), (2, 4, 1.7)])
        w = g.weight_matrix
        np.testing.assert_array_equal(w, w.T)
        with pytest.raises(ValueError):
            w[0, 0] = 1.0


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


