import ast
import re
from pathlib import Path

import numpy as np
from numpy.random import default_rng as generator
import pytest

import graphkalman
from graphkalman import (
    Graph,
    NumericalFailureError,
    Polynomial,
    SpectralDecomposition,
    build_shift,
    cycle_graph,
    eigendecompose,
    eval_filter,
)
from graphkalman.verify import annihilation_residual, random_shift

from conftest import cycle_laplacian_eigenvalues


class TestEigendecompose:
    def test_c4_eigenvalues_match_cosine_oracle(self, c4):
        _, _, decomposition = c4
        np.testing.assert_allclose(
            decomposition.eigenvalues, cycle_laplacian_eigenvalues(4), atol=1e-12
        )
        np.testing.assert_allclose(decomposition.eigenvalues, [0.0, 2.0, 2.0, 4.0], atol=1e-12)

    def test_identity_shift_spectrum(self):
        g = cycle_graph(5)
        shift = build_shift(g, "custom", matrix=np.eye(5))
        decomposition = eigendecompose(shift)
        np.testing.assert_allclose(decomposition.eigenvalues, 1.0, atol=0)

    def test_non_finite_spectrum_of_a_finite_shift_refused(self):
        # every entry is finite, so validate_shift accepts it; eigh returned
        # eigenvalues from -inf to +inf
        g = cycle_graph(8)
        shift = build_shift(g, "custom", matrix=np.where(g.weight_matrix > 0.0, 1e308, 0.0))
        with pytest.raises(NumericalFailureError, match="eigendecomposition is not finite"):
            eigendecompose(shift)

    def test_c30_range_and_absent_value(self, c30):
        _, _, decomposition = c30
        lam = decomposition.eigenvalues
        np.testing.assert_allclose(lam, cycle_laplacian_eigenvalues(30), atol=1e-12)
        assert lam.min() >= -1e-12 and lam.max() <= 4.0 + 1e-12
        assert np.min(np.abs(lam - 2.0)) > 0.1  # 2 - 2cos(theta) = 2 has no node on C_30

    def test_orthogonality_and_reconstruction(self):
        rng = generator(21)
        for _ in range(6):
            shift = random_shift(rng, int(rng.integers(4, 12)))
            dec = eigendecompose(shift)
            u, lam = dec.eigenvectors, dec.eigenvalues
            n = shift.n
            assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-10 * n
            recon = (u * lam) @ u.T
            assert np.linalg.norm(shift.matrix - recon) <= 1e-8 * max(1.0, np.linalg.norm(shift.matrix))

    def test_sign_convention_first_nonzero_positive(self):
        rng = generator(22)
        for _ in range(6):
            shift = random_shift(rng, 8)
            u = eigendecompose(shift).eigenvectors
            for col in u.T:
                leading = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
                assert leading > 0

    def test_deterministic_for_fixed_input(self, c30):
        _, shift, decomposition = c30
        again = eigendecompose(shift)
        np.testing.assert_array_equal(again.eigenvalues, decomposition.eigenvalues)
        np.testing.assert_array_equal(again.eigenvectors, decomposition.eigenvectors)


@pytest.fixture(params=["c30", "eigh"])
def basis(request, c30):
    """C_30's closed-form decomposition, and one that LAPACK's eigh makes."""
    if request.param == "c30":
        return c30[2]
    return eigendecompose(random_shift(generator(23), 9))


class TestBasisMethods:
    def test_round_trip(self, basis):
        x = generator(24).standard_normal((3, 5, basis.n))
        np.testing.assert_allclose(basis.from_spectral(basis.to_spectral(x)), x, rtol=0, atol=1e-14)

    def test_stack_rounds_each_block_as_alone(self, basis):
        x = generator(25).standard_normal((4, 6, basis.n))
        for change in (basis.to_spectral, basis.from_spectral):
            stacked = change(x)
            for t in range(x.shape[0]):
                np.testing.assert_array_equal(stacked[t], change(x[t]))

    def test_operator_is_symmetric_read_only_and_eval_filter(self, basis):
        poly = Polynomial((0.5, -0.25, 0.125))
        matrix = basis.operator(poly(basis.eigenvalues))
        np.testing.assert_array_equal(matrix, matrix.T)
        assert not matrix.flags.writeable
        np.testing.assert_array_equal(matrix, eval_filter(poly, basis))

    def test_operator_is_diagonal_in_the_eigenbasis(self, basis):
        responses = generator(26).uniform(-2.0, 2.0, basis.n)
        in_basis = basis.in_eigenbasis(basis.operator(responses))
        np.testing.assert_allclose(in_basis, np.diag(responses), rtol=0, atol=1e-13)

    def test_in_eigenbasis_takes_square_matrices_only(self, basis):
        # a (n,) signal would pass the two matmuls as U^T x U
        n = basis.n
        for shape in ((n,), (n, n - 1), (n + 1, n + 1)):
            with pytest.raises(ValueError, match="does not match graph order"):
                basis.in_eigenbasis(np.ones(shape))


def test_only_spectral_reads_the_eigenvectors():
    # every other definition changes basis through SpectralDecomposition's
    # methods; eigendecompose only hands U to the constructor
    package = Path(graphkalman.__file__).parent
    places = set()
    for path in package.glob("*.py"):
        for definition in ast.parse(path.read_text()).body:
            for node in ast.walk(definition):
                names = (getattr(node, field, None) for field in ("id", "attr", "arg", "value"))
                if "eigenvectors" in names:
                    places.add((path.stem, getattr(definition, "name", type(definition).__name__)))
    assert places == {("graphs", "SpectralDecomposition"), ("graphs", "eigendecompose")}


def test_one_spectral_handle():
    # the eigendecomposition carries its grouping, so there is no second
    # spectral type to reach through; the grouping shim is called only where
    # the benchmark times it
    assert not hasattr(graphkalman, "DistinctSpectrum") and not hasattr(graphkalman.graphs, "DistinctSpectrum")
    modules = sorted(Path(graphkalman.__file__).parent.glob("*.py"))
    assert [p.name for p in modules if re.search(r"\.decomposition\b", p.read_text())] == []
    callers = [p.name for p in modules if re.search(r"(?<!def )\bdistinct_eigenvalues\(", p.read_text())]
    assert callers == ["experiment.py"]


@pytest.mark.parametrize(
    "eigenvalues",
    [np.array([3.0, 0.0, 1.0]), np.array([0.0, np.nan, 1.0]), np.array([[0.0, 1.0]]), np.array([]), [0.0, 1.0]],
    ids=["unsorted", "nan", "2-d", "empty", "list"],
)
def test_eigenvalues_must_be_a_finite_ascending_array(eigenvalues):
    # [3, 0, 1] was grouped as {3, 0} and {1}, with representatives (1.5, 1.0)
    with pytest.raises(ValueError, match="eigenvalues must be a nonempty 1-D array, finite and ascending"):
        SpectralDecomposition(shift=None, eigenvalues=eigenvalues, eigenvectors=None)


class TestDistinctEigenvalues:
    def test_c4_groups(self, c4):
        _, _, spectrum = c4
        np.testing.assert_allclose(spectrum.representatives, [0.0, 2.0, 4.0], atol=1e-12)
        np.testing.assert_array_equal(spectrum.multiplicities, [1, 2, 1])

    def test_all_equal_single_group(self):
        shift = build_shift(cycle_graph(4), "custom", matrix=np.eye(4))
        spectrum = eigendecompose(shift)
        assert spectrum.count == 1
        np.testing.assert_array_equal(spectrum.group_index, 0)

    def test_c30_has_sixteen_distinct_values(self, c30):
        _, _, spectrum = c30
        oracle = np.unique(np.round(cycle_laplacian_eigenvalues(30), 9))
        assert spectrum.count == 16 == oracle.size

    def test_grouping_idempotent(self, c30):
        _, _, spectrum = c30
        gaps = np.diff(spectrum.representatives)
        assert np.all(gaps > spectrum.tol)

    @pytest.mark.parametrize("n", [40000, 100000])
    def test_closed_form_cycle_values_stay_distinct(self, n):
        # the closed-form C_n eigenvalues 4 sin^2(pi k / n), each pair one
        # float; the nearest distinct ones are about 40 / n^2 apart.  Grouping
        # reads only the eigenvalues, so no n x n basis is built
        values = 4.0 * np.sin((np.pi / n) * np.arange(n // 2 + 1)) ** 2
        eigenvalues = values[(np.arange(n) + 1) // 2]
        spectrum = SpectralDecomposition(shift=None, eigenvalues=eigenvalues, eigenvectors=None)
        assert spectrum.count == n // 2 + 1
        np.testing.assert_array_equal(spectrum.representatives, values)

    def test_group_means_and_expand(self, c4):
        _, _, spectrum = c4
        values = np.array([1.0, 2.0, 4.0, 8.0])  # eigenindex order (0, 2, 2, 4)
        means = spectrum.group_means(values)
        np.testing.assert_allclose(means, [1.0, 3.0, 8.0])
        np.testing.assert_allclose(spectrum.expand(means), [1.0, 3.0, 3.0, 8.0])


class TestMinimalPolynomial:
    # the minimal polynomial prod_mu (t - mu) over the distinct eigenvalues,
    # applied to S factor by factor, annihilates S to rounding

    def test_single_root(self):
        shift = build_shift(cycle_graph(4), "custom", matrix=2.5 * np.eye(4))
        spectrum = eigendecompose(shift)
        np.testing.assert_array_equal(spectrum.representatives, [2.5])
        assert annihilation_residual(spectrum) == 0.0

    def test_annihilates_shift(self):
        rng = generator(23)
        for _ in range(6):
            shift = random_shift(rng, int(rng.integers(4, 12)))
            spectrum = eigendecompose(shift)
            assert annihilation_residual(spectrum) <= 1e-12

    def test_annihilates_cycle_laplacian(self, c30, c120):
        for _, _, spectrum in (c30, c120):
            assert annihilation_residual(spectrum) <= 1e-12


def _leading_components(u):
    """Each column's first component above 1e-12 of its largest magnitude."""
    mask = np.abs(u) > 1e-12 * np.max(np.abs(u), axis=0)
    return u[np.argmax(mask, axis=0), np.arange(u.shape[1])]


class TestCycleLaplacianClosedForm:
    @pytest.mark.parametrize("n", [3, 4, 5, 12, 30, 31, 120])
    def test_eigenpairs(self, n):
        shift = build_shift(cycle_graph(n), "laplacian")
        decomposition = eigendecompose(shift)
        u, lam = decomposition.eigenvectors, decomposition.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-13
        assert np.linalg.norm(shift.matrix @ u - u * lam) <= 1e-13
        assert np.all(_leading_components(u) > 0)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(shift.matrix), rtol=0, atol=1e-13)
        # each pair shares one float, so grouping finds the multiplicities exactly
        pairs = [2] * ((n - 1) // 2)
        expected = [1, *pairs, 1] if n % 2 == 0 else [1, *pairs]
        np.testing.assert_array_equal(decomposition.multiplicities, expected)
        assert not (u.flags.writeable or lam.flags.writeable)

    @pytest.mark.parametrize("entry", ["run_heatmap", "run_trace", "trace_trajectory"])
    def test_experiment_runs_without_eigh(self, monkeypatch, entry):
        from graphkalman import experiment

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called on the cycle Laplacian")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        config = experiment.ExperimentConfig(
            n=12, m=20, trials=2, sigma_grid=(0.3, 0.6), sigma_tilde_grid=(0.4, 0.8)
        )
        result = getattr(experiment, entry)(config)
        if entry == "run_heatmap":
            assert np.all(result.n_trials == 2) and np.all(np.isfinite(result.kalman))
        elif entry == "run_trace":
            assert np.all(np.isfinite(result.energy_kalman))
        else:
            assert result.states.shape == (1, 21, 12)

    @pytest.mark.parametrize(
        "shift",
        [
            build_shift(cycle_graph(12), "adjacency"),
            build_shift(Graph.from_edges(12, [*cycle_graph(12).edges[:-1], (11, 12, 2.0)]), "laplacian"),
            build_shift(Graph.from_edges(12, [(k, k + 1) for k in range(1, 12)]), "laplacian"),
        ],
        ids=["cycle-adjacency", "weighted-cycle", "path-laplacian"],
    )
    def test_other_shifts_go_to_eigh(self, monkeypatch, shift):
        calls = []
        original = np.linalg.eigh

        def counting(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        decomposition = eigendecompose(shift)
        assert len(calls) == 1
        u, lam = decomposition.eigenvectors, decomposition.eigenvalues
        assert np.linalg.norm(shift.matrix @ u - u * lam) <= 1e-12
