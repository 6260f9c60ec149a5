import re
from pathlib import Path

import numpy as np
from numpy.random import default_rng as generator
import pytest

import graphkalman
from graphkalman import (
    Polynomial,
    apply_filter,
    build_shift,
    cycle_graph,
    eigendecompose,
    eval_filter,
    is_polynomial_filter,
    lagrange_interpolate,
)
from graphkalman.verify import random_polynomial, random_shift


class TestEvalFilter:
    def test_constant_one_gives_identity(self, c4):
        _, _, spectrum = c4
        h = eval_filter(Polynomial((1.0,)), spectrum)
        np.testing.assert_allclose(h, np.eye(4), atol=1e-12)

    def test_identity_polynomial_returns_shift(self, c4):
        _, shift, spectrum = c4
        h = eval_filter(Polynomial((0.0, 1.0)), spectrum)
        np.testing.assert_allclose(h, shift.matrix, atol=1e-12)

    def test_quarter_laplacian_state_matrix(self, c30):
        _, shift, spectrum = c30
        a = eval_filter(Polynomial((0.0, 0.25)), spectrum)
        np.testing.assert_allclose(a, shift.matrix / 4.0, atol=1e-12)

    def test_result_symmetric(self):
        rng = generator(31)
        shift = random_shift(rng, 9)
        spectrum = eigendecompose(shift)
        h = eval_filter(random_polynomial(rng, 5), spectrum)
        np.testing.assert_array_equal(h, h.T)
        assert isinstance(h, np.ndarray) and not h.flags.writeable


class TestApplyFilter:
    def test_identity_polynomial_is_shift_product(self, c4):
        _, shift, _ = c4
        x = np.array([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_allclose(apply_filter(Polynomial((0.0, 1.0)), shift, x), shift.matrix @ x, atol=1e-14)

    def test_zero_polynomial_gives_zero_signal(self, c4):
        _, shift, _ = c4
        x = np.ones(4)
        np.testing.assert_array_equal(apply_filter(Polynomial(), shift, x), np.zeros(4))

    def test_against_dense_matrix_oracle(self, c4):
        _, shift, _ = c4
        poly = Polynomial((-1.0, 0.0, 1.0))  # t^2 - 1
        x = np.zeros(4)
        x[0] = 1.0
        dense = shift.matrix @ shift.matrix - np.eye(4)
        np.testing.assert_allclose(apply_filter(poly, shift, x), dense @ x, atol=1e-12)

    def test_dimension_mismatch_rejected(self, c4):
        _, shift, _ = c4
        with pytest.raises(ValueError):
            apply_filter(Polynomial((1.0,)), shift, np.ones(5))

    @pytest.mark.parametrize("form", ["monomial", "chebyshev"])
    @pytest.mark.parametrize(
        "x", [3.0, np.ones(5), np.ones((4, 2, 1)), np.ones((5, 2)), np.ones((1, 4))],
        ids=["0-d", "(5,)", "(4, 2, 1)", "(5, 2)", "(1, 4)"],
    )
    def test_signal_not_n_or_n_by_m_rejected(self, c4, form, x):
        # a 0-d signal raised IndexError, and a 3-d one ran
        _, shift, spectrum = c4
        poly = Polynomial((1.0, 2.0))
        if form == "chebyshev":
            poly = lagrange_interpolate(spectrum.representatives, poly(spectrum.representatives))
        with pytest.raises(ValueError, match=rf"signal shape {re.escape(str(np.shape(x)))} does not match graph order 4"):
            apply_filter(poly, shift, x)

    def test_batch_columns(self, c4):
        _, shift, _ = c4
        x = np.arange(8.0).reshape(4, 2)
        batched = apply_filter(Polynomial((1.0, 2.0)), shift, x)
        np.testing.assert_allclose(batched[:, 1], apply_filter(Polynomial((1.0, 2.0)), shift, x[:, 1]), atol=1e-14)

    def test_spatial_spectral_agreement(self):
        rng = generator(32)
        for _ in range(100):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            h = random_polynomial(rng, 6)
            x = rng.standard_normal(shift.n)
            spatial = apply_filter(h, shift, x)
            spectral = eval_filter(h, spectrum) @ x
            assert np.linalg.norm(spatial - spectral) <= 1e-9 * max(1e-30, np.linalg.norm(spectral))


class TestAlgebraHomomorphism:
    def test_sum_and_product(self):
        rng = generator(33)
        for _ in range(25):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            lam = spectrum.eigenvalues
            f, g = random_polynomial(rng, 6)(lam), random_polynomial(rng, 6)(lam)
            ef = spectrum.operator(f)
            eg = spectrum.operator(g)
            esum = spectrum.operator(f + g)
            eprod = spectrum.operator(f * g)
            scale = max(1.0, np.linalg.norm(ef), np.linalg.norm(eg), np.linalg.norm(eprod))
            assert np.linalg.norm(esum - (ef + eg)) <= 1e-8 * scale
            assert np.linalg.norm(eprod - ef @ eg) <= 1e-8 * scale

    def test_commutes_with_shift(self):
        rng = generator(34)
        for _ in range(10):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            h = eval_filter(random_polynomial(rng, 6), spectrum)
            bound = 1e-8 * max(1e-30, np.linalg.norm(h) * np.linalg.norm(shift.matrix))
            assert np.linalg.norm(h @ shift.matrix - shift.matrix @ h) <= bound

    def test_reduction_soundness(self):
        rng = generator(35)
        for _ in range(20):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            f = random_polynomial(rng, 12)
            full = eval_filter(f, spectrum)
            mu = spectrum.representatives
            reduced = eval_filter(lagrange_interpolate(mu, f(mu)), spectrum)
            assert np.linalg.norm(full - reduced) <= 1e-7 * max(1.0, np.linalg.norm(full))


class TestMembership:
    def test_polynomial_filters_are_members_with_reduced_witness(self, c4):
        _, _, spectrum = c4
        # oracle: the monomial Vandermonde solve through C_4's nodes {0, 2, 4}
        nodes = np.array([0.0, 2.0, 4.0])
        vandermonde = np.vander(nodes, 3, increasing=True)
        rng = generator(36)
        for _ in range(10):
            h = random_polynomial(rng, 6)
            result = is_polynomial_filter(eval_filter(h, spectrum), spectrum)
            assert result.is_member
            expected = np.linalg.solve(vandermonde, h(nodes))
            t = np.linspace(0.0, 4.0, 17)
            assert result.witness.degree == min(h.degree, 2)
            np.testing.assert_allclose(result.witness(t), np.polynomial.polynomial.polyval(t, expected), atol=1e-7)

    def test_pure_cyclic_shift_rejected(self):
        # the rotation commutes with the Laplacian but is not symmetric,
        # hence not a polynomial of it
        graph = cycle_graph(8)
        spectrum = eigendecompose(build_shift(graph, "laplacian"))
        rotation = np.roll(np.eye(8), 1, axis=0)
        assert not is_polynomial_filter(rotation, spectrum).is_member

    def test_unequal_weights_on_repeated_eigenspace_rejected(self, c4):
        _, _, spectrum = c4
        # eigenvalue 2 has multiplicity two: u_2 u_2^T - u_3 u_3^T commutes
        # with the shift but is not constant on the eigenspace
        u2 = spectrum.eigenvectors[:, 1]
        u3 = spectrum.eigenvectors[:, 2]
        m = np.outer(u2, u2) - np.outer(u3, u3)
        shift = spectrum.shift.matrix
        assert np.linalg.norm(m @ shift - shift @ m) <= 1e-10
        assert not is_polynomial_filter(m, spectrum).is_member

    def test_shape_mismatch_rejected(self, c4):
        _, _, spectrum = c4
        with pytest.raises(ValueError):
            is_polynomial_filter(np.eye(5), spectrum)

    def test_witness_reproduces_matrix(self, c30, c120):
        h = Polynomial((0.3, -0.2, 0.05))
        for _, _, spectrum in (c30, c120):
            matrix = eval_filter(h, spectrum)
            result = is_polynomial_filter(matrix, spectrum)
            rebuilt = eval_filter(result.witness, spectrum)
            assert np.linalg.norm(rebuilt - matrix) <= 1e-8 * max(1.0, np.linalg.norm(matrix))


def test_one_symmetry_rule_and_one_filter_reading():
    # filters._is_symmetric is the one symmetry test and filters._filter_reading
    # the one reading of a matrix as a filter; verify checks U^T U itself
    package = Path(graphkalman.__file__).parent
    sources = {p.name: p.read_text() for p in package.glob("*.py")}

    def counts(pattern):
        return {name: text.count(pattern) for name, text in sources.items() if pattern in text}

    assert counts("np.allclose(") == {"filters.py": 1}
    # filters._to_unit is the one map of [lo, hi] onto [-1, 1], for values and for the shift
    maps = {name: len(re.findall(r"2\.0 \* .*/ \(hi - lo\)", text)) for name, text in sources.items()}
    assert {name: count for name, count in maps.items() if count} == {"filters.py": 1}
    readings = counts(".in_eigenbasis(")
    assert readings.pop("filters.py") == 1
    assert set(readings) <= {"verify.py"}
