import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphkalman
from graphkalman import (
    ChebyshevSeries,
    NumericalFailureError,
    Polynomial,
    build_shift,
    cycle_graph,
    eigendecompose,
    lagrange_interpolate,
)


class TestCanonicalForm:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0, 2.0)

    def test_zero_polynomial(self):
        p = Polynomial((0.0, 0.0, 0.0))
        assert p.coeffs == (0.0,)
        assert p == Polynomial()
        assert p.degree == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1.0, float("nan")))

    def test_constructors(self):
        assert Polynomial().coeffs == (0.0,)
        assert Polynomial((3.5,)).coeffs == (3.5,)
        assert Polynomial([0, 1]).coeffs == (0.0, 1.0)


# values both polynomial forms refuse, as coefficients and as a series' domain,
# by one rule: each a real number by require_real's rule, finite, at least one;
# a series read "1" and True as 1.0
REFUSED_COEFFICIENTS = {
    "string-value": (("1",), "coefficient must be a number, got '1'"),
    "boolean-value": ((True,), "coefficient must be a number, got True"),
    "none-value": ((None,), "coefficient must be a number, got None"),
    "beyond-float": ((10**400,), "coefficient must be within the float range"),
    "nan": ((1.0, float("nan")), r"coefficients must be finite and nonempty, got \(1.0, nan\)"),
    "inf": ((float("inf"),), r"coefficients must be finite and nonempty, got \(inf,\)"),
    "empty": ((), r"coefficients must be finite and nonempty, got \(\)"),
    "string": ("12", "coefficients must be a sequence of numbers, got '12'"),
    "scalar": (3.0, "coefficients must be a sequence of numbers, got 3.0"),
}
REFUSED_DOMAINS = {
    "string-end": (("0", 1.0), "domain end must be a number, got '0'"),
    "boolean-end": ((0.0, True), "domain end must be a number, got True"),
    "nan-end": ((0.0, float("nan")), r"domain ends must be finite and nonempty, got \(0.0, nan\)"),
    "string": ("01", "domain ends must be a sequence of numbers, got '01'"),
    "scalar": (1.0, "domain ends must be a sequence of numbers, got 1.0"),
}


class TestOneCoefficientRule:
    @pytest.mark.parametrize("coeffs, message", REFUSED_COEFFICIENTS.values(), ids=REFUSED_COEFFICIENTS.keys())
    def test_both_forms_refuse_alike(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            Polynomial(coeffs)
        with pytest.raises(ValueError, match=message):
            ChebyshevSeries(coeffs, (0.0, 1.0))

    @pytest.mark.parametrize("domain, message", REFUSED_DOMAINS.values(), ids=REFUSED_DOMAINS.keys())
    def test_series_domain_by_the_same_rule(self, domain, message):
        with pytest.raises(ValueError, match=message):
            ChebyshevSeries((1.0,), domain)

    def test_numpy_values_are_floats(self):
        series = ChebyshevSeries(np.array([1.0, 2.0]), (np.float64(0.0), 1))
        assert series.coeffs == (1.0, 2.0) and series.domain == (0.0, 1.0)
        assert all(type(v) is float for v in (*series.coeffs, *series.domain))
        assert Polynomial(np.array([1, 0])).coeffs == (1.0,)


class TestEvaluation:
    def test_evaluation_scalar_and_array(self):
        f = Polynomial((1.0, 0.0, 1.0))  # 1 + t^2
        assert f(2.0) == 5.0
        np.testing.assert_array_equal(f(np.array([0.0, 1.0, 3.0])), [1.0, 2.0, 10.0])


def test_polynomial_is_an_input_type():
    # filters add and compose by their responses at the eigenvalues, so
    # there is no second algebra on monomial coefficients
    arithmetic = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
    assert [name for name in arithmetic if hasattr(Polynomial, name)] == []
    package = Path(graphkalman.__file__).parent
    callers = sorted(p.name for p in package.glob("*.py") if re.search(r"\bpoly(add|mul|pow)\b", p.read_text()))
    assert callers == []


class TestReduction:
    # the remainder of p modulo the minimal polynomial t(t - 2)(t - 4) of the
    # C_4 Laplacian is the interpolant of p's values at its roots {0, 2, 4}

    def test_cubic_mod_minimal(self):
        # t^3 = (t^3 - 6t^2 + 8t) * 1 + (6t^2 - 8t)
        nodes = np.array([0.0, 2.0, 4.0])
        remainder = lagrange_interpolate(nodes, nodes**3)
        t = np.linspace(-1.0, 5.0, 13)
        assert remainder.degree == 2
        np.testing.assert_allclose(remainder(t), 6.0 * t**2 - 8.0 * t, atol=1e-12)

    def test_self_reduction_is_zero(self):
        nodes = np.array([0.0, 2.0, 4.0])
        modulus = Polynomial((0.0, 8.0, -6.0, 1.0))
        remainder = lagrange_interpolate(nodes, modulus(nodes))
        assert remainder.coeffs == (0.0,)


class TestLagrangeInterpolation:
    def test_two_point_line(self):
        g = lagrange_interpolate([0.0, 1.0], [1.0, 2.0])
        t = np.linspace(0.0, 1.0, 7)
        assert g.degree == 1
        np.testing.assert_allclose(g(t), 1.0 + t, atol=1e-14)

    def test_single_node_constant(self):
        g = lagrange_interpolate([3.0], [7.5])
        assert isinstance(g, ChebyshevSeries) and g.degree == 0
        np.testing.assert_array_equal(g(np.array([-1.0, 3.0, 10.0])), [7.5, 7.5, 7.5])

    def test_identity_values(self):
        g = lagrange_interpolate([0.0, 2.0, 4.0], [0.0, 2.0, 4.0])
        t = np.linspace(0.0, 4.0, 9)
        assert g.degree == 1
        np.testing.assert_allclose(g(t), t, atol=1e-14)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            lagrange_interpolate([1.0, 1.0], [0.0, 1.0])

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            lagrange_interpolate([0.0, 1.0], [0.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            lagrange_interpolate([0.0, np.inf], [0.0, 1.0])

    def test_residual_bound_on_random_nodes(self):
        # documented contract: max_j |g(x_j) - y_j| <= 1e-7 * max|y|, or a
        # named failure; uniform random nodes are no graph's spectrum, and at
        # d = 25-30 some of these systems are too ill conditioned to keep it
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = int(rng.integers(2, 31))
            nodes = np.sort(rng.uniform(-4.0, 4.0, d))
            if np.min(np.diff(nodes)) < 1e-3:
                continue
            values = rng.uniform(-3.0, 3.0, d)
            try:
                g = lagrange_interpolate(nodes, values)
            except NumericalFailureError:
                continue
            residual = np.max(np.abs(g(nodes) - values))
            assert residual <= 1e-7 * max(1e-30, np.max(np.abs(values)))

    def test_roundtrip_near_representation_floor_on_cosine_nodes(self, c30):
        # degree-15 interpolation over the cycle-30 spectrum is the
        # ill-conditioned case the exact operator construction exists for
        _, _, spectrum = c30
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 1.0, spectrum.count)
        g = lagrange_interpolate(spectrum.representatives, values)
        assert np.max(np.abs(g(spectrum.representatives) - values)) <= 1e-10

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(st.data())
    def test_node_contract_or_numerical_failure(self, data):
        # distinct nodes may lie arbitrarily close together, where no float64
        # interpolant keeps the node values; then the failure must be named
        d = data.draw(st.integers(2, 20))
        nodes = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=d, max_size=d, unique=True)))
        values = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
        try:
            g = lagrange_interpolate(nodes, values)
        except NumericalFailureError:
            return
        assert np.max(np.abs(g(nodes) - values)) <= 1e-7 * np.max(np.abs(values))

    def test_matches_small_vandermonde_solve(self):
        # oracle: direct Vandermonde solve is stable at tiny degree
        nodes = np.array([-1.0, 0.5, 2.0])
        values = np.array([2.0, -0.5, 7.0])
        vandermonde = np.vander(nodes, 3, increasing=True)
        expected = np.linalg.solve(vandermonde, values)
        g = lagrange_interpolate(nodes, values)
        t = np.linspace(-2.0, 3.0, 11)
        assert g.degree == 2
        np.testing.assert_allclose(g(t), np.polynomial.polynomial.polyval(t, expected), atol=1e-12)

    def test_nodes_that_coincide_once_mapped_fail_by_name(self):
        # 1e-300 is distinct from 0 but maps onto -1 with it: a singular system
        with pytest.raises(NumericalFailureError, match="singular"):
            lagrange_interpolate([0.0, 1e-300, 1.0], [0.0, 1.0, -1.0])


class TestSpectrumInterpolation:
    @pytest.mark.parametrize("n", [30, 120, 500])
    def test_monomial_values_give_back_their_degree(self, n):
        nodes = eigendecompose(build_shift(cycle_graph(n), "laplacian")).representatives
        for degree in range(4):
            g = lagrange_interpolate(nodes, nodes**degree)
            assert g.degree == degree
            t = np.linspace(nodes[0], nodes[-1], 101)
            np.testing.assert_allclose(g(t), t**degree, rtol=0.0, atol=1e-12 * 4.0**degree)

    @pytest.mark.parametrize("n", [30, 120, 500])
    def test_random_values_keep_the_node_contract(self, n):
        nodes = eigendecompose(build_shift(cycle_graph(n), "laplacian")).representatives
        rng = np.random.default_rng(n)
        for _ in range(5):
            values = rng.uniform(-1.0, 1.0, nodes.size)
            g = lagrange_interpolate(nodes, values)
            assert np.max(np.abs(g(nodes) - values)) <= 1e-7 * np.max(np.abs(values))


class TestSerialization:
    def test_coefficient_list_roundtrip(self):
        f = Polynomial((0.0, 0.25))
        assert list(f.coeffs) == [0.0, 0.25]
        assert Polynomial(list(f.coeffs)) == f
