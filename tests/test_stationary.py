import numpy as np
import pytest
import scipy.stats

from graphkalman import (
    DynamicalSystem,
    NotPositiveSemidefiniteError,
    NumericalFailureError,
    Polynomial,
    StationaryModel,
    apply_filter,
    build_shift,
    cycle_graph,
    eigendecompose,
    eval_filter,
    fit_covariance_poly,
    sample,
    sqrt_filter,
    whiten,
)
from graphkalman.seeding import generator
from graphkalman.verify import random_polynomial, random_psd_poly, random_shift


class TestSqrtFilter:
    def test_unit_covariance(self, c4):
        _, _, spectrum = c4
        g = sqrt_filter(StationaryModel(Polynomial((1.0,)), spectrum))
        np.testing.assert_allclose(g.coeffs, (1.0,), atol=1e-12)

    def test_squared_identity_covariance(self, c4):
        # variances t^2 at eigenvalues {0, 2, 4} have square roots |t| = t there
        _, _, spectrum = c4
        g = sqrt_filter(StationaryModel(Polynomial((0.0, 0.0, 1.0)), spectrum))
        t = np.linspace(0.0, 4.0, 9)
        assert g.degree == 1
        np.testing.assert_allclose(g(t), t, atol=1e-10)

    def test_negative_variance_rejected(self, c4):
        _, _, spectrum = c4
        with pytest.raises(NotPositiveSemidefiniteError):
            sqrt_filter(StationaryModel(Polynomial((0.0, -1.0)), spectrum))

    def test_tiny_negative_clamped(self, c4):
        _, _, spectrum = c4
        # within the PSD tolerance band: clamp, do not raise
        poly = Polynomial((-1e-12, 0.25))
        g = sqrt_filter(StationaryModel(poly, spectrum))
        assert np.all(np.isfinite(g.coeffs))

    def test_square_matches_covariance(self):
        rng = generator(41)
        for _ in range(10):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            h = random_psd_poly(rng)
            g = sqrt_filter(StationaryModel(h, spectrum))
            gs = eval_filter(g, spectrum)
            hs = eval_filter(h, spectrum)
            assert np.linalg.norm(gs @ gs - hs) <= 1e-6 * max(1e-30, np.linalg.norm(hs))

    @pytest.mark.parametrize("n", [30, 60, 120])
    def test_applied_sqrt_filter_matches_the_eigenbasis(self, n):
        # the channel x = g(S) e against U diag(sqrt(h)) U^T e, by shift-vector products only
        shift = build_shift(cycle_graph(n), "laplacian")
        spectrum = eigendecompose(shift)
        model = StationaryModel(Polynomial((1.01, -1.0, 0.25)), spectrum)
        e = generator(n).standard_normal(n)
        u = spectrum.eigenvectors
        expected = u @ (np.sqrt((1.0 - spectrum.eigenvalues / 2.0) ** 2 + 0.01) * (u.T @ e))
        applied = apply_filter(sqrt_filter(model), shift, e)
        assert np.linalg.norm(applied - expected) <= 1e-12 * np.linalg.norm(expected)


class TestSample:
    def test_zero_covariance_gives_zero_signal(self, c4):
        _, _, spectrum = c4
        x = sample(StationaryModel(Polynomial(), spectrum), generator(1))
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_unit_covariance_is_white(self, c4):
        _, _, spectrum = c4
        draws = sample(StationaryModel(Polynomial((1.0,)), spectrum), generator(2), size=50_000)
        cov = draws @ draws.T / draws.shape[1]
        np.testing.assert_allclose(cov, np.eye(4), atol=0.05)

    def test_batch_shape(self, c4):
        _, _, spectrum = c4
        model = StationaryModel(Polynomial((1.0,)), spectrum)
        assert sample(model, generator(3)).shape == (4,)
        assert sample(model, generator(3), size=7).shape == (4, 7)

    def test_matches_eigenbasis_colouring_on_cycle60(self):
        # C_60 is where colouring by Horner on an interpolated sqrt filter's
        # monomial coefficients breaks down (about 70 relative)
        spectrum = eigendecompose(build_shift(cycle_graph(60), "laplacian"))
        h = Polynomial((1.0 + 0.01, -1.0, 0.25))  # (1 - t/2)^2 + 0.01
        model = StationaryModel(h, spectrum)
        draws = sample(model, generator(60), size=100)
        noise = generator(60).standard_normal((60, 100))
        u = spectrum.eigenvectors
        expected = u @ (np.sqrt(h(spectrum.eigenvalues))[:, None] * (u.T @ noise))
        assert np.linalg.norm(draws - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_empirical_covariance_on_cycle30(self, c30):
        # Monte-Carlo oracle: 200000 colored draws, z-scores from the exact
        # Gaussian moment formula.  The 465 distinct entries are compared at
        # once, so the bound is Bonferroni's at family level 1e-3 (about
        # 4.74 standard errors), which holds under any dependence between
        # entries; coloring with h instead of sqrt(h) gives z above 26 even
        # at 20000 draws.
        _, _, spectrum = c30
        h = Polynomial((1.0, -1.0, 0.25))  # (1 - t/2)^2
        model = StationaryModel(h, spectrum)
        trials = 200_000
        draws = sample(model, generator(45020), size=trials)
        empirical = draws @ draws.T / trials
        exact = eval_filter(h, spectrum)
        variances = np.diag(exact)
        stderr = np.sqrt((np.outer(variances, variances) + exact**2) / trials)
        distinct = np.triu_indices(spectrum.n)
        z = (np.abs(empirical - exact) / stderr)[distinct]
        assert np.max(z) <= scipy.stats.norm.isf(1e-3 / (2 * z.size))


class TestWhiten:
    def test_unit_covariance_roundtrip_is_identity(self, c4):
        _, _, spectrum = c4
        model = StationaryModel(Polynomial((1.0,)), spectrum)
        x = generator(5).standard_normal(4)
        e = whiten(x, model, generator(6))
        np.testing.assert_allclose(e, x, atol=1e-12)

    def test_zero_covariance_gives_fresh_noise(self, c4):
        _, _, spectrum = c4
        model = StationaryModel(Polynomial(), spectrum)
        x = np.full(4, 3.0)
        e = whiten(x, model, generator(7))
        # all frequencies are null: the output is the rotation of fresh draws
        expected = spectrum.eigenvectors @ generator(7).standard_normal(4)
        np.testing.assert_allclose(e, expected, atol=1e-12)

    def test_null_frequency_replaced_and_roundtrip(self, c4):
        _, shift, spectrum = c4
        model = StationaryModel(Polynomial((0.0, 1.0)), spectrum)  # zero variance at 0
        rng = generator(8)
        x = sample(model, rng)
        e = whiten(x, model, rng)
        rebuilt = apply_filter(sqrt_filter(model), shift, e)
        assert np.linalg.norm(rebuilt - x) <= 1e-8 * max(1e-30, np.linalg.norm(x))
        # the flat eigenvector carries zero signal variance, so the whitened
        # coefficient there must come from the fresh stream, not from x
        flat = spectrum.eigenvectors[:, 0]
        assert abs(flat @ x) <= 1e-10
        assert abs(flat @ e) > 1e-6

    def test_coloring_whitening_roundtrip_random_models(self):
        rng = generator(42)
        for _ in range(10):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            model = StationaryModel(random_psd_poly(rng), spectrum)
            x = sample(model, rng)
            rebuilt = apply_filter(sqrt_filter(model), shift, whiten(x, model, rng))
            assert np.linalg.norm(rebuilt - x) <= 1e-8 * max(1e-30, np.linalg.norm(x))

    def test_not_psd_rejected(self, c4):
        _, _, spectrum = c4
        with pytest.raises(NotPositiveSemidefiniteError):
            whiten(np.zeros(4), StationaryModel(Polynomial((0.0, -1.0)), spectrum), generator(9))


class TestClampedVariances:
    def test_clamped_once_per_model(self, c4):
        _, _, spectrum = c4
        model = StationaryModel(Polynomial((-1e-12, 0.25)), spectrum)
        first = model.clamped_group_variances
        assert model.clamped_group_variances is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(first, np.maximum(model.group_variances, 0.0))
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_non_finite_variance_raises_on_every_use(self):
        # h_0 = 1e308 + 1e308 t overflows at every eigenvalue of C_8 but 0;
        # sample returned non-finite draws with no error
        spectrum = eigendecompose(build_shift(cycle_graph(8), "laplacian"))
        model = StationaryModel(Polynomial((1e308, 1e308)), spectrum)
        rng = generator(10)
        uses = [
            lambda: model.group_variances,
            lambda: sample(model, rng),
            lambda: whiten(np.ones(8), model, rng),
            lambda: sqrt_filter(model),
            lambda: DynamicalSystem(
                spectrum, 5, (Polynomial((1.0,)),), (Polynomial((1.0,)),), (1.0,), (1.0,), model.covariance_poly,
            ),
        ]
        for use in uses:
            with pytest.raises(NumericalFailureError, match="not finite at a distinct eigenvalue"):
                use()

    def test_non_psd_model_raises_on_every_read(self, c4):
        _, _, spectrum = c4
        model = StationaryModel(Polynomial((0.0, -1.0)), spectrum)
        for _ in range(2):
            with pytest.raises(NotPositiveSemidefiniteError):
                model.clamped_group_variances


class TestFitCovariancePoly:
    def test_exact_member_recovered(self, c4, c120):
        h = Polynomial((0.5, 0.25, 0.1))
        for _, _, spectrum in (c4, c120):
            poly, residual = fit_covariance_poly(eval_filter(h, spectrum), spectrum)
            assert residual <= 1e-10
            # recovered polynomial agrees with h as a filter
            np.testing.assert_allclose(
                np.atleast_1d(poly(spectrum.representatives)),
                np.atleast_1d(h(spectrum.representatives)),
                atol=1e-9,
            )

    def test_identity_fit(self, c4):
        _, _, spectrum = c4
        poly, residual = fit_covariance_poly(np.eye(4), spectrum)
        assert residual <= 1e-12
        np.testing.assert_allclose(poly.coeffs, (1.0,), atol=1e-10)

    def test_empirical_covariance_fit_residual(self):
        graph = cycle_graph(8)
        spectrum = eigendecompose(build_shift(graph, "laplacian"))
        h = Polynomial((0.1, 0.25))
        model = StationaryModel(h, spectrum)
        draws = sample(model, generator(10), size=200_000)
        empirical = draws @ draws.T / draws.shape[1]
        _, residual = fit_covariance_poly(empirical, spectrum)
        assert residual < 0.02

    def test_shape_mismatch_rejected(self, c4):
        _, _, spectrum = c4
        with pytest.raises(ValueError, match="does not match graph order"):
            fit_covariance_poly(np.eye(5), spectrum)

    def test_asymmetric_rejected(self, c4):
        _, _, spectrum = c4
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            fit_covariance_poly(m, spectrum)


class TestClosureAndInvariance:
    def test_polynomial_channel_closure(self):
        rng = generator(43)
        for _ in range(10):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            h = random_psd_poly(rng)
            q = random_polynomial(rng, 3)
            hs = eval_filter(h, spectrum)
            qs = eval_filter(q, spectrum)
            lam = spectrum.eigenvalues
            target = spectrum.operator(q(lam) ** 2 * h(lam))
            assert np.linalg.norm(qs @ hs @ qs - target) <= 1e-8

    def test_covariance_commutes_with_shift(self):
        rng = generator(44)
        for _ in range(10):
            shift = random_shift(rng, int(rng.integers(4, 11)))
            spectrum = eigendecompose(shift)
            hs = eval_filter(random_psd_poly(rng), spectrum)
            assert np.linalg.norm(shift.matrix @ hs - hs @ shift.matrix) <= 1e-8
