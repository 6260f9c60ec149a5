import io

import numpy as np
import pytest

from graphkalman import (
    DynamicalSystem,
    NumericalFailureError,
    Polynomial,
    SingularGainError,
    build_shift,
    cycle_graph,
    eval_filter,
    matrix_error_update,
    matrix_gain,
    riccati_sequence,
    run_filter,
    simulate,
    spectral_error_update,
    spectral_gain,
)
from graphkalman import kalman as kalman_mod
from graphkalman.kalman import filter_estimates_to_csv, filter_spectrum_to_csv
from graphkalman.seeding import generator
from graphkalman.verify import matrix_riccati_path, random_system


def _paper_like_system(horizon=20, sigma=0.3, sigma_tilde=0.5, n=30, allow_zero=False):
    shift = build_shift(cycle_graph(n), "laplacian")
    return DynamicalSystem.from_constant(
        shift, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)),
        sigma, sigma_tilde, horizon, allow_zero_noise=allow_zero,
    )


def _dense_filter(sys, observations, p0, xhat0=None):
    """Dense Kalman estimates driven by the gains of verify.matrix_riccati_path."""
    gains, _ = matrix_riccati_path(sys, p0, len(observations))
    x = np.zeros(sys.n) if xhat0 is None else xhat0
    out = []
    for k, (gain, z) in enumerate(zip(gains, observations), start=1):
        a = eval_filter(sys.state_poly(k), sys.decomposition).matrix
        b = eval_filter(sys.observation_poly(k), sys.decomposition).matrix
        predicted = a @ x
        x = predicted + gain @ (z - b @ predicted)
        out.append(x)
    return np.array(out)


def _estimates(states):
    return np.array([state.estimate for state in states[1:]])


def _dense_response_matrix(sys, responses):
    u = sys.decomposition.eigenvectors
    return (u * sys.spectrum.expand(responses)) @ u.T


def _worst_step_gap(estimates, reference):
    gaps = np.linalg.norm(estimates - reference, axis=1) / np.linalg.norm(reference, axis=1)
    return float(np.max(gaps))


class TestPredictUpdate:
    """The predict (a x~) and update (+ g (z~ - b a x~)) halves of run_filter's step."""

    def test_zero_estimate_predicts_zero(self):
        sys = _paper_like_system(horizon=3)
        states = run_filter(sys, np.zeros((3, 30)), p0=Polynomial.zero())
        np.testing.assert_array_equal(_estimates(states), np.zeros((3, 30)))

    def test_identity_dynamics_keeps_estimate(self):
        # a = b = 1 and z = xhat: the innovation vanishes at every step
        shift = build_shift(cycle_graph(5), "laplacian")
        sys = DynamicalSystem.from_constant(shift, Polynomial.one(), Polynomial.one(), 1.0, 1.0, 4)
        x = generator(60).standard_normal(5)
        states = run_filter(sys, np.tile(x, (4, 1)), xhat0=x)
        np.testing.assert_allclose(_estimates(states), np.tile(x, (4, 1)), atol=1e-12)

    def test_predict_matches_dense_oracle(self):
        # b = 0 makes every gain vanish, so the estimate is the prediction alone
        sys = DynamicalSystem.from_constant(
            build_shift(cycle_graph(30), "laplacian"), Polynomial((0.0, 0.25)), Polynomial.zero(), 0.3, 0.5, 2
        )
        x0 = generator(61).standard_normal(30)
        states = run_filter(sys, generator(62).standard_normal((2, 30)), xhat0=x0)
        dense = (sys.shift.matrix / 4.0) @ x0
        np.testing.assert_allclose(states[1].estimate, dense, atol=1e-12)
        np.testing.assert_allclose(states[2].estimate, (sys.shift.matrix / 4.0) @ dense, atol=1e-12)

    def test_update_zero_gain_keeps_prediction(self):
        # no process noise and a certain start: the predicted variance and the gain are zero
        sys = _paper_like_system(horizon=1, sigma=0.0, allow_zero=True)
        x0 = generator(63).standard_normal(30)
        states = run_filter(sys, generator(64).standard_normal((1, 30)), xhat0=x0, p0=Polynomial.zero())
        np.testing.assert_array_equal(states[1].gain_response, 0.0)
        np.testing.assert_allclose(states[1].estimate, (sys.shift.matrix / 4.0) @ x0, atol=1e-12)

    def test_update_unit_gain_unit_observation_returns_observation(self):
        # b = 1 with zero observation noise gives the unit gain
        shift = build_shift(cycle_graph(5), "laplacian")
        sys = DynamicalSystem.from_constant(
            shift, Polynomial.one(), Polynomial.one(), 1.0, 0.0, 4, allow_zero_noise=True
        )
        z = generator(65).standard_normal((4, 5))
        states = run_filter(sys, z, xhat0=generator(66).standard_normal(5))
        np.testing.assert_allclose(_estimates(states), z, atol=1e-12)

    def test_update_matches_dense_oracle(self):
        sys = _paper_like_system(horizon=5)
        x0 = generator(67).standard_normal(30)
        z = generator(68).standard_normal((5, 30))
        states = run_filter(sys, z, xhat0=x0, p0=Polynomial.zero())
        expected = _dense_filter(sys, z, Polynomial.zero(), xhat0=x0)
        assert _worst_step_gap(_estimates(states), expected) <= 1e-10


class TestSpectralRecursion:
    def test_unit_system_gain_is_half(self, c4):
        _, _, _, spectrum = c4
        g = spectral_gain(Polynomial.zero(), Polynomial((0.3, -0.2)), Polynomial.one(), 1.0, 1.0, spectrum)
        np.testing.assert_allclose(g.coeffs, (0.5,), atol=1e-12)

    def test_blind_observation_zero_gain(self, c4):
        _, _, _, spectrum = c4
        g = spectral_gain(Polynomial.one(), Polynomial.one(), Polynomial.zero(), 1.0, 1.0, spectrum)
        assert g.is_zero

    def test_large_observation_noise_shrinks_gain(self, c4):
        _, _, _, spectrum = c4
        g = spectral_gain(Polynomial.zero(), Polynomial.one(), Polynomial.one(), 1.0, 1e3, spectrum)
        np.testing.assert_allclose(g.coeffs, (1.0 / (1.0 + 1e6),), rtol=1e-12)

    def test_unit_system_error_is_half(self, c4):
        _, _, _, spectrum = c4
        p = spectral_error_update(Polynomial.zero(), Polynomial.one(), Polynomial.one(), 1.0, 1.0, spectrum)
        np.testing.assert_allclose(p.coeffs, (0.5,), atol=1e-12)

    def test_perfect_observation_error_vanishes(self, c4):
        _, _, _, spectrum = c4
        p = spectral_error_update(Polynomial.one(), Polynomial.one(), Polynomial.one(), 1.0, 0.0, spectrum)
        assert p.is_zero

    def test_zero_dynamics_error_ignores_previous(self, c4):
        _, _, _, spectrum = c4
        kwargs = dict(state_poly=Polynomial.zero(), observation_poly=Polynomial((0.5, 0.1)), sigma=0.7, sigma_tilde=0.9)
        p_a = spectral_error_update(Polynomial.zero(), kwargs["state_poly"], kwargs["observation_poly"], kwargs["sigma"], kwargs["sigma_tilde"], spectrum)
        p_b = spectral_error_update(Polynomial.constant(5.0), kwargs["state_poly"], kwargs["observation_poly"], kwargs["sigma"], kwargs["sigma_tilde"], spectrum)
        np.testing.assert_allclose(p_a.coeffs, p_b.coeffs, atol=1e-12)
        mu = spectrum.representatives
        b = np.atleast_1d(kwargs["observation_poly"](mu))
        expected = 0.9**2 * 0.7**2 / (0.7**2 * b**2 + 0.9**2)
        np.testing.assert_allclose(np.atleast_1d(p_a(mu)), expected, atol=1e-12)

    def test_singular_gain_raised_at_blind_uncertain_frequency(self, c4):
        _, _, _, spectrum = c4
        # 1 - t/2 vanishes at eigenvalue 2; with positive predicted variance
        # and zero observation noise the gain is undefined there
        with pytest.raises(SingularGainError):
            spectral_gain(Polynomial.zero(), Polynomial.one(), Polynomial((1.0, -0.5)), 0.3, 0.0, spectrum)


class TestMatrixRecursion:
    def test_unit_substitution(self):
        eye = np.eye(4)
        gain = matrix_gain(np.zeros((4, 4)), eye, eye, 1.0, 1.0)
        np.testing.assert_allclose(gain, 0.5 * eye, atol=1e-12)
        p = matrix_error_update(np.zeros((4, 4)), eye, eye, 1.0, 1.0)
        np.testing.assert_allclose(p, 0.5 * eye, atol=1e-12)

    def test_blind_observation_is_pure_propagation(self):
        rng = generator(68)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        p_prev = np.eye(5) * 0.3
        gain = matrix_gain(p_prev, a, np.zeros((5, 5)), 0.7, 1.2)
        np.testing.assert_allclose(gain, 0.0, atol=1e-12)
        p = matrix_error_update(p_prev, a, np.zeros((5, 5)), 0.7, 1.2)
        np.testing.assert_allclose(p, a @ p_prev @ a.T + 0.49 * np.eye(5), atol=1e-10)

    def test_singular_innovation_rejected(self):
        with pytest.raises(NumericalFailureError):
            matrix_gain(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)), 0.0, 0.0)

    def test_reference_system_dual_form(self):
        sys = _paper_like_system(horizon=20)
        riccati = riccati_sequence(sys, p0=Polynomial.zero())
        dense_gains, dense_errors = matrix_riccati_path(sys, Polynomial.zero(), 20)
        for k in range(20):
            p_spec = eval_filter(riccati.error_polys[k], sys.decomposition).matrix
            g_spec = eval_filter(riccati.gains[k], sys.decomposition).matrix
            assert np.linalg.norm(p_spec - dense_errors[k]) <= 1e-9 * max(1.0, np.linalg.norm(dense_errors[k]))
            assert np.linalg.norm(g_spec - dense_gains[k]) <= 1e-9 * max(1.0, np.linalg.norm(dense_gains[k]))


class TestRunFilter:
    def test_empty_observations_returns_initial_state(self):
        sys = _paper_like_system(horizon=5)
        states = run_filter(sys, np.zeros((0, 30)))
        assert len(states) == 1
        assert states[0].step == 0
        np.testing.assert_array_equal(states[0].estimate, np.zeros(30))
        assert states[0].gain_response is None
        h0 = eval_filter(sys.initial_covariance, sys.decomposition).matrix
        np.testing.assert_array_equal(_dense_response_matrix(sys, states[0].error_response), h0)

    def test_noiseless_consistent_system_tracks_exactly(self):
        # invertible unit observation with zero noise: the estimate locks
        # onto the true state after one step
        shift = build_shift(cycle_graph(6), "laplacian")
        sys = DynamicalSystem.from_constant(
            shift, Polynomial((0.0, 0.25)), Polynomial.one(), 0.4, 0.0, 8, allow_zero_noise=True
        )
        trajectory = simulate(sys, 31337)
        states = run_filter(sys, trajectory.observations)
        for k in range(1, 9):
            error = np.linalg.norm(states[k].estimate - trajectory.states[k])
            assert error <= 1e-9 * max(1.0, np.linalg.norm(trajectory.states[k]))

    def test_random_system_matches_dense_filter(self):
        sys = random_system(generator(69), n_max=8, steps=10)
        trajectory = simulate(sys, 7)
        states = run_filter(sys, trajectory.observations)
        dense_gains, dense_errors = matrix_riccati_path(sys, sys.initial_covariance, 10)
        for state, gain, error in zip(states[1:], dense_gains, dense_errors):
            spectral_error = _dense_response_matrix(sys, state.error_response)
            spectral_gain_matrix = _dense_response_matrix(sys, state.gain_response)
            assert np.linalg.norm(spectral_error - error) <= 1e-9 * max(1.0, np.linalg.norm(error))
            assert np.linalg.norm(spectral_gain_matrix - gain) <= 1e-9 * max(1.0, np.linalg.norm(gain))
        expected = _dense_filter(sys, trajectory.observations, sys.initial_covariance)
        assert _worst_step_gap(_estimates(states), expected) <= 1e-10

    def test_cycle120_matches_dense_filter(self):
        # degree-60 monomial gains applied by Horner overflowed to NaN here
        sys = _paper_like_system(horizon=100, n=120)
        trajectory = simulate(sys, 120)
        states = run_filter(sys, trajectory.observations, p0=Polynomial.zero())
        estimates = _estimates(states)
        assert np.all(np.isfinite(estimates))
        expected = _dense_filter(sys, trajectory.observations, Polynomial.zero())
        assert _worst_step_gap(estimates, expected) <= 1e-10

    def test_precomputed_riccati_reused(self):
        sys = _paper_like_system(horizon=10)
        riccati = riccati_sequence(sys, p0=Polynomial.zero())
        trajectory = simulate(sys, 11)
        direct = run_filter(sys, trajectory.observations, p0=Polynomial.zero())
        reused = run_filter(sys, trajectory.observations, riccati=riccati)
        for a, b in zip(direct, reused):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_too_many_observations_rejected(self):
        sys = _paper_like_system(horizon=3)
        with pytest.raises(ValueError):
            run_filter(sys, np.zeros((4, 30)))

    def test_default_initialization_is_stationary(self):
        # p_0 defaults to the state covariance polynomial so the initial
        # error is stationary
        sys = random_system(generator(70), n_max=8, steps=5, zero_initial=False)
        trajectory = simulate(sys, 70)
        states = run_filter(sys, trajectory.observations)
        h0 = eval_filter(sys.initial_covariance, sys.decomposition).matrix
        initial = _dense_response_matrix(sys, states[0].error_response)
        np.testing.assert_allclose(initial, h0, atol=1e-12)
        expected = _dense_filter(sys, trajectory.observations, sys.initial_covariance)
        assert _worst_step_gap(_estimates(states), expected) <= 1e-10

    def test_step_error_is_labelled(self, c4):
        _, shift, _, _ = c4
        sys = DynamicalSystem.from_constant(
            shift, Polynomial.one(), Polynomial((1.0, -0.5)), 0.3, 0.0, 4, allow_zero_noise=True
        )
        with pytest.raises(SingularGainError, match="step 1"):
            run_filter(sys, np.zeros((4, 4)))


class TestDualFormMutation:
    def test_sign_error_breaks_dual_form(self, monkeypatch):
        sys = random_system(generator(71), n_max=8, steps=10)
        original = kalman_mod._scalar_riccati

        def flipped(p_values, a_values, b_values, sigma, sigma_tilde):
            gains, errors = original(p_values, a_values, b_values, sigma, sigma_tilde)
            return gains, -errors  # sign error in the error-update numerator

        monkeypatch.setattr(kalman_mod, "_scalar_riccati", flipped)
        riccati = riccati_sequence(sys)
        _, dense_errors = matrix_riccati_path(sys, sys.initial_covariance, 10)
        gaps = [
            np.linalg.norm(_dense_response_matrix(sys, response) - dense) / max(1.0, np.linalg.norm(dense))
            for response, dense in zip(riccati.error_responses, dense_errors)
        ]
        assert max(gaps) > 1e-9

    def test_sign_error_fails_verify_invariant(self, monkeypatch):
        from graphkalman.verify import run_checks

        original = kalman_mod._scalar_riccati

        def flipped(p_values, a_values, b_values, sigma, sigma_tilde):
            gains, errors = original(p_values, a_values, b_values, sigma, sigma_tilde)
            return gains, -errors

        monkeypatch.setattr(kalman_mod, "_scalar_riccati", flipped)
        results = run_checks(["kalman"])
        dual = [r for r in results if r.name == "dual-form-equivalence"]
        assert dual and not dual[0].passed


class TestCsvExports:
    def test_spectrum_table(self):
        sys = _paper_like_system(horizon=2)
        trajectory = simulate(sys, 5)
        states = run_filter(sys, trajectory.observations)
        buffer = io.StringIO()
        filter_spectrum_to_csv(states, sys, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "k,eigenindex,lambda,p,g"
        assert len(lines) == 1 + 30 * 3  # k = 0..2
        assert lines[1].endswith(",")  # no gain at k=0
        rows = [line.split(",") for line in lines[1 + 30 * 2:]]
        np.testing.assert_array_equal([float(row[2]) for row in rows], sys.decomposition.eigenvalues)
        _, dense_errors = matrix_riccati_path(sys, sys.initial_covariance, 2)
        u = sys.decomposition.eigenvectors
        np.testing.assert_allclose([float(row[3]) for row in rows], np.diag(u.T @ dense_errors[1] @ u), atol=1e-12)

    def test_estimates_table(self):
        sys = _paper_like_system(horizon=2)
        trajectory = simulate(sys, 5)
        states = run_filter(sys, trajectory.observations)
        buffer = io.StringIO()
        filter_estimates_to_csv(states, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "k,vertex,xhat"
        assert len(lines) == 1 + 30 * 3
