import dataclasses
import math
from collections.abc import Sequence

import numpy as np
import pytest

from graphkalman import (
    DynamicalSystem,
    FilterResult,
    KalmanState,
    NumericalFailureError,
    Polynomial,
    SingularGainError,
    SpectralDecomposition,
    build_shift,
    cycle_graph,
    eigendecompose,
    eval_filter,
    matrix_riccati_step,
    riccati_sequence,
    run_filter,
    simulate,
)
from graphkalman import kalman as kalman_mod
from graphkalman.dynamics import covariance_responses
from graphkalman.experiment import DEFAULT_GRID
from graphkalman.seeding import generator
from graphkalman.verify import matrix_covariance_path, matrix_riccati_path, random_system, response_matrix

from conftest import full_riccati_sequence, plain_recursion, time_varying_cycle_system


def _paper_like_system(horizon=20, sigma=0.3, sigma_tilde=0.5, n=30):
    shift = build_shift(cycle_graph(n), "laplacian")
    return DynamicalSystem.from_constant(
        eigendecompose(shift), Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)),
        sigma, sigma_tilde, horizon,
    )


def _dense_filter(sys, observations):
    """Dense Kalman estimates from x^_0 = 0 driven by the gains of verify.matrix_riccati_path."""
    gains, _ = matrix_riccati_path(sys)
    x = np.zeros(sys.n)
    out = []
    for k, (gain, z) in enumerate(zip(gains, observations), start=1):
        a = eval_filter(sys.state_polys[k - 1], sys.spectrum)
        b = eval_filter(sys.observation_polys[k - 1], sys.spectrum)
        predicted = a @ x
        x = predicted + gain @ (z - b @ predicted)
        out.append(x)
    return np.array(out)


def _eigenbasis_estimates(sys, observations, riccati):
    """run_filter's recursion as the plain loop x~_k = carry_k x~_{k-1} + drive_k
    from x~_0 = 0, with every response expanded to the n eigenindices and the
    raw observation responses b_k (g_k is 0 where b_k is blind), rotated back."""
    m = observations.shape[0]
    u = sys.spectrum.eigenvectors
    expand = sys.spectrum.expand
    g = expand(riccati.gain_responses[:m])
    carry = expand(sys.state_responses[:m]) * (1.0 - g * expand(sys.observation_responses[:m]))
    rotated = plain_recursion(np.zeros(sys.n), carry, g * (observations @ u))
    return np.vstack([np.zeros(sys.n), rotated[1:] @ u.T])


def _worst_step_gap(estimates, reference):
    gaps = np.linalg.norm(estimates - reference, axis=1) / np.linalg.norm(reference, axis=1)
    return float(np.max(gaps))


class TestPredictUpdate:
    """The predict (a x~) and update (+ g (z~ - b a x~)) halves of run_filter's step."""

    def test_zero_estimate_predicts_zero(self):
        sys = _paper_like_system(horizon=3)
        estimates = run_filter(sys, np.zeros((3, 30))).estimates
        np.testing.assert_array_equal(estimates[1:], np.zeros((3, 30)))

    def test_identity_dynamics_keeps_estimate(self):
        # a = b = 1 and z_k = xhat_1 from step 2 on: the innovation vanishes there
        shift = build_shift(cycle_graph(5), "laplacian")
        sys = DynamicalSystem.from_constant(eigendecompose(shift), Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 4)
        z1 = generator(60).standard_normal((1, 5))
        x1 = run_filter(sys, z1).estimates[1]
        estimates = run_filter(sys, np.vstack([z1, np.tile(x1, (3, 1))])).estimates
        np.testing.assert_allclose(estimates[1:], np.tile(x1, (4, 1)), atol=1e-12)

    def test_predict_matches_dense_oracle(self):
        # b_2 = b_3 = 0 make the gains of steps 2 and 3 vanish, so those
        # estimates are the predictions a x^_{k-1} alone
        sys = DynamicalSystem.from_sequences(
            eigendecompose(build_shift(cycle_graph(30), "laplacian")),
            state_polys=[Polynomial((0.0, 0.25))] * 3,
            observation_polys=[Polynomial((1.0,)), Polynomial.zero(), Polynomial.zero()],
            sigmas=[0.3] * 3,
            sigma_tildes=[0.5] * 3,
        )
        np.testing.assert_array_equal(riccati_sequence(sys).gain_responses[1:], 0.0)
        estimates = run_filter(sys, generator(62).standard_normal((3, 30))).estimates
        dense = (sys.shift.matrix / 4.0) @ estimates[1]
        assert np.linalg.norm(dense) > 0.1
        np.testing.assert_allclose(estimates[2], dense, atol=1e-12)
        np.testing.assert_allclose(estimates[3], (sys.shift.matrix / 4.0) @ dense, atol=1e-12)

    def test_update_zero_gain_keeps_prediction(self):
        # no process noise and a certain start: the predicted variance and the
        # gain are zero, so the estimate keeps the prediction a x^_0 = 0 exactly
        sys = _paper_like_system(horizon=1, sigma=0.0)
        np.testing.assert_array_equal(riccati_sequence(sys).gain_responses[0], 0.0)
        estimates = run_filter(sys, generator(64).standard_normal((1, 30))).estimates
        np.testing.assert_array_equal(estimates[1], 0.0)

    def test_update_unit_gain_unit_observation_returns_observation(self):
        # b = 1 with zero observation noise gives the unit gain
        shift = build_shift(cycle_graph(5), "laplacian")
        sys = DynamicalSystem.from_constant(
            eigendecompose(shift), Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 0.0, 4
        )
        z = generator(65).standard_normal((4, 5))
        estimates = run_filter(sys, z).estimates
        np.testing.assert_allclose(estimates[1:], z, atol=1e-12)

    def test_update_matches_dense_oracle(self):
        sys = _paper_like_system(horizon=5)
        z = generator(68).standard_normal((5, 30))
        estimates = run_filter(sys, z).estimates
        expected = _dense_filter(sys, z)
        assert _worst_step_gap(estimates[1:], expected) <= 1e-10


def _one_step(c4, p_prev, state_poly, observation_poly, sigma, sigma_tilde):
    """Gain and updated error responses of one Riccati step on C_4 from p_prev."""
    _, _, spectrum = c4
    sys = DynamicalSystem.from_constant(
        spectrum, state_poly, observation_poly, sigma, sigma_tilde, 1, initial_covariance=p_prev,
    )
    riccati = riccati_sequence(sys)
    return riccati.gain_responses[0], riccati.error_responses[0]


class TestSpectralRecursion:
    def test_unit_system_gain_is_half(self, c4):
        g, _ = _one_step(c4, Polynomial.zero(), Polynomial((0.3, -0.2)), Polynomial((1.0,)), 1.0, 1.0)
        np.testing.assert_allclose(g, 0.5, atol=1e-12)

    def test_blind_observation_zero_gain(self, c4):
        g, _ = _one_step(c4, Polynomial((1.0,)), Polynomial((1.0,)), Polynomial.zero(), 1.0, 1.0)
        np.testing.assert_array_equal(g, 0.0)

    def test_large_observation_noise_shrinks_gain(self, c4):
        g, _ = _one_step(c4, Polynomial.zero(), Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1e3)
        np.testing.assert_allclose(g, 1.0 / (1.0 + 1e6), rtol=1e-12)

    def test_unit_system_error_is_half(self, c4):
        _, p = _one_step(c4, Polynomial.zero(), Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0)
        np.testing.assert_allclose(p, 0.5, atol=1e-12)

    def test_perfect_observation_error_vanishes(self, c4):
        _, p = _one_step(c4, Polynomial((1.0,)), Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 0.0)
        np.testing.assert_array_equal(p, 0.0)

    def test_zero_dynamics_error_ignores_previous(self, c4):
        b = Polynomial((0.5, 0.1))
        _, p_a = _one_step(c4, Polynomial.zero(), Polynomial.zero(), b, 0.7, 0.9)
        _, p_b = _one_step(c4, Polynomial.constant(5.0), Polynomial.zero(), b, 0.7, 0.9)
        np.testing.assert_allclose(p_a, p_b, atol=1e-12)
        b_values = b(c4[2].representatives)
        expected = 0.9**2 * 0.7**2 / (0.7**2 * b_values**2 + 0.9**2)
        np.testing.assert_allclose(p_a, expected, atol=1e-12)

    def test_singular_gain_raised_at_blind_uncertain_frequency(self, c4):
        # 1 - t/2 vanishes at eigenvalue 2; with positive predicted variance
        # and zero observation noise the gain is undefined there
        with pytest.raises(SingularGainError):
            _one_step(c4, Polynomial.zero(), Polynomial((1.0,)), Polynomial((1.0, -0.5)), 0.3, 0.0)

    @pytest.mark.parametrize("n", [12, 20])
    def test_near_blind_frequency_raises(self, n):
        # the computed eigenvalue next to 2 leaves 1 - t/2 at 2.2e-16, not 0;
        # relative to max|b| that frequency is blind all the same
        sys = _paper_like_system(horizon=5, sigma_tilde=0.0, n=n)
        with pytest.raises(SingularGainError, match="step 1"):
            riccati_sequence(sys)

    def test_overflowing_blind_frequency_raises_at_its_first_step(self):
        # C_8 has the eigenvalue 2, where b = 1 - t/2 is blind; with a = 3 its
        # error grows as 9^k and leaves the float64 range at step 324
        spectrum = eigendecompose(build_shift(cycle_graph(8), "laplacian"))

        def system(horizon):
            return DynamicalSystem.from_constant(
                spectrum, Polynomial.constant(3.0), Polynomial((1.0, -0.5)), 1.0, 1.0, horizon
            )

        assert np.isfinite(riccati_sequence(system(323)).error_responses).all()
        with pytest.raises(NumericalFailureError, match="not finite from step 324 on"):
            riccati_sequence(system(400))

    def test_recursions_start_from_the_clamped_prior(self):
        # h_0 = -1e-12 + t passes the PSD tolerance but reads -1e-12 at
        # eigenvalue 0, where simulate draws x_0 with variance 0: the state
        # there stays exactly 0, and so must its covariance and error
        sys = DynamicalSystem.from_constant(
            eigendecompose(build_shift(cycle_graph(8), "laplacian")), Polynomial.constant(1.0),
            Polynomial.constant(1.0), 0.0, 1.0, 6, initial_covariance=Polynomial((-1e-12, 1.0)),
        )
        model = sys.initial_model
        assert model.group_variances.min() < 0.0
        np.testing.assert_array_equal(covariance_responses(sys)[0], model.clamped_group_variances)
        riccati = riccati_sequence(sys)
        assert (riccati.error_responses >= 0.0).all() and (riccati.gain_responses >= 0.0).all()

    def test_noise_whose_square_underflows_is_refused(self):
        # the step reads sigma_tilde^2, which is 0.0 for sigma_tilde = 1e-170, as
        # at sigma_tilde = 0 (SingularGainError at C_12's blind frequency, gain
        # 1/b on C_30): such a positive level is refused where the system is made
        for n in (12, 30):
            with pytest.raises(ValueError, match="^observation noise level must be 0 or have a finite nonzero square"):
                _paper_like_system(horizon=5, sigma_tilde=1e-170, n=n)

    def test_near_blind_frequency_gets_zero_gain_at_tiny_noise(self):
        # b(mu) = 2.2e-16 with sigma_tilde = 1e-17 would give a 4.5e15 gain;
        # the frequency is blind, so its gain is 0 and its error only propagates
        sys = _paper_like_system(horizon=5, sigma_tilde=1e-17, n=12)
        riccati = riccati_sequence(sys)
        blind = np.abs(sys.observation_responses[0]) < 1e-15
        assert np.count_nonzero(blind) == 1
        np.testing.assert_array_equal(riccati.gain_responses[:, blind], 0.0)
        assert np.all(np.abs(riccati.gain_responses) <= 1.0 / np.min(np.abs(sys.observation_responses[0][~blind])))
        np.testing.assert_allclose(riccati.error_responses[0, blind], 0.3**2, rtol=1e-15)


class TestMatrixRecursion:
    def test_unit_substitution(self):
        eye = np.eye(4)
        gain, p = matrix_riccati_step(np.zeros((4, 4)), eye, eye, 1.0, 1.0)
        np.testing.assert_allclose(gain, 0.5 * eye, atol=1e-12)
        np.testing.assert_allclose(p, 0.5 * eye, atol=1e-12)

    def test_blind_observation_is_pure_propagation(self):
        rng = generator(68)
        a = rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        p_prev = np.eye(5) * 0.3
        gain, p = matrix_riccati_step(p_prev, a, np.zeros((5, 5)), 0.7, 1.2)
        np.testing.assert_allclose(gain, 0.0, atol=1e-12)
        np.testing.assert_allclose(p, a @ p_prev @ a.T + 0.49 * np.eye(5), atol=1e-10)

    def test_gain_and_update_match_explicit_inverse(self):
        # non-commuting A, B and P_prev, so no eigenbasis shortcut applies
        rng = generator(70)
        a = rng.standard_normal((6, 6))
        a = 0.5 * (a + a.T)
        b = rng.standard_normal((6, 6))
        root = rng.standard_normal((6, 6))
        p_prev = root @ root.T + 0.1 * np.eye(6)
        sigma, sigma_tilde = 0.7, 0.4
        predicted = a @ p_prev @ a.T + sigma**2 * np.eye(6)
        expected_gain = predicted @ b.T @ np.linalg.inv(b @ predicted @ b.T + sigma_tilde**2 * np.eye(6))
        expected_error = (np.eye(6) - expected_gain @ b) @ predicted
        gain, error = matrix_riccati_step(p_prev, a, b, sigma, sigma_tilde)
        assert np.linalg.norm(gain - expected_gain) <= 1e-10 * np.linalg.norm(expected_gain)
        assert np.linalg.norm(error - expected_error) <= 1e-10 * np.linalg.norm(expected_error)

    def test_singular_innovation_rejected(self):
        with pytest.raises(NumericalFailureError):
            matrix_riccati_step(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)), 0.0, 0.0)

    def test_reference_system_dual_form(self):
        sys = _paper_like_system(horizon=20)
        riccati = riccati_sequence(sys)
        dense_gains, dense_errors = matrix_riccati_path(sys)
        for k in range(20):
            p_spec = response_matrix(sys, riccati.error_responses[k])
            g_spec = response_matrix(sys, riccati.gain_responses[k])
            assert np.linalg.norm(p_spec - dense_errors[k]) <= 1e-9 * max(1.0, np.linalg.norm(dense_errors[k]))
            assert np.linalg.norm(g_spec - dense_gains[k]) <= 1e-9 * max(1.0, np.linalg.norm(dense_gains[k]))


class TestRunFilter:
    def test_empty_observations_returns_initial_state(self):
        sys = _paper_like_system(horizon=5)
        estimates = run_filter(sys, np.zeros((0, 30))).estimates
        np.testing.assert_array_equal(estimates, np.zeros((1, 30)))
        riccati = riccati_sequence(_paper_like_system(horizon=0))
        assert riccati.gain_responses.shape == riccati.error_responses.shape == (0, sys.spectrum.count)
        assert [rows.shape for rows in riccati.filter_rows] == [(0, 30), (0, 30)]

    def test_overflowing_estimate_names_its_first_step(self):
        # zero observation noise gives the gain 1/b = 1e3; step 2's observation
        # and its rotation into the eigenbasis (2e306) are finite, but its
        # estimate leaves the float range
        shift = build_shift(cycle_graph(4), "laplacian")
        sys = DynamicalSystem.from_constant(
            eigendecompose(shift), Polynomial.constant(0.5), Polynomial.constant(1e-3), 1.0, 0.0, 4
        )
        observations = np.ones((4, 4))
        observations[1] = 1e306
        with pytest.raises(NumericalFailureError, match="^Kalman estimate is not finite from step 2 on$"):
            run_filter(sys, observations)

    def test_noiseless_consistent_system_tracks_exactly(self):
        # invertible unit observation with zero noise: the estimate locks
        # onto the true state after one step
        shift = build_shift(cycle_graph(6), "laplacian")
        sys = DynamicalSystem.from_constant(
            eigendecompose(shift), Polynomial((0.0, 0.25)), Polynomial((1.0,)), 0.4, 0.0, 8
        )
        trajectory = simulate(sys, 31337)
        estimates = run_filter(sys, trajectory.observations).estimates
        for k in range(1, 9):
            error = np.linalg.norm(estimates[k] - trajectory.states[k])
            assert error <= 1e-9 * max(1.0, np.linalg.norm(trajectory.states[k]))

    def test_random_system_matches_dense_filter(self):
        sys = random_system(generator(69), n_max=8, steps=10)
        trajectory = simulate(sys, 7)
        riccati = riccati_sequence(sys)
        dense_gains, dense_errors = matrix_riccati_path(sys)
        for spectral_gain, spectral_error, gain, error in zip(
            riccati.gain_responses, riccati.error_responses, dense_gains, dense_errors
        ):
            spectral_error_matrix = response_matrix(sys, spectral_error)
            spectral_gain_matrix = response_matrix(sys, spectral_gain)
            assert np.linalg.norm(spectral_error_matrix - error) <= 1e-9 * max(1.0, np.linalg.norm(error))
            assert np.linalg.norm(spectral_gain_matrix - gain) <= 1e-9 * max(1.0, np.linalg.norm(gain))
        estimates = run_filter(sys, trajectory.observations).estimates
        expected = _dense_filter(sys, trajectory.observations)
        assert _worst_step_gap(estimates[1:], expected) <= 1e-10

    def test_cycle120_matches_dense_filter(self):
        # degree-60 monomial gains applied by Horner overflowed to NaN here
        sys = _paper_like_system(horizon=100, n=120)
        trajectory = simulate(sys, 120)
        estimates = run_filter(sys, trajectory.observations).estimates[1:]
        assert np.all(np.isfinite(estimates))
        expected = _dense_filter(sys, trajectory.observations)
        assert _worst_step_gap(estimates, expected) <= 1e-10

    def test_precomputed_riccati_reused(self):
        sys = _paper_like_system(horizon=10)
        riccati = riccati_sequence(sys)
        trajectory = simulate(sys, 11)
        direct = run_filter(sys, trajectory.observations)
        reused = run_filter(sys, trajectory.observations, riccati=riccati)
        np.testing.assert_array_equal(direct.estimates, reused.estimates)

    def test_riccati_of_another_system_rejected(self):
        # with the same spectrum and another sigma the gains would be wrong, silently
        sys = _paper_like_system(horizon=10)
        observations = simulate(sys, 11).observations
        same_spectrum = DynamicalSystem.from_constant(
            sys.spectrum, sys.state_polys[0], sys.observation_polys[0], 0.6, 0.5, 10
        )
        for other in (same_spectrum, _paper_like_system(horizon=10, n=12)):
            with pytest.raises(ValueError, match="belongs to another system"):
                run_filter(sys, observations, riccati=riccati_sequence(other))

    def test_too_many_observations_rejected(self):
        sys = _paper_like_system(horizon=3)
        with pytest.raises(ValueError):
            run_filter(sys, np.zeros((4, 30)))

    def test_one_dimensional_observations_rejected(self):
        # one step is a (1, n) array, as inverse_estimate takes it
        sys = _paper_like_system(horizon=3)
        with pytest.raises(ValueError, match="expected"):
            run_filter(sys, np.zeros(30))
        run_filter(sys, np.zeros((1, 30)))

    def test_default_initialization_is_stationary(self):
        # p_0 defaults to the state covariance polynomial so the initial
        # error is stationary
        sys = random_system(generator(70), n_max=8, steps=5, zero_initial=False)
        trajectory = simulate(sys, 70)
        estimates = run_filter(sys, trajectory.observations).estimates
        h0 = eval_filter(sys.initial_covariance, sys.spectrum)
        initial = response_matrix(sys, sys.initial_model.group_variances)
        np.testing.assert_allclose(initial, h0, atol=1e-12)
        expected = _dense_filter(sys, trajectory.observations)
        assert _worst_step_gap(estimates[1:], expected) <= 1e-10

    def test_step_error_is_labelled(self, c4):
        _, _, spectrum = c4
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((1.0,)), Polynomial((1.0, -0.5)), 0.3, 0.0, 4
        )
        with pytest.raises(SingularGainError, match="step 1"):
            run_filter(sys, np.zeros((4, 4)))


class TestInPlaceLoop:
    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: random_system(generator(73), n_max=8, steps=12),
            lambda: time_varying_cycle_system(10, 10),
        ],
        ids=["time-invariant", "time-varying"],
    )
    @pytest.mark.parametrize("m", [0, 1, 10])
    def test_matches_plain_recursion_bit_for_bit(self, make_system, m):
        sys = make_system()
        observations = simulate(sys, 74).observations[:m]
        riccati = riccati_sequence(sys)
        result = run_filter(sys, observations, riccati=riccati)
        np.testing.assert_array_equal(result.estimates, _eigenbasis_estimates(sys, observations, riccati))


class TestFilterResult:
    @pytest.fixture(scope="class")
    def filtered(self):
        sys = _paper_like_system(horizon=4)
        observations = simulate(sys, 76).observations
        return run_filter(sys, observations)

    @staticmethod
    def _rows(states):
        return [state.estimate.tobytes() for state in states]

    def test_is_a_sequence_of_m_plus_one_states(self, filtered):
        assert isinstance(filtered, FilterResult) and isinstance(filtered, Sequence)
        assert len(filtered) == 5
        assert filtered.estimates.shape == (5, 30)
        assert self._rows(filtered) == [row.tobytes() for row in filtered.estimates]

    def test_negative_indices_count_from_the_end(self, filtered):
        assert self._rows([filtered[-1], filtered[-5]]) == self._rows([filtered[4], filtered[0]])
        np.testing.assert_array_equal(filtered[-2].estimate, filtered[3].estimate)

    def test_index_past_either_end_raises(self, filtered):
        for index in (5, -6):
            with pytest.raises(IndexError):
                filtered[index]

    def test_slices_return_lists_of_states(self, filtered):
        tail = filtered[1:]
        assert isinstance(tail, list) and all(isinstance(state, KalmanState) for state in tail)
        assert self._rows(tail) == self._rows(filtered[k] for k in (1, 2, 3, 4))
        assert self._rows(filtered[::-2]) == self._rows(filtered[k] for k in (4, 2, 0))
        assert filtered[7:] == []

    def test_step_fields_are_rows_of_the_arrays(self, filtered):
        for k in range(5):
            state = filtered[k]
            np.testing.assert_array_equal(state.estimate, filtered.estimates[k])
        np.testing.assert_array_equal(filtered[0].estimate, 0.0)

    def test_arrays_are_read_only(self, filtered):
        assert not filtered.estimates.flags.writeable
        with pytest.raises(ValueError):
            filtered.estimates[0] = 1.0
        with pytest.raises(ValueError):
            filtered[2].estimate[0] = 1.0


class TestFilterRows:
    def test_rows_are_formed_once_per_sequence(self, monkeypatch):
        sys = _paper_like_system(horizon=10)
        riccati = riccati_sequence(sys)
        observations = simulate(sys, 11).observations
        first = run_filter(sys, observations, riccati=riccati)
        expand = SpectralDecomposition.expand
        calls = []

        def counted(self, values):
            calls.append(np.shape(values))
            return expand(self, values)

        monkeypatch.setattr(SpectralDecomposition, "expand", counted)
        second = run_filter(sys, observations[:6], riccati=riccati)
        assert calls == []
        assert second.estimates.tobytes() == first.estimates[:7].tobytes()
        assert tuple(field.name for field in dataclasses.fields(FilterResult)) == ("estimates",)
        assert tuple(field.name for field in dataclasses.fields(KalmanState)) == ("estimate",)

    def test_rows_are_the_expanded_carry_and_gain(self):
        sys = time_varying_cycle_system(10, 4)
        riccati = riccati_sequence(sys)
        carry, gain = riccati.filter_rows
        assert riccati.filter_rows[0] is carry and riccati.filter_rows[1] is gain
        assert carry.shape == gain.shape == (4, 10)
        assert riccati.gain_responses.shape == riccati.error_responses.shape == (4, sys.spectrum.count)
        expand = sys.spectrum.expand
        np.testing.assert_array_equal(gain, expand(riccati.gain_responses))
        a, b = expand(sys.state_responses), expand(sys.observed_responses)
        np.testing.assert_array_equal(carry, a * (1.0 - gain * b))
        for values in (carry, gain):
            with pytest.raises(ValueError):
                values[0] = 1.0


class TestInterpolatedGains:
    @pytest.mark.parametrize("n", [30, 60, 120])
    def test_gains_keep_their_node_values(self, n):
        riccati = riccati_sequence(_paper_like_system(horizon=100, n=n))
        for gain, row in zip(riccati.gains, riccati.gain_responses):
            assert np.max(np.abs(gain(riccati.system.spectrum.representatives) - row)) <= 1e-7 * np.max(np.abs(row))


class TestTimeVarying:
    def test_responses_filter_and_covariance_match_dense(self):
        shift = build_shift(cycle_graph(10), "laplacian")
        steps = range(1, 6)
        sys = DynamicalSystem.from_sequences(
            eigendecompose(shift),
            state_polys=[Polynomial((0.5, 0.1 * k)) for k in steps],
            observation_polys=[Polynomial((1.0, -0.2 * k)) for k in steps],
            sigmas=[0.2 * k for k in steps],
            sigma_tildes=[1.2 - 0.2 * k for k in steps],
            initial_covariance=Polynomial((0.5, 0.1)),
        )
        assert sys.state_responses.shape == sys.observation_responses.shape == (5, sys.spectrum.count)
        assert not sys.state_responses.flags.writeable

        riccati = riccati_sequence(sys)
        dense_gains, dense_errors = matrix_riccati_path(sys)
        for gain, error, dense_gain, dense_error in zip(
            riccati.gain_responses, riccati.error_responses, dense_gains, dense_errors
        ):
            gain_gap = np.linalg.norm(response_matrix(sys, gain) - dense_gain)
            error_gap = np.linalg.norm(response_matrix(sys, error) - dense_error)
            assert gain_gap <= 1e-9 * max(1.0, np.linalg.norm(dense_gain))
            assert error_gap <= 1e-9 * max(1.0, np.linalg.norm(dense_error))

        trajectory = simulate(sys, 72)
        estimates = run_filter(sys, trajectory.observations).estimates
        expected = _dense_filter(sys, trajectory.observations)
        assert _worst_step_gap(estimates[1:], expected) <= 1e-10

        for response, cov in zip(covariance_responses(sys), matrix_covariance_path(sys), strict=True):
            gap = np.linalg.norm(response_matrix(sys, response) - cov)
            assert gap <= 1e-10 * np.linalg.norm(cov)


def _same_bits(left, right) -> bool:
    return left.gain_responses.tobytes() == right.gain_responses.tobytes() and (
        left.error_responses.tobytes() == right.error_responses.tobytes()
    )


def _first_repeat(errors: np.ndarray) -> int | None:
    """The first step k >= 2 whose error row equals step k-1's bit for bit."""
    for k in range(2, errors.shape[0] + 1):
        if errors[k - 1].tobytes() == errors[k - 2].tobytes():
            return k
    return None


def _first_two_cycle(errors: np.ndarray) -> int | None:
    """The first step k >= 3 whose error row equals step k-2's, and not step k-1's, bit for bit."""
    for k in range(3, errors.shape[0] + 1):
        if errors[k - 1].tobytes() == errors[k - 3].tobytes() != errors[k - 2].tobytes():
            return k
    return None


_SWEEP_GRID = tuple(round(0.1 * i, 10) for i in range(11))

# Cells (sigma, sigma_tilde) of the 11 x 11 grid on 0..1 whose recursion on
# C_30 enters an exact 2-cycle, p_k = p_{k-2} != p_{k-1}, before step 100,
# with the eigenvalues ``eigh`` gives for its Laplacian (``_c30_eigh_spectrum``)
_TWO_CYCLE_CELLS = (
    (0.1, 0.3), (0.2, 0.1), (0.2, 0.5), (0.2, 0.6), (0.3, 0.2), (0.3, 0.6), (0.4, 0.2),
    (0.4, 0.9), (0.4, 1.0), (0.5, 0.4), (0.6, 0.1), (0.6, 0.4), (0.6, 0.9), (0.7, 0.7),
    (0.7, 0.8), (0.7, 0.9), (0.8, 0.4), (0.9, 0.4), (0.9, 0.9), (1.0, 0.3), (1.0, 0.8),
)


@pytest.fixture(scope="module")
def _c30_eigh_spectrum(c30):
    # a custom shift holding the cycle Laplacian goes through ``eigh``, not the closed form
    graph, shift = c30[0], c30[1]
    return eigendecompose(build_shift(graph, "custom", shift.matrix))


class TestFixedPoint:
    """``riccati_sequence`` stops at an exact fixed point and copies its rows
    forward; the full-horizon recursion is the reference, bit for bit."""

    @pytest.mark.parametrize("grid", [_SWEEP_GRID, DEFAULT_GRID], ids=["sweep", "default"])
    def test_every_grid_cell_matches_the_full_recursion(self, c30, grid):
        spectrum = c30[2]
        repeats = 0
        for sigma in grid:
            for sigma_tilde in grid:
                sys = DynamicalSystem.from_constant(
                    spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), sigma, sigma_tilde, 100
                )
                reference = full_riccati_sequence(sys)
                assert _same_bits(riccati_sequence(sys), reference), (sigma, sigma_tilde)
                repeats += _first_repeat(reference.error_responses) is not None
        # the early exit is taken on most cells, so the comparison covers it
        assert repeats > len(grid) ** 2 // 2

    def test_time_varying_system_matches_the_full_recursion(self):
        sys = time_varying_cycle_system(30, 8)
        assert _same_bits(riccati_sequence(sys), full_riccati_sequence(sys))

    def test_invariance_is_read_from_the_values(self, c30, monkeypatch):
        # 100 equal entries, each its own object, make a time-invariant system
        # that takes the stop; one step's sigma_tilde changed makes one that runs
        # every step.  Each is bit for bit the full loop.  The stop is seen as
        # fewer calls of np.multiply, which each computed step makes
        spectrum, b = c30[2], Polynomial((1.0, -0.5))
        constant = DynamicalSystem.from_constant(spectrum, Polynomial((0.0, 0.25)), b, 0.5, 0.5, 100)
        polys = [Polynomial((0.0, 0.25)) for _ in range(100)]
        sigma_tildes = [0.5] * 100
        equal = DynamicalSystem.from_sequences(spectrum, polys, [b] * 100, [0.5] * 100, sigma_tildes)
        sigma_tildes[49] = 0.6
        varied = DynamicalSystem.from_sequences(spectrum, polys, [b] * 100, [0.5] * 100, sigma_tildes)
        assert constant.time_invariant and equal.time_invariant and not varied.time_invariant
        multiply, calls = np.multiply, []
        monkeypatch.setattr(np, "multiply", lambda *args, **kwargs: calls.append(1) or multiply(*args, **kwargs))
        counts, sequences = [], []
        for sys in (equal, varied):
            calls.clear()
            sequences.append(riccati_sequence(sys))
            counts.append(len(calls))
        monkeypatch.undo()
        assert counts[0] < counts[1] // 2
        assert _same_bits(sequences[0], riccati_sequence(constant))
        assert _same_bits(sequences[0], full_riccati_sequence(equal))
        assert _same_bits(sequences[1], full_riccati_sequence(varied))

    @pytest.mark.parametrize("horizon", [1, 2, 3])
    @pytest.mark.parametrize("h0", [None, Polynomial((0.4, 0.2))], ids=["zero-prior", "prior"])
    @pytest.mark.parametrize("sigma, sigma_tilde", [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.3, 0.5)])
    def test_short_horizons_match_the_full_recursion(self, c30, horizon, h0, sigma, sigma_tilde):
        # the repeat test first reads p_{k-2} at step 2, p_0 included
        sys = DynamicalSystem.from_constant(
            c30[2], Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), sigma, sigma_tilde, horizon, h0
        )
        assert _same_bits(riccati_sequence(sys), full_riccati_sequence(sys))

    def test_prior_at_its_fixed_point_matches_the_full_recursion(self, c4):
        # a = 1/2, b = 1, sigma^2 = 7/8, sigma_tilde = 1: p = 1/2 is the exact fixed point
        sys = DynamicalSystem.from_constant(
            c4[2], Polynomial.constant(0.5), Polynomial.constant(1.0), math.sqrt(0.875), 1.0, 6,
            initial_covariance=Polynomial.constant(0.5),
        )
        riccati = riccati_sequence(sys)
        assert riccati.error_responses[0].tobytes() == sys.initial_model.clamped_group_variances.tobytes()
        assert _same_bits(riccati, full_riccati_sequence(sys))

    @pytest.mark.parametrize(
        "sigma_tildes",
        [[0.0] * 7, [0.5, 0.0, 0.0, 0.3, 0.0, 0.7, 0.7], [0.0, 0.4, 0.4, 0.0, 0.4, 0.0, 0.0]],
        ids=["invariant", "zero-then-positive", "positive-then-zero"],
    )
    @pytest.mark.parametrize("n", [30, 4])
    def test_zero_observation_noise_steps_match_the_full_recursion(self, n, sigma_tildes):
        # C_4 has the blind eigenvalue 2, kept certain by sigma = 0 and h_0 = 0;
        # C_30 has none, so its state noise and prior are free
        spectrum = eigendecompose(build_shift(cycle_graph(n), "laplacian"))
        sigma, h0 = (0.0, None) if n == 4 else (0.3, Polynomial((0.5, 0.1)))
        if len(set(sigma_tildes)) == 1:
            sys = DynamicalSystem.from_constant(
                spectrum, Polynomial((0.2, 0.1)), Polynomial((1.0, -0.5)), sigma, sigma_tildes[0], 7, h0
            )
        else:
            sys = DynamicalSystem.from_sequences(
                spectrum, [Polynomial((0.2, 0.1))] * 7, [Polynomial((1.0, -0.5))] * 7, [sigma] * 7, sigma_tildes, h0
            )
        reference = full_riccati_sequence(sys)
        assert _same_bits(riccati_sequence(sys), reference)
        if n == 4:
            assert (reference.gain_responses[np.array(sigma_tildes) == 0.0] == [1.0, 0.0, -1.0]).all()

    def test_rows_after_the_fixed_point_are_copies(self, c30):
        sys = DynamicalSystem.from_constant(
            c30[2], Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.5, 0.5, 100
        )
        riccati = riccati_sequence(sys)
        k = _first_repeat(riccati.error_responses)
        assert k is not None and k < 100
        for values in (riccati.gain_responses, riccati.error_responses):
            assert all(row.tobytes() == values[k - 1].tobytes() for row in values[k:])
        assert _same_bits(riccati, full_riccati_sequence(sys))

    @pytest.mark.parametrize("sigma, sigma_tilde", _TWO_CYCLE_CELLS)
    def test_two_cycle_cells_match_the_full_recursion(self, _c30_eigh_spectrum, sigma, sigma_tilde):
        sys = DynamicalSystem.from_constant(
            _c30_eigh_spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), sigma, sigma_tilde, 100
        )
        reference = full_riccati_sequence(sys)
        k = _first_two_cycle(reference.error_responses)
        assert k is not None and k < 100 and _first_repeat(reference.error_responses) is None
        riccati = riccati_sequence(sys)
        assert _same_bits(riccati, reference)
        for values in (riccati.gain_responses, riccati.error_responses):
            assert all(values[r].tobytes() == values[r - 2].tobytes() for r in range(k, 100))

    def test_two_cycle_cells_of_the_closed_form_spectrum_match_the_full_recursion(self, c30):
        # the cells of the 11 x 11 grid on 0..1 whose recursion on C_30 enters
        # an exact 2-cycle, p_k = p_{k-2} != p_{k-1}, before step 100; which
        # cells do depends on the last bits of the eigenvalues
        cells = 0
        for sigma in _SWEEP_GRID:
            for sigma_tilde in _SWEEP_GRID:
                sys = DynamicalSystem.from_constant(
                    c30[2], Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), sigma, sigma_tilde, 100
                )
                reference = full_riccati_sequence(sys)
                k = _first_two_cycle(reference.error_responses)
                if k is None or k >= 100 or _first_repeat(reference.error_responses) is not None:
                    continue
                cells += 1
                riccati = riccati_sequence(sys)
                assert _same_bits(riccati, reference), (sigma, sigma_tilde)
                for values in (riccati.gain_responses, riccati.error_responses):
                    assert all(values[r].tobytes() == values[r - 2].tobytes() for r in range(k, 100))
        assert cells >= 1

    def test_singular_gain_names_the_same_step(self, c4):
        # C_4 has the eigenvalue 2, where b = 1 - t/2 is blind; the state noise
        # first makes it uncertain at step 3
        sys = DynamicalSystem.from_sequences(
            c4[2], [Polynomial.constant(0.5)] * 4, [Polynomial((1.0, -0.5))] * 4, [0.0, 0.0, 0.3, 0.3], [0.0] * 4
        )
        with pytest.raises(SingularGainError) as reference:
            full_riccati_sequence(sys)
        with pytest.raises(SingularGainError, match="step 3") as fast:
            riccati_sequence(sys)
        assert str(fast.value) == str(reference.value)


def _negate_errors(monkeypatch):
    """Patch ``kalman.riccati_sequence`` to return its sequence with the
    error responses negated, a sign error in the error update."""
    original = kalman_mod.riccati_sequence

    def flipped(sys):
        riccati = original(sys)
        return dataclasses.replace(riccati, error_responses=-riccati.error_responses)

    monkeypatch.setattr(kalman_mod, "riccati_sequence", flipped)


class TestDualFormMutation:
    def test_sign_error_breaks_dual_form(self, monkeypatch):
        sys = random_system(generator(71), n_max=8, steps=10)
        _negate_errors(monkeypatch)
        riccati = kalman_mod.riccati_sequence(sys)
        _, dense_errors = matrix_riccati_path(sys)
        gaps = [
            np.linalg.norm(response_matrix(sys, response) - dense) / max(1.0, np.linalg.norm(dense))
            for response, dense in zip(riccati.error_responses, dense_errors)
        ]
        assert max(gaps) > 1e-9

    def test_sign_error_fails_verify_invariant(self, monkeypatch):
        from graphkalman.verify import run_checks

        _negate_errors(monkeypatch)
        results = run_checks(["kalman"])
        dual = [r for r in results if r.name == "dual-form-equivalence"]
        assert dual and not dual[0].passed
