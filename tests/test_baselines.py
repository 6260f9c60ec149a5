import inspect
from pathlib import Path

import numpy as np
import pytest

import graphkalman
from graphkalman import (
    DynamicalSystem,
    NumericalFailureError,
    Polynomial,
    build_shift,
    covariance_responses,
    cycle_graph,
    eigendecompose,
    eval_filter,
    inverse_error_covariance,
    inverse_estimate,
    loewner_less,
    riccati_sequence,
    simulate,
    spectral_loewner_less,
)
from graphkalman.filters import BLIND_TOL_SCALE
from graphkalman.seeding import generator
from graphkalman.verify import (
    joint_error_covariances,
    matrix_covariance_path,
    matrix_riccati_path,
    random_system,
    response_matrix,
)

from conftest import time_varying_cycle_system


def _observing_system(spectrum, b, sigma_tilde=1.0, horizon=1):
    """A time-invariant system that observes through ``b`` with noise ``sigma_tilde``."""
    return DynamicalSystem.from_constant(spectrum, Polynomial((1.0,)), b, 1.0, sigma_tilde, horizon)


def _blind_step_system():
    # b_1 = 1 - t/2 leaves 2.2e-16, not 0, at C_8's computed eigenvalue 2,
    # which the passband calls blind; b_2 = 1 - 0.4 t passes everywhere
    return DynamicalSystem.from_sequences(
        eigendecompose(build_shift(cycle_graph(8), "laplacian")),
        state_polys=[Polynomial((0.0, 0.25))] * 2,
        observation_polys=[Polynomial((1.0, -0.5)), Polynomial((1.0, -0.4))],
        sigmas=[0.3, 0.3],
        sigma_tildes=[0.5, 0.5],
    )


def test_error_covariances_and_dense_oracles_run_the_whole_horizon():
    # one length: no step or prefix argument to set
    for function in (inverse_error_covariance, covariance_responses, matrix_covariance_path, matrix_riccati_path):
        assert list(inspect.signature(function).parameters) == ["sys"], function.__name__
    assert list(inspect.signature(joint_error_covariances).parameters) == ["sys", "riccati"]
    assert "zero_estimate" not in graphkalman.__all__


class TestInverseEstimate:
    def test_unit_observation_returns_observation(self, c4):
        _, _, spectrum = c4
        z = generator(80).standard_normal(4)
        sys = _observing_system(spectrum, Polynomial((1.0,)))
        np.testing.assert_allclose(inverse_estimate(sys, z[None])[0], z, atol=1e-12)

    def test_zero_observation_returns_zero(self, c4):
        _, _, spectrum = c4
        z = generator(81).standard_normal(4)
        sys = _observing_system(spectrum, Polynomial.zero())
        np.testing.assert_array_equal(inverse_estimate(sys, z[None])[0], np.zeros(4))

    def test_singular_response_zeroes_that_eigenplane(self, c4):
        # 1 - t/2 vanishes at eigenvalue 2 of the cycle-4 Laplacian, so the
        # middle eigenplane is dropped and the rest divided by the response
        _, _, spectrum = c4
        b = Polynomial((1.0, -0.5))
        z = generator(82).standard_normal(4)
        estimate = inverse_estimate(_observing_system(spectrum, b), z[None])[0]
        u = spectrum.eigenvectors
        coefficients = u.T @ estimate
        raw = u.T @ z
        responses = np.atleast_1d(b(spectrum.eigenvalues))
        np.testing.assert_allclose(coefficients[0], raw[0] / responses[0], atol=1e-12)
        np.testing.assert_allclose(coefficients[1:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(coefficients[3], raw[3] / responses[3], atol=1e-12)

    def test_batch_columns(self, c4):
        _, _, spectrum = c4
        z = generator(83).standard_normal((4, 5))
        sys = _observing_system(spectrum, Polynomial((1.0, 0.25)), horizon=5)
        batched = inverse_estimate(sys, z.T).T
        single = inverse_estimate(sys, z[:, 2][None])[0]
        np.testing.assert_allclose(batched[:, 2], single, atol=1e-14)

    @pytest.mark.parametrize(
        "make_system",
        [lambda: time_varying_cycle_system(12, 8), lambda: random_system(generator(84), n_max=8, steps=6)],
        ids=["time-varying", "time-invariant"],
    )
    def test_stack_equals_its_trials_bit_for_bit(self, make_system):
        sys = make_system()
        observations = simulate(sys, [87, 88, 89]).observations
        stacked = inverse_estimate(sys, observations)
        assert stacked.shape == observations.shape
        for t, rows in enumerate(observations):
            assert stacked[t].tobytes() == inverse_estimate(sys, rows).tobytes()

    def test_wrong_length_rejected(self, c4):
        _, _, spectrum = c4
        with pytest.raises(ValueError):
            inverse_estimate(_observing_system(spectrum, Polynomial((1.0,))), np.zeros((1, 5)))

    @pytest.mark.parametrize(
        "shape",
        [(4, 4), (4,), (2, 4, 4), (1, 1, 2, 4)],
        ids=["beyond-horizon", "one-dimensional", "stack-beyond-horizon", "four-dimensional"],
    )
    def test_observations_must_fit_the_system(self, c4, shape):
        sys = _observing_system(c4[2], Polynomial((1.0,)), horizon=3)
        with pytest.raises(ValueError, match="observations"):
            inverse_estimate(sys, np.zeros(shape))

    def test_time_varying_rows_match_dense_pseudo_inverse(self):
        # b_5 = 1 - t/2 is blind at eigenvalue 2 of C_12, so step 5 drops that
        # eigenplane; pinv at the passband's relative cutoff drops the same
        sys = time_varying_cycle_system(12, 8)
        observations = simulate(sys, 86).observations
        estimates = inverse_estimate(sys, observations)
        assert estimates.shape == observations.shape
        for k in range(1, sys.horizon + 1):
            b = eval_filter(sys.observation_polys[k - 1], sys.spectrum)
            expected = np.linalg.pinv(b, rcond=BLIND_TOL_SCALE) @ observations[k - 1]
            gap = np.linalg.norm(estimates[k - 1] - expected) / np.linalg.norm(expected)
            assert gap <= 1e-12, f"step {k}: relative gap {gap:.3e}"


class TestBlindFrequencies:
    """The Kalman gain, inverse filtering and its error covariance call a
    frequency blind exactly where the system's ``observed_responses`` is 0."""

    @pytest.fixture(scope="class")
    def sys(self):
        return _blind_step_system()

    def test_observed_responses_zero_the_blind_frequency_only(self, sys):
        raw, observed = sys.observation_responses, sys.observed_responses
        assert not observed.flags.writeable
        np.testing.assert_array_equal(np.argwhere(observed == 0.0), [[0, 2]])
        assert raw[0, 2] != 0.0 and abs(raw[0, 2]) < 1e-15
        np.testing.assert_array_equal(observed[observed != 0.0], raw[observed != 0.0])

    def test_gain_is_zero_exactly_where_observed_responses_is(self, sys):
        gains = riccati_sequence(sys).gain_responses
        np.testing.assert_array_equal(gains == 0.0, sys.observed_responses == 0.0)

    def test_inverse_estimate_drops_exactly_those_eigenplanes(self, sys):
        z = generator(95).standard_normal((2, 8))
        coefficients = sys.spectrum.to_spectral(inverse_estimate(sys, z))
        blind = sys.spectrum.expand(sys.observed_responses) == 0.0
        expected = sys.spectrum.to_spectral(z) / sys.spectrum.expand(sys.observation_responses)
        expected[blind] = 0.0
        assert np.count_nonzero(blind) == 2  # eigenvalue 2 has multiplicity 2
        np.testing.assert_allclose(coefficients, expected, rtol=0.0, atol=1e-12)

    def test_inverse_error_covariance_is_h_k_at_blind_frequencies(self, sys):
        # the inverse estimate is 0 there, so its error is the state itself
        hs = covariance_responses(sys)
        observed = sys.observed_responses
        blind = observed[0] == 0.0
        first, second = inverse_error_covariance(sys)
        np.testing.assert_array_equal(first[blind], hs[1][blind])
        np.testing.assert_array_equal(first[~blind], 0.25 / observed[0][~blind] ** 2)
        np.testing.assert_array_equal(second, 0.25 / observed[1] ** 2)


def test_only_the_system_decides_the_blind_frequencies():
    # filters defines passband and DynamicalSystem.observed_responses applies
    # it; the estimators read that array
    package = Path(graphkalman.__file__).parent
    callers = sorted(p.name for p in package.glob("*.py") if "passband(" in p.read_text())
    assert callers == ["dynamics.py", "filters.py"]


class TestInverseErrorCovariance:
    def test_unit_observation(self, c4):
        _, _, spectrum = c4
        responses = inverse_error_covariance(_observing_system(spectrum, Polynomial((1.0,)), 0.7, horizon=3))
        assert responses.shape == (3, spectrum.count)
        np.testing.assert_allclose(responses, 0.49, atol=1e-12)

    def test_constant_two(self, c4):
        _, _, spectrum = c4
        responses = inverse_error_covariance(_observing_system(spectrum, Polynomial.constant(2.0), 1.0))
        np.testing.assert_allclose(responses, 0.25, atol=1e-12)

    def test_values_on_cycle30(self, c30):
        _, _, spectrum = c30
        (responses,) = inverse_error_covariance(_observing_system(spectrum, Polynomial((1.0, -0.5)), 0.5))
        mu = spectrum.representatives
        expected = 0.25 / (1.0 - mu / 2.0) ** 2
        np.testing.assert_allclose(responses, expected, rtol=1e-9)

    def test_blind_frequency_reads_the_state_covariance(self, c4):
        # 1 - t/2 vanishes at eigenvalue 2 of C_4, where h_1 = a^2 h_0 + sigma^2 = 1
        _, _, spectrum = c4
        sys = _observing_system(spectrum, Polynomial((1.0, -0.5)), 0.5)
        (responses,) = inverse_error_covariance(sys)
        observed = sys.observed_responses[0]
        blind = observed == 0.0
        assert np.count_nonzero(blind) == 1
        np.testing.assert_array_equal(responses[blind], 1.0)
        np.testing.assert_array_equal(responses[blind], covariance_responses(sys)[1][blind])
        np.testing.assert_array_equal(responses[~blind], 0.25 / observed[~blind] ** 2)

    def test_time_varying_steps(self):
        # on C_30 every b_k = 1 - 0.1 k t of the first 8 steps passes everywhere
        sys = time_varying_cycle_system(30, 8)
        mu = sys.spectrum.representatives
        responses = inverse_error_covariance(sys)
        assert responses.shape == (8, sys.spectrum.count)
        for k in range(1, sys.horizon + 1):
            expected = sys.observation_noise[k - 1] ** 2 / sys.observation_polys[k - 1](mu) ** 2
            np.testing.assert_array_equal(responses[k - 1], expected)

    @pytest.mark.parametrize(
        "make_system",
        [lambda: time_varying_cycle_system(12, 8), _blind_step_system],
        ids=["time-varying", "blind-step"],
    )
    def test_rows_are_the_per_step_formula_bit_for_bit(self, make_system):
        # both systems have a blind step: b_5 = 1 - t/2 on C_12, b_1 on C_8
        sys = make_system()
        responses = inverse_error_covariance(sys)
        hs = covariance_responses(sys)
        assert responses.shape == (sys.horizon, sys.spectrum.count)
        assert np.any(sys.observed_responses == 0.0)
        for k in range(1, sys.horizon + 1):
            b = sys.observed_responses[k - 1]
            with np.errstate(divide="ignore"):
                expected = np.where(b != 0.0, sys.observation_noise[k - 1] ** 2 / b**2, hs[k])
            assert responses[k - 1].tobytes() == expected.tobytes(), f"step {k}"

    def test_overflowing_state_covariance_raises_at_its_first_step(self):
        # a = 3: h_k = (9^k - 1) / 8 passes the float64 range at step 324; the
        # observation passes everywhere, yet no row is returned, as none is
        # by covariance_responses
        sys = DynamicalSystem.from_constant(
            eigendecompose(build_shift(cycle_graph(8), "laplacian")),
            Polynomial.constant(3.0),
            Polynomial((1.0, 0.1)),
            1.0,
            1.0,
            400,
        )
        with pytest.raises(NumericalFailureError, match="not finite from step 324 on"):
            inverse_error_covariance(sys)

    def test_noise_level_whose_square_overflows_is_refused(self):
        # 1e200 squared leaves the float64 range, so no system is made on any
        # path and no recursion reads an infinite noise variance
        spectrum = eigendecompose(build_shift(cycle_graph(12), "laplacian"))
        a, b = Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5))
        for sigma, sigma_tilde, which in ((1e200, 0.5, "state"), (0.3, 1e200, "observation")):
            builds = (
                lambda: DynamicalSystem(spectrum, 5, (a,), (b,), (sigma,), (sigma_tilde,), Polynomial.zero()),
                lambda: DynamicalSystem.from_constant(spectrum, a, b, sigma, sigma_tilde, 5),
                lambda: DynamicalSystem.from_sequences(spectrum, [a] * 5, [b] * 5, [sigma] * 5, [sigma_tilde] * 5),
            )
            for build in builds:
                with pytest.raises(ValueError, match=rf"^{which} noise level must be 0 or have a finite nonzero square, got 1e\+200$"):
                    build()


class TestZeroEstimate:
    """The zero-signal strategy estimates 0, so its error covariance is the
    state covariance, ``covariance_responses``."""

    def test_first_step_error_covariance(self, c4):
        _, _, spectrum = c4
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0,)), 0.4, 1.0, 3
        )
        h1 = covariance_responses(sys)[1]
        np.testing.assert_allclose(h1, 0.16, atol=1e-12)

    def test_hundred_step_geometric_sum_oracle(self, c30):
        _, _, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100
        )
        h100 = covariance_responses(sys)[100]
        lam = sys.spectrum.eigenvalues
        ratios = (lam / 4.0) ** 2
        expected = 0.09 * np.array([np.sum(r ** np.arange(100)) for r in ratios])
        np.testing.assert_allclose(sys.spectrum.expand(h100), expected, rtol=1e-8)


class TestLoewner:
    def test_strict_example(self):
        cmp = loewner_less(np.eye(3), 2.0 * np.eye(3))
        assert cmp.verdict == "strict"
        np.testing.assert_allclose(cmp.min_eigenvalue, 1.0, atol=1e-12)

    def test_equal_operands_not_strict(self):
        cmp = loewner_less(np.eye(3), np.eye(3))
        assert cmp.verdict == "non-strict"

    def test_reversed_order_fails(self):
        cmp = loewner_less(2.0 * np.eye(3), np.eye(3))
        assert cmp.verdict == "fails"

    def test_asymmetric_rejected(self):
        bad = np.zeros((3, 3))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            loewner_less(bad, np.eye(3))

    def test_reference_system_strict_at_every_step(self, c30):
        # per-eigenvalue inequality: updated error * b^2 < observation noise^2
        _, _, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 25
        )
        errors = riccati_sequence(sys).error_responses
        inverses = inverse_error_covariance(sys)
        assert errors.shape == inverses.shape == (25, spectrum.count)
        for k, (p, inverse) in enumerate(zip(errors, inverses), start=1):
            verdict = loewner_less(response_matrix(sys, p), response_matrix(sys, inverse)).verdict
            assert verdict == "strict", f"step {k}"

    def test_matrix_and_spectral_verdicts_agree(self):
        rng = generator(85)
        for _ in range(10):
            sys = random_system(rng, n_max=10, steps=8, all_pass=True)
            riccati = riccati_sequence(sys)
            hs = covariance_responses(sys)
            for k in (1, sys.horizon):
                left = riccati.error_responses[k - 1]
                right = hs[k]
                matrix_cmp = loewner_less(response_matrix(sys, left), response_matrix(sys, right))
                spectral_cmp = spectral_loewner_less(left, right, sys.spectrum)
                assert matrix_cmp.verdict == spectral_cmp.verdict

    def test_spectral_operands_must_be_responses(self, c4):
        _, _, spectrum = c4
        with pytest.raises(ValueError, match="shape"):
            spectral_loewner_less(np.zeros(spectrum.count), np.zeros(spectrum.count + 1), spectrum)
        with pytest.raises(ValueError, match="shape"):
            spectral_loewner_less(np.zeros((1, spectrum.count)), np.zeros(spectrum.count), spectrum)


class TestCycle120Responses:
    """On C_120 the 61 distinct eigenvalues defeat monomial interpolation; the
    responses still meet their closed forms."""

    @pytest.fixture(scope="class")
    def sys(self):
        shift = build_shift(cycle_graph(120), "laplacian")
        return DynamicalSystem.from_constant(
            eigendecompose(shift), Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100
        )

    @staticmethod
    def _geometric_sum(sys, k):
        ratios = (sys.spectrum.representatives / 4.0) ** 2
        return 0.09 * np.array([np.sum(r ** np.arange(k)) for r in ratios])

    def test_covariance_responses_meet_geometric_sum(self, sys):
        hs = covariance_responses(sys)
        assert hs.shape == (101, sys.spectrum.count) and np.all(np.isfinite(hs))
        for k in (1, 10, 100):
            np.testing.assert_allclose(hs[k], self._geometric_sum(sys, k), rtol=1e-12)

    def test_inverse_error_covariance_meets_closed_form(self, sys):
        b = Polynomial((1.0, -0.2))
        (responses,) = inverse_error_covariance(_observing_system(sys.spectrum, b, 0.5))
        mu = sys.spectrum.representatives
        assert np.all(np.isfinite(responses))
        np.testing.assert_allclose(responses, 0.25 / (1.0 - 0.2 * mu) ** 2, rtol=1e-12)
