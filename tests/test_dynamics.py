import io
import math

import numpy as np
import pytest

from graphkalman import (
    DynamicalSystem,
    Graph,
    NotPositiveSemidefiniteError,
    NumericalFailureError,
    Polynomial,
    apply_filter,
    build_shift,
    covariance_responses,
    cycle_graph,
    eigendecompose,
    eval_filter,
    is_polynomial_filter,
    simulate,
    trajectory_to_csv,
)
from graphkalman.dynamics import Trajectory
from graphkalman.seeding import as_seed_sequence, child_sequence, generator
from graphkalman.verify import random_system, response_matrix, simulation_step_gaps

from conftest import plain_recursion, time_varying_cycle_system


def _cycle_system(n, a, b, sigma, sigma_tilde, horizon, h0=None):
    shift = build_shift(cycle_graph(n), "laplacian")
    return DynamicalSystem.from_constant(
        eigendecompose(shift), a, b, sigma, sigma_tilde, horizon,
        initial_covariance=h0,
    )


def _noise_block(sys, seed):
    """The trajectory's white-noise block re-drawn from its seed: row 0 for
    x_0, row 2k-1 for the process and row 2k for the observation noise of step k."""
    return generator(child_sequence(as_seed_sequence(seed), 0)).standard_normal((2 * sys.horizon + 1, sys.n))


def _dense_trajectory(sys, seed):
    """States and observations of the vertex-space recursion (Horner on the
    shift) driven by the rows of the re-drawn noise block."""
    noise = _noise_block(sys, seed)
    states = [response_matrix(sys, np.sqrt(sys.initial_model.clamped_group_variances)) @ noise[0]]
    observations = []
    for k in range(1, sys.horizon + 1):
        x = apply_filter(sys.state_poly(k), sys.shift, states[-1]) + sys.state_sigma(k) * noise[2 * k - 1]
        states.append(x)
        observations.append(apply_filter(sys.observation_poly(k), sys.shift, x) + sys.observation_sigma(k) * noise[2 * k])
    return np.array(states), np.array(observations).reshape(sys.horizon, sys.n)


def _eigenbasis_trajectory(sys, seed):
    """simulate's recursion as the plain loop x~_k = a_k x~_{k-1} + sigma_k e~_{2k-1}
    on the rotated noise block, with states and observations rotated back."""
    m = sys.horizon
    u = sys.spectrum.eigenvectors
    expand = sys.spectrum.expand
    noise = _noise_block(sys, seed) @ u
    x0 = expand(np.sqrt(sys.initial_model.clamped_group_variances)) * noise[0]
    a = np.broadcast_to(expand(sys.state_responses[:m]), (m, sys.n))
    states = plain_recursion(x0, a, np.asarray(sys.state_noise)[:m, None] * noise[1::2])
    observations = expand(sys.observation_responses[:m]) * states[1:]
    observations += np.asarray(sys.observation_noise)[:m, None] * noise[2::2]
    return states @ u.T, observations @ u.T


def _worst_relative_gap(values, expected):
    gaps = np.linalg.norm(values - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
    return float(np.max(gaps))


PATHS = ("constructor", "from_constant", "from_sequences")

# case -> (horizon, sigmas, sigma_tildes, the paths that can express it, message):
# from_constant has one entry per tuple, from_sequences counts its horizon
INVALID_SYSTEMS = {
    "horizon-2.5": (2.5, (1.0,), (1.0,), ("constructor", "from_constant"), "horizon must be an integer"),
    "negative-noise": (3, (-0.1, 1.0, 1.0), (1.0, 1.0, 1.0), PATHS, "must be finite and >= 0"),
    "nan-noise": (3, (1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), PATHS, "must be finite and >= 0"),
    "mismatched-lengths": (3, (1.0, 1.0, 1.0), (1.0, 1.0), ("constructor", "from_sequences"), "share one length"),
}


def _build(path, spectrum, horizon, sigmas, sigma_tildes, h0=Polynomial.zero()):
    """A system with a = b = 1, the given per-step noise and h_0, built along ``path``."""
    polys = (Polynomial((1.0,)),) * len(sigmas)
    if path == "constructor":
        return DynamicalSystem(spectrum, horizon, polys, polys, sigmas, sigma_tildes, h0)
    if path == "from_constant":
        return DynamicalSystem.from_constant(spectrum, polys[0], polys[0], sigmas[0], sigma_tildes[0], horizon, h0)
    return DynamicalSystem.from_sequences(spectrum, polys, polys, sigmas, sigma_tildes, h0)


class TestConstruction:
    @pytest.mark.parametrize(
        "path, case", [(path, case) for case, (*_, paths, _) in INVALID_SYSTEMS.items() for path in paths]
    )
    def test_every_path_rejects_the_same_inputs(self, c4, path, case):
        horizon, sigmas, sigma_tildes, _, message = INVALID_SYSTEMS[case]
        with pytest.raises(ValueError, match=message):
            _build(path, c4[2], horizon, sigmas, sigma_tildes)

    @pytest.mark.parametrize("path", PATHS)
    def test_non_psd_initial_covariance_rejected_on_every_path(self, path):
        # 1 - t is -3 at eigenvalue 4 of the C_8 Laplacian; built, such a system
        # would hand covariance_responses and zero_estimate negative variances
        spectrum = eigendecompose(build_shift(cycle_graph(8), "laplacian"))
        with pytest.raises(NotPositiveSemidefiniteError, match="initial covariance"):
            _build(path, spectrum, 2, (0.3, 0.3), (0.5, 0.5), h0=Polynomial((1.0, -1.0)))

    @pytest.mark.parametrize("path", PATHS)
    def test_zero_noise_builds_on_every_path(self, c4, path):
        sys = _build(path, c4[2], 3, (0.0,) * 3, (0.0,) * 3)
        assert sys.horizon == 3
        assert sys.state_sigma(3) == sys.observation_sigma(3) == 0.0

    def test_zero_noise_reference_mode(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 0.0, 0.0, 5)
        assert sys.state_sigma(1) == 0.0

    def test_negative_noise_always_rejected(self):
        with pytest.raises(ValueError):
            _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), -0.1, 1.0, 5)

    def test_step_accessors_range_checked(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 3)
        with pytest.raises(ValueError):
            sys.state_poly(0)
        with pytest.raises(ValueError):
            sys.observation_sigma(4)

    def test_time_varying_accessors(self):
        shift = build_shift(cycle_graph(4), "laplacian")
        sys = DynamicalSystem.from_sequences(
            eigendecompose(shift),
            state_polys=[Polynomial((1.0,)), Polynomial((0.0, 1.0))],
            observation_polys=[Polynomial((1.0,)), Polynomial((1.0,))],
            sigmas=[1.0, 2.0],
            sigma_tildes=[0.5, 0.5],
        )
        assert sys.horizon == 2
        assert sys.state_poly(2) == Polynomial((0.0, 1.0))
        assert sys.state_sigma(2) == 2.0

    def test_system_model_and_membership_share_one_spectrum_on_path6(self):
        # the shift, eigenbasis and eigenvalue groups all come from one handle,
        # so a C_6 shift can no longer be paired with a P_6 eigenbasis
        path = build_shift(Graph.from_edges(6, [(k, k + 1) for k in range(1, 6)]), "laplacian")
        spectrum = eigendecompose(path)
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 20,
            initial_covariance=Polynomial((0.5, 0.1)),
        )
        model = sys.initial_model
        assert sys.spectrum is spectrum and sys.shift is path
        assert model.spectrum is spectrum and model.spectrum.shift is path
        assert is_polynomial_filter(0.25 * sys.shift.matrix, spectrum).is_member
        cycle = build_shift(cycle_graph(6), "laplacian")
        assert not is_polynomial_filter(cycle.matrix, spectrum).is_member
        assert max(simulation_step_gaps(sys, simulate(sys, 11))) <= 1e-12


class TestStepState:
    """State transitions of ``simulate``, against the re-drawn noise rows."""

    def test_zero_dynamics_is_pure_noise(self):
        sys = _cycle_system(4, Polynomial.zero(), Polynomial((1.0,)), 1.0, 1.0, 3, h0=Polynomial((1.0,)))
        noise = _noise_block(sys, 50)
        trajectory = simulate(sys, 50)
        np.testing.assert_allclose(trajectory.states[1:], noise[1::2], rtol=0.0, atol=1e-14)

    def test_identity_dynamics_zero_noise_keeps_state(self):
        sys = _cycle_system(
            4, Polynomial((1.0,)), Polynomial((1.0,)), 0.0, 0.0, 3, h0=Polynomial((1.0, 0.5))
        )
        trajectory = simulate(sys, 51)
        assert np.linalg.norm(trajectory.states[0]) > 0.0
        np.testing.assert_array_equal(trajectory.states, np.tile(trajectory.states[0], (4, 1)))

    def test_dense_oracle_on_cycle30(self, c30):
        _, shift, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 10
        )
        noise = _noise_block(sys, 53)
        trajectory = simulate(sys, 53)
        dense = trajectory.states[:-1] @ (shift.matrix / 4.0).T + 0.3 * noise[1::2]
        np.testing.assert_allclose(trajectory.states[1:], dense, rtol=0.0, atol=1e-12)

    def test_out_of_range_step(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 3)
        with pytest.raises(ValueError):
            sys.response_row(4)


class TestObserve:
    """Observations of ``simulate``, against the re-drawn noise rows."""

    def test_identity_observation_zero_noise(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 0.0, 3)
        trajectory = simulate(sys, 54)
        np.testing.assert_allclose(trajectory.observations, trajectory.states[1:], rtol=0.0, atol=1e-14)

    def test_zero_observation_is_pure_noise(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial.zero(), 1.0, 2.0, 3)
        noise = _noise_block(sys, 55)
        trajectory = simulate(sys, 55)
        np.testing.assert_allclose(trajectory.observations, 2.0 * noise[2::2], rtol=0.0, atol=1e-14)

    def test_observation_matrix_is_half_adjacency(self, c30):
        # b(t) = 1 - t/2 on the cycle Laplacian realizes W/2
        graph, shift, spectrum = c30
        b_matrix = eval_filter(Polynomial((1.0, -0.5)), spectrum)
        np.testing.assert_allclose(b_matrix, graph.weight_matrix / 2.0, atol=1e-12)

    def test_dense_oracle(self, c30):
        graph, shift, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 10
        )
        noise = _noise_block(sys, 57)
        trajectory = simulate(sys, 57)
        dense = trajectory.states[1:] @ (graph.weight_matrix / 2.0).T + 0.5 * noise[2::2]
        np.testing.assert_allclose(trajectory.observations, dense, rtol=0.0, atol=1e-12)


class TestCovarianceRecursion:
    def test_first_step_from_zero(self):
        sys = _cycle_system(4, Polynomial((0.2, 0.4)), Polynomial((1.0,)), 1.0, 1.0, 1)
        h1 = covariance_responses(sys)[1]
        np.testing.assert_allclose(h1, 1.0, atol=1e-12)

    def test_zero_dynamics_keeps_noise_floor(self):
        sys = _cycle_system(4, Polynomial.zero(), Polynomial((1.0,)), 0.5, 1.0, 1, h0=Polynomial((0.7,)))
        h = covariance_responses(sys)[1]
        np.testing.assert_allclose(h, 0.25, atol=1e-12)

    def test_three_step_geometric_sum_oracle(self):
        sys = _cycle_system(4, Polynomial((0.0, 0.25)), Polynomial((1.0,)), 0.3, 0.5, 3)
        hs = covariance_responses(sys)
        lam = np.array([0.0, 2.0, 4.0])
        expected = 0.09 * (1.0 + (lam / 4.0) ** 2 + (lam / 4.0) ** 4)
        np.testing.assert_allclose(hs[3], expected, atol=1e-12)

    def test_upto_range_checked(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 3)
        assert covariance_responses(sys, upto=2).shape == (3, 3)
        with pytest.raises(ValueError):
            covariance_responses(sys, upto=4)

    def test_overflowing_covariance_raises_at_its_first_step(self):
        # a = 3: h_k = (9^k - 1) / 8 passes the float64 range at step 324
        sys = _cycle_system(8, Polynomial.constant(3.0), Polynomial((1.0, -0.5)), 1.0, 1.0, 400)
        with pytest.raises(NumericalFailureError, match="not finite from step 324 on"):
            covariance_responses(sys)

    def test_matrix_propagation_agreement(self):
        rng = generator(58)
        for _ in range(8):
            sys = random_system(rng, n_max=10, steps=20)
            hs = covariance_responses(sys)
            cov = response_matrix(sys, hs[0])
            for k in range(1, sys.horizon + 1):
                a = eval_filter(sys.state_poly(k), sys.spectrum)
                cov = a @ cov @ a.T + sys.state_sigma(k) ** 2 * np.eye(sys.n)
                gap = np.linalg.norm(cov - response_matrix(sys, hs[k]))
                assert gap <= 1e-8


class TestSimulate:
    def test_zero_horizon(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 0)
        trajectory = simulate(sys, 1)
        assert trajectory.states.shape == (1, 4)
        assert trajectory.observations.shape == (0, 4)

    def test_all_zero_reference_mode(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 0.0, 0.0, 5)
        trajectory = simulate(sys, 2)
        np.testing.assert_array_equal(trajectory.states, 0.0)
        np.testing.assert_array_equal(trajectory.observations, 0.0)

    def test_deterministic_given_seed(self):
        sys = _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12)
        t1 = simulate(sys, 99)
        t2 = simulate(sys, 99)
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.observations, t2.observations)

    def test_noise_streams_rederivable(self):
        # one block per trajectory; rounding happens in the eigenbasis, so
        # each step matches its vertex-space form to 1e-12, not bit for bit
        sys = random_system(generator(59), n_max=8, steps=10, zero_initial=False)
        trajectory = simulate(sys, 4242)
        assert max(simulation_step_gaps(sys, trajectory)) <= 1e-12

    def test_cycle120_matches_dense_recursion(self):
        sys = _cycle_system(120, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100)
        trajectory = simulate(sys, 120)
        states, observations = _dense_trajectory(sys, 120)
        assert _worst_relative_gap(trajectory.states[1:], states[1:]) <= 1e-12
        assert _worst_relative_gap(trajectory.observations, observations) <= 1e-12

    def test_time_varying_system_matches_dense_recursion(self):
        sys = time_varying_cycle_system(10, 10)
        assert not sys.time_invariant
        trajectory = simulate(sys, 61)
        states, observations = _dense_trajectory(sys, 61)
        assert _worst_relative_gap(trajectory.states, states) <= 1e-12
        assert _worst_relative_gap(trajectory.observations, observations) <= 1e-12

    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: random_system(generator(58), n_max=8, steps=12, zero_initial=False),
            lambda: time_varying_cycle_system(10, 10),
            lambda: _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 0),
        ],
        ids=["time-invariant", "time-varying", "zero-horizon"],
    )
    def test_in_place_loop_matches_plain_recursion_bit_for_bit(self, make_system):
        sys = make_system()
        trajectory = simulate(sys, 57)
        states, observations = _eigenbasis_trajectory(sys, 57)
        np.testing.assert_array_equal(trajectory.states, states)
        np.testing.assert_array_equal(trajectory.observations, observations)

    def test_per_step_state_energy_tracks_covariance_trace(self, c30):
        # Monte-Carlo over 30 trials at the default configuration
        _, _, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100
        )
        hs = covariance_responses(sys)
        trials = 30
        energies = []
        for t in range(trials):
            trajectory = simulate(sys, np.random.SeedSequence(60, spawn_key=(t,)))
            energies.append([np.sum(trajectory.states[k] ** 2) for k in (10, 50, 100)])
        energies = np.array(energies)
        for column, k in enumerate((10, 50, 100)):
            expected = float(np.sum(sys.spectrum.expand(hs[k])))
            observed = energies[:, column]
            stderr = np.std(observed, ddof=1) / np.sqrt(trials)
            assert abs(np.mean(observed) - expected) <= 3.0 * stderr


class TestStackedSimulate:
    """``simulate`` on a sequence of seeds: trial t is what seed t gives alone, bit for bit."""

    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: random_system(generator(58), n_max=8, steps=12, zero_initial=False),
            lambda: time_varying_cycle_system(10, 10),
            lambda: _cycle_system(30, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100),
        ],
        ids=["nonzero-h0", "time-varying", "paper-cell"],
    )
    @pytest.mark.parametrize("trials", [1, 3])
    def test_each_trial_equals_its_own_simulation(self, make_system, trials):
        sys = make_system()
        seeds = [np.random.SeedSequence(62, spawn_key=(t,)) for t in range(trials)]
        stack = simulate(sys, seeds)
        assert stack.states.shape == (trials, sys.horizon + 1, sys.n)
        assert stack.observations.shape == (trials, sys.horizon, sys.n)
        assert stack.horizon == sys.horizon
        assert stack.seed == tuple(seeds)
        for t, seed in enumerate(seeds):
            single = simulate(sys, seed)
            assert stack.states[t].tobytes() == single.states.tobytes()
            assert stack.observations[t].tobytes() == single.observations.tobytes()

    def test_nonzero_initial_covariance_drives_the_first_state(self):
        sys = random_system(generator(58), n_max=8, steps=12, zero_initial=False)
        assert np.any(sys.initial_model.group_variances > 0)
        assert np.any(simulate(sys, [1, 2]).states[:, 0] != 0.0)

    def test_a_single_seed_gives_one_trajectory(self):
        sys = _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12)
        trajectory = simulate(sys, 99)
        assert trajectory.states.shape == (13, 6)
        assert isinstance(trajectory.seed, np.random.SeedSequence) and trajectory.seed.entropy == 99

    def test_an_array_of_seeds_is_a_stack(self):
        # numpy would take a 1-D array as one seed's entropy; simulate takes it as a list
        sys = _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12)
        from_array, from_list = simulate(sys, np.arange(3)), simulate(sys, [0, 1, 2])
        assert from_array.states.shape == (3, 13, 6)
        assert from_array.states.tobytes() == from_list.states.tobytes()
        assert from_array.observations.tobytes() == from_list.observations.tobytes()

    def test_stack_shapes_must_agree(self):
        with pytest.raises(ValueError, match="one more row"):
            Trajectory(states=np.zeros((2, 4, 3)), observations=np.zeros((3, 3, 3)), seed=())

    @pytest.mark.parametrize("seeds", [7, [7, 8, 9]], ids=["one", "stack"])
    def test_overflowing_trajectory_raises_at_its_first_step(self, seeds):
        # a = 1e200: x~_2 = 1e200 x~_1 + e~ is finite, x~_3 ~ 1e400 x~_1 is not
        sys = _cycle_system(6, Polynomial.constant(1e200), Polynomial((1.0,)), 1.0, 1.0, 5)
        with pytest.raises(NumericalFailureError, match="simulated trajectory is not finite from step 3 on"):
            simulate(sys, seeds)


class TestCsvExport:
    def test_header_and_row_count(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 3)
        trajectory = simulate(sys, 7)
        buffer = io.StringIO()
        trajectory_to_csv(trajectory, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "k,vertex,x,z"
        assert len(lines) == 1 + 4 * (3 + 1)
        assert lines[1].startswith("0,1,") and lines[1].endswith(",")

    def test_deterministic_bytes(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 3)
        buffers = []
        for _ in range(2):
            buffer = io.StringIO()
            trajectory_to_csv(simulate(sys, 7), buffer)
            buffers.append(buffer.getvalue())
        assert buffers[0] == buffers[1]
