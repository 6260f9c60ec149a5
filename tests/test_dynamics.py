import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import graphkalman
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
    inverse_estimate,
    is_polynomial_filter,
    relative_error_metric,
    simulate,
)
from graphkalman import kalman
from graphkalman.dynamics import Trajectory, require_finite_steps
from graphkalman.experiment import ExperimentConfig, TraceSpec
from graphkalman.seeding import as_seed_sequence, child_sequence, generator
from graphkalman.verify import matrix_covariance_path, random_system, response_matrix, simulation_step_gaps

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
        x = apply_filter(sys.state_polys[k - 1], sys.shift, states[-1]) + sys.state_noise[k - 1] * noise[2 * k - 1]
        states.append(x)
        read = apply_filter(sys.observation_polys[k - 1], sys.shift, x)
        observations.append(read + sys.observation_noise[k - 1] * noise[2 * k])
    return np.array(states), np.array(observations).reshape(sys.horizon, sys.n)


def _eigenbasis_trajectory(sys, seed):
    """simulate's recursion as the plain loop x~_k = a_k x~_{k-1} + sigma_k e~_{2k-1}
    on the rotated noise block, with states and observations rotated back."""
    m = sys.horizon
    u = sys.spectrum.eigenvectors
    expand = sys.spectrum.expand
    noise = _noise_block(sys, seed) @ u
    x0 = expand(np.sqrt(sys.initial_model.clamped_group_variances)) * noise[0]
    states = plain_recursion(x0, expand(sys.state_responses), np.asarray(sys.state_noise)[:, None] * noise[1::2])
    observations = expand(sys.observation_responses) * states[1:]
    observations += np.asarray(sys.observation_noise)[:, None] * noise[2::2]
    return states @ u.T, observations @ u.T


def _worst_relative_gap(values, expected):
    gaps = np.linalg.norm(values - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
    return float(np.max(gaps))


PATHS = ("constructor", "from_constant", "from_sequences")

# noise level -> message: what every path refuses as sigma or sigma_tilde,
# and what the config refuses in a grid or the trace
REFUSED_NOISE_LEVELS = {
    "boolean": (True, "must be a number, got True"),
    "string": ("0.5", "must be a number, got '0.5'"),
    "square-overflows": (1e200, r"must be 0 or have a finite square of at least 2\.225e-308, got 1e\+200"),
    "square-underflows": (1e-200, r"must be 0 or have a finite square of at least 2\.225e-308, got 1e-200"),
    "square-subnormal": (1e-158, r"must be 0 or have a finite square of at least 2\.225e-308, got 1e-158"),
}

# case -> (horizon, sigmas, sigma_tildes, the paths that can express it, message):
# from_constant has one entry per tuple, from_sequences counts its horizon
INVALID_SYSTEMS = {
    "horizon-2.5": (2.5, (1.0,), (1.0,), ("constructor", "from_constant"), "horizon must be an integer"),
    "negative-noise": (3, (-0.1, 1.0, 1.0), (1.0, 1.0, 1.0), PATHS, "must be finite and >= 0"),
    "nan-noise": (3, (1.0, 1.0, 1.0), (math.nan, 1.0, 1.0), PATHS, "must be finite and >= 0"),
    "mismatched-lengths": (3, (1.0, 1.0, 1.0), (1.0, 1.0), ("constructor", "from_sequences"), "share one length"),
    **{
        f"{case}-sigma": (3, (level, 1.0, 1.0), (1.0, 1.0, 1.0), PATHS, f"^state noise level {message}")
        for case, (level, message) in REFUSED_NOISE_LEVELS.items()
    },
    **{
        f"{case}-sigma-tilde": (3, (1.0, 1.0, 1.0), (level, 1.0, 1.0), PATHS, f"^observation noise level {message}")
        for case, (level, message) in REFUSED_NOISE_LEVELS.items()
    },
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

    @pytest.mark.parametrize("level, message", REFUSED_NOISE_LEVELS.values(), ids=REFUSED_NOISE_LEVELS.keys())
    def test_config_refuses_the_noise_levels_a_system_refuses(self, level, message):
        builds = (
            lambda: ExperimentConfig(sigma_grid=[level]),
            lambda: ExperimentConfig(sigma_tilde_grid=(0.5, level)),
            lambda: TraceSpec(sigma=level),
            lambda: TraceSpec(sigma_tilde=level),
        )
        for build in builds:
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("path", PATHS)
    def test_every_path_lays_out_one_entry_per_step(self, c4, path):
        sys = _build(path, c4[2], 3, (0.5,) * 3, (np.float64(0.25),) * 3)
        entries = (sys.state_polys, sys.observation_polys, sys.state_noise, sys.observation_noise)
        assert all(type(values) is tuple and len(values) == 3 for values in entries)
        assert all(type(sigma) is float for sigma in (*sys.state_noise, *sys.observation_noise))
        assert sys.time_invariant
        for responses in (sys.state_responses, sys.observation_responses, sys.observed_responses):
            assert responses.shape == (3, c4[2].count) and not responses.flags.writeable

    def test_polynomial_inputs_are_made_by_the_polynomial_rule(self):
        # a sequence of numbers is made a Polynomial, as the config makes a and b
        spectrum = eigendecompose(build_shift(cycle_graph(12), "laplacian"))
        one = Polynomial((1.0,))
        given = DynamicalSystem(spectrum, 3, ((0.0, 0.25),), (one,), (0.3,), (0.5,), Polynomial.zero())
        made = DynamicalSystem(spectrum, 3, (Polynomial((0.0, 0.25)),), (one,), (0.3,), (0.5,), Polynomial.zero())
        assert given.state_polys == (Polynomial((0.0, 0.25)),) * 3 and given.time_invariant
        for name in ("state_responses", "observation_responses", "observed_responses"):
            assert getattr(given, name).tobytes() == getattr(made, name).tobytes()
        assert kalman.riccati_sequence(given).error_responses.tobytes() == kalman.riccati_sequence(made).error_responses.tobytes()
        sys = DynamicalSystem.from_constant(spectrum, one, one, 0.3, 0.5, 3, initial_covariance=(0.5,))
        assert sys.initial_covariance == Polynomial((0.5,))

    @pytest.mark.parametrize("field", ["state polynomial", "observation polynomial", "initial covariance"])
    def test_polynomial_input_the_rule_refuses_names_its_field(self, c4, field):
        one = Polynomial((1.0,))
        polys = {"state polynomial": one, "observation polynomial": one, "initial covariance": Polynomial.zero()}
        polys[field] = "12"
        with pytest.raises(ValueError, match=f"^{field}: coefficients must be a sequence of numbers, got '12'$"):
            DynamicalSystem(
                c4[2], 2, (polys["state polynomial"],), (polys["observation polynomial"],), (0.3,), (0.5,),
                polys["initial covariance"],
            )

    @pytest.mark.parametrize("path", PATHS)
    def test_non_psd_initial_covariance_rejected_on_every_path(self, path):
        # 1 - t is -3 at eigenvalue 4 of the C_8 Laplacian; built, such a system
        # would hand covariance_responses and the Riccati recursion negative variances
        spectrum = eigendecompose(build_shift(cycle_graph(8), "laplacian"))
        with pytest.raises(NotPositiveSemidefiniteError, match="initial covariance"):
            _build(path, spectrum, 2, (0.3, 0.3), (0.5, 0.5), h0=Polynomial((1.0, -1.0)))

    @pytest.mark.parametrize("path", PATHS)
    def test_zero_noise_builds_on_every_path(self, c4, path):
        sys = _build(path, c4[2], 3, (0.0,) * 3, (0.0,) * 3)
        assert sys.horizon == 3
        assert sys.state_noise == sys.observation_noise == (0.0,) * 3

    def test_zero_noise_reference_mode(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 0.0, 0.0, 5)
        assert sys.state_noise[0] == 0.0

    def test_negative_noise_always_rejected(self):
        with pytest.raises(ValueError):
            _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), -0.1, 1.0, 5)

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
        assert sys.state_polys[1] == Polynomial((0.0, 1.0))
        assert sys.state_noise[1] == 2.0

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
        assert max(simulation_step_gaps(sys, simulate(sys, [11]))) <= 1e-12


class TestStepState:
    """State transitions of ``simulate``, against the re-drawn noise rows."""

    def test_zero_dynamics_is_pure_noise(self):
        sys = _cycle_system(4, Polynomial.zero(), Polynomial((1.0,)), 1.0, 1.0, 3, h0=Polynomial((1.0,)))
        noise = _noise_block(sys, 50)
        trajectory = simulate(sys, [50])
        np.testing.assert_allclose(trajectory.states[0, 1:], noise[1::2], rtol=0.0, atol=1e-14)

    def test_identity_dynamics_zero_noise_keeps_state(self):
        sys = _cycle_system(
            4, Polynomial((1.0,)), Polynomial((1.0,)), 0.0, 0.0, 3, h0=Polynomial((1.0, 0.5))
        )
        states = simulate(sys, [51]).states[0]
        assert np.linalg.norm(states[0]) > 0.0
        np.testing.assert_array_equal(states, np.tile(states[0], (4, 1)))

    def test_dense_oracle_on_cycle30(self, c30):
        _, shift, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 10
        )
        noise = _noise_block(sys, 53)
        states = simulate(sys, [53]).states[0]
        dense = states[:-1] @ (shift.matrix / 4.0).T + 0.3 * noise[1::2]
        np.testing.assert_allclose(states[1:], dense, rtol=0.0, atol=1e-12)


class TestObserve:
    """Observations of ``simulate``, against the re-drawn noise rows."""

    def test_identity_observation_zero_noise(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 0.0, 3)
        trajectory = simulate(sys, [54])
        np.testing.assert_allclose(trajectory.observations, trajectory.states[:, 1:], rtol=0.0, atol=1e-14)

    def test_zero_observation_is_pure_noise(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial.zero(), 1.0, 2.0, 3)
        noise = _noise_block(sys, 55)
        trajectory = simulate(sys, [55])
        np.testing.assert_allclose(trajectory.observations[0], 2.0 * noise[2::2], rtol=0.0, atol=1e-14)

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
        trajectory = simulate(sys, [57])
        dense = trajectory.states[0, 1:] @ (graph.weight_matrix / 2.0).T + 0.5 * noise[2::2]
        np.testing.assert_allclose(trajectory.observations[0], dense, rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize(
        "make_system",
        [
            lambda: _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12, h0=Polynomial((0.5, 0.1))),
            lambda: time_varying_cycle_system(10, 10),
        ],
        ids=["time-invariant", "time-varying"],
    )
    def test_in_place_loop_matches_plain_recursion_bit_for_bit(self, make_system):
        sys = make_system()
        shape = (sys.horizon, sys.spectrum.count)
        carry = np.broadcast_to(sys.state_responses**2, shape)
        drive = np.broadcast_to(np.array([sigma**2 for sigma in sys.state_noise])[:, None], shape)
        expected = plain_recursion(sys.initial_model.clamped_group_variances, carry, drive)
        assert covariance_responses(sys).tobytes() == expected.tobytes()

    def test_overflowing_covariance_raises_at_its_first_step(self):
        # a = 3: h_k = (9^k - 1) / 8 passes the float64 range at step 324
        sys = _cycle_system(8, Polynomial.constant(3.0), Polynomial((1.0, -0.5)), 1.0, 1.0, 400)
        with pytest.raises(NumericalFailureError, match="not finite from step 324 on"):
            covariance_responses(sys)

    def test_matrix_propagation_agreement(self):
        rng = generator(58)
        for _ in range(8):
            sys = random_system(rng, n_max=10, steps=20)
            for response, cov in zip(covariance_responses(sys), matrix_covariance_path(sys), strict=True):
                gap = np.linalg.norm(cov - response_matrix(sys, response))
                assert gap <= 1e-8


def test_one_per_step_layout():
    # the constructor lays out one entry per step, so no reader maps a step
    # to an entry, and only the Riccati recursion's stop asks whether every
    # step has the first step's inputs
    package = Path(graphkalman.__file__).parent
    sources = {p.name: p.read_text() for p in package.glob("*.py")}
    retired = re.compile(r"response_row|\b(state|observation)_(poly|sigma)\(|itertools import [^\n]*\brepeat\b|itertools\.repeat")
    assert [name for name, text in sources.items() if retired.search(text)] == []
    readers = {name: text.count(".time_invariant") for name, text in sources.items() if ".time_invariant" in text}
    assert readers == {"kalman.py": 1}
    assert ".time_invariant" in inspect.getsource(kalman.riccati_sequence)


def test_one_first_order_loop():
    # propagate is the one in-place recursion; the state covariance, simulate
    # and run_filter call it rather than writing the loop again
    package = Path(graphkalman.__file__).parent
    counts = {p.name: p.read_text().count("* previous") for p in package.glob("*.py")}
    assert {name: count for name, count in counts.items() if count} == {"dynamics.py": 1}


def test_one_trajectory_shape():
    # simulate, Trajectory, inverse_estimate and relative_error_metric take
    # (T, ., n) stacks only, so no code branches on a single trajectory
    package = Path(graphkalman.__file__).parent
    retired = re.compile(r"ndim not in \(2, 3\)|\bstacked\s*[=:]")
    assert [p.name for p in package.glob("*.py") if retired.search(p.read_text())] == []


# case -> (call on a 4-vertex system and (3, 4) rows of one trajectory, message)
ONE_TRAJECTORY_CALLS = {
    "simulate-bare-seed": (
        lambda sys, rows: simulate(sys, 7),
        r"list, tuple, range or 1-D array, one per trial of a \(T, M \+ 1, n\) stack, got 7$",
    ),
    "trajectory-2d": (
        lambda sys, rows: Trajectory(states=np.zeros((4, 4)), observations=rows, seed=(as_seed_sequence(7),)),
        r"must be \(T, M \+ 1, n\) and \(T, M, n\), got \(4, 4\) and \(3, 4\)$",
    ),
    "inverse-2d": (lambda sys, rows: inverse_estimate(sys, rows), r"shape \(3, 4\), expected \(T, m, 4\)"),
    "metric-2d": (lambda sys, rows: relative_error_metric(rows, rows), r"expected equal \(T, m, n\) shapes"),
}


@pytest.mark.parametrize("case", ONE_TRAJECTORY_CALLS)
def test_a_single_trajectory_is_refused(case):
    call, message = ONE_TRAJECTORY_CALLS[case]
    sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 3)
    with pytest.raises(ValueError, match=message):
        call(sys, np.zeros((3, 4)))


@pytest.mark.parametrize("first_step", [0, 1])
def test_first_bad_step_is_named_across_trials(first_step):
    # only trial 2 of the stack goes non-finite, from row 3 on; trials 0 and 1
    # are finite throughout
    values = np.ones((3, 6, 4))
    values[2, 3:, 1] = np.inf
    values[2, 4, 0] = np.nan
    with pytest.raises(NumericalFailureError, match=f"^x is not finite from step {first_step + 3} on$"):
        require_finite_steps(values, "x", first_step=first_step)
    require_finite_steps(values[:2], "x", first_step=first_step)


class TestSimulate:
    def test_zero_horizon(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, 0)
        trajectory = simulate(sys, [1])
        assert trajectory.states.shape == (1, 1, 4)
        assert trajectory.observations.shape == (1, 0, 4)

    def test_all_zero_reference_mode(self):
        sys = _cycle_system(4, Polynomial((1.0,)), Polynomial((1.0,)), 0.0, 0.0, 5)
        trajectory = simulate(sys, [2])
        np.testing.assert_array_equal(trajectory.states, 0.0)
        np.testing.assert_array_equal(trajectory.observations, 0.0)

    def test_deterministic_given_seed(self):
        sys = _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12)
        t1 = simulate(sys, [99])
        t2 = simulate(sys, [99])
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.observations, t2.observations)

    def test_noise_streams_rederivable(self):
        # one block per trajectory; rounding happens in the eigenbasis, so
        # each step matches its vertex-space form to 1e-12, not bit for bit
        sys = random_system(generator(59), n_max=8, steps=10, zero_initial=False)
        trajectory = simulate(sys, [4242, 4243])
        assert max(simulation_step_gaps(sys, trajectory)) <= 1e-12

    def test_cycle120_matches_dense_recursion(self):
        sys = _cycle_system(120, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100)
        trajectory = simulate(sys, [120])
        states, observations = _dense_trajectory(sys, 120)
        assert _worst_relative_gap(trajectory.states[0, 1:], states[1:]) <= 1e-12
        assert _worst_relative_gap(trajectory.observations[0], observations) <= 1e-12

    def test_time_varying_system_matches_dense_recursion(self):
        sys = time_varying_cycle_system(10, 10)
        assert not sys.time_invariant
        trajectory = simulate(sys, [61])
        states, observations = _dense_trajectory(sys, 61)
        assert _worst_relative_gap(trajectory.states[0], states) <= 1e-12
        assert _worst_relative_gap(trajectory.observations[0], observations) <= 1e-12

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
        trajectory = simulate(sys, [57])
        states, observations = _eigenbasis_trajectory(sys, 57)
        np.testing.assert_array_equal(trajectory.states[0], states)
        np.testing.assert_array_equal(trajectory.observations[0], observations)

    def test_per_step_state_energy_tracks_covariance_trace(self, c30):
        # Monte-Carlo over 30 trials at the default configuration
        _, _, spectrum = c30
        sys = DynamicalSystem.from_constant(
            spectrum, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 100
        )
        hs = covariance_responses(sys)
        trials = 30
        trajectory = simulate(sys, [np.random.SeedSequence(60, spawn_key=(t,)) for t in range(trials)])
        energies = np.sum(trajectory.states[:, (10, 50, 100)] ** 2, axis=2)
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
            single = simulate(sys, [seed])
            assert stack.states[t].tobytes() == single.states[0].tobytes()
            assert stack.observations[t].tobytes() == single.observations[0].tobytes()

    def test_nonzero_initial_covariance_drives_the_first_state(self):
        sys = random_system(generator(58), n_max=8, steps=12, zero_initial=False)
        assert np.any(sys.initial_model.group_variances > 0)
        assert np.any(simulate(sys, [1, 2]).states[:, 0] != 0.0)

    def test_a_stack_of_one_holds_its_seed_in_a_tuple(self):
        sys = _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12)
        trajectory = simulate(sys, [99])
        assert trajectory.states.shape == (1, 13, 6)
        assert isinstance(trajectory.seed, tuple) and [seed.entropy for seed in trajectory.seed] == [99]

    def test_an_array_of_seeds_is_a_stack(self):
        # numpy would take a 1-D array as one seed's entropy; simulate takes it as a list
        sys = _cycle_system(6, Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, 12)
        from_array, from_list = simulate(sys, np.arange(3)), simulate(sys, [0, 1, 2])
        assert from_array.states.shape == (3, 13, 6)
        assert from_array.states.tobytes() == from_list.states.tobytes()
        assert from_array.observations.tobytes() == from_list.observations.tobytes()

    def test_stack_shapes_must_agree(self):
        with pytest.raises(ValueError, match=r"must be \(T, M \+ 1, n\) and \(T, M, n\)"):
            Trajectory(states=np.zeros((2, 4, 3)), observations=np.zeros((3, 3, 3)), seed=())

    @pytest.mark.parametrize("seeds", [[7], [7, 8, 9]], ids=["one", "stack"])
    def test_overflowing_trajectory_raises_at_its_first_step(self, seeds):
        # a = 1e200: x~_2 = 1e200 x~_1 + e~ is finite, x~_3 ~ 1e400 x~_1 is not
        sys = _cycle_system(6, Polynomial.constant(1e200), Polynomial((1.0,)), 1.0, 1.0, 5)
        with pytest.raises(NumericalFailureError, match="simulated trajectory is not finite from step 3 on"):
            simulate(sys, seeds)

