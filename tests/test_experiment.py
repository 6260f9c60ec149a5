"""The cycle-graph experiment and the command-line interface on tiny configurations."""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphkalman
from graphkalman import (
    DynamicalSystem,
    ExperimentConfig,
    NumericalFailureError,
    Polynomial,
    SingularGainError,
    build_shift,
    cycle_graph,
    eigendecompose,
    inverse_estimate,
    relative_error_metric,
    run_filter,
    run_heatmap,
    run_trace,
    simulate,
    trajectory_to_csv,
)
from graphkalman.cli import main
from graphkalman import cli, experiment, kalman
from graphkalman.experiment import (
    METRIC_FLOOR,
    TraceSpec,
    trace_trajectory,
    write_heatmap_csv,
    write_trace_csvs,
)
from graphkalman.seeding import generator
from graphkalman.verify import random_polynomial, random_shift

from conftest import full_riccati_sequence, time_varying_cycle_system

# C_30 has no eigenvalue 2, where the observation response 1 - t/2 vanishes,
# so sigma_tilde = 0 is exact inversion at every frequency; sigma = 0 with a
# zero initial state gives a flagged row.
TINY = {"n": 30, "m": 20, "trials": 2, "sigma_grid": (0.0, 0.5), "sigma_tilde_grid": (0.0, 0.5), "seed": 3}
CLI_CONFIG = {"n": 10, "m": 5, "trials": 2, "sigma_grid": [0.0, 0.5], "sigma_tilde_grid": [0.5], "seed": 1}
# an unstable state filter (a = 1.5) and no blind frequency: every trajectory overflows
UNSTABLE_CONFIG = {"n": 12, "m": 2000, "a": [1.5], "b": [1.0], "trace": {"sigma": 0.3, "sigma_tilde": 0.5, "vertex": 1}}


@pytest.fixture(scope="module")
def tiny_heatmap():
    return run_heatmap(ExperimentConfig(**TINY))


def _config_file(tmp_path, payload=CLI_CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _c4_system():
    return DynamicalSystem.from_constant(
        eigendecompose(build_shift(cycle_graph(4), "laplacian")),
        Polynomial((1.0,)), Polynomial((1.0,)), 1.0, 1.0, horizon=3,
    )


def _csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


class TestHeatmap:
    def test_table_shape_trials_and_flags(self, tiny_heatmap):
        for name in ("kalman", "inverse", "kalman_sem", "inverse_sem", "n_trials", "flagged"):
            assert getattr(tiny_heatmap, name).shape == (2, 2), name
        np.testing.assert_array_equal(tiny_heatmap.n_trials, [[0, 0], [2, 2]])
        np.testing.assert_array_equal(tiny_heatmap.flagged, [[True, True], [False, False]])
        assert np.all(np.isnan(tiny_heatmap.kalman[0]))
        assert np.all(np.isfinite(tiny_heatmap.kalman[1])) and np.all(np.isfinite(tiny_heatmap.inverse[1]))

    def test_exact_inversion_column_reads_the_metric_floor(self, tiny_heatmap):
        assert tiny_heatmap.kalman[1, 0] == METRIC_FLOOR

    def test_cell_without_a_gain_is_flagged_and_the_rest_filled(self):
        # on C_12 the observation response 1 - t/2 is blind at eigenvalue 2,
        # so sigma_tilde = 0 has no Kalman gain; only that cell is left out
        result = run_heatmap(ExperimentConfig(n=12, m=20, trials=5, seed=1, sigma_grid=(0.3,), sigma_tilde_grid=(0.0, 0.5)))
        np.testing.assert_array_equal(result.flagged, [[True, False]])
        np.testing.assert_array_equal(result.n_trials, [[0, 5]])
        assert np.isnan(result.kalman[0, 0]) and np.isnan(result.inverse[0, 0])
        assert np.isfinite(result.kalman[0, 1]) and np.isfinite(result.inverse[0, 1])


    def test_shift_is_decomposed_once_per_heatmap(self, monkeypatch):
        # every cell shares one spectrum; re-decomposing per cell would cost 121 eigh on an 11x11 grid
        calls = []
        decompose = experiment.eigendecompose

        def counted(shift):
            calls.append(shift)
            return decompose(shift)

        monkeypatch.setattr(experiment, "eigendecompose", counted)
        run_heatmap(ExperimentConfig(n=12, m=5, trials=2, seed=1, sigma_grid=(0.3, 0.6), sigma_tilde_grid=(0.3, 0.6)))
        assert len(calls) == 1

    def test_heatmap_builds_no_kalman_state(self, monkeypatch):
        # the trials read run_filter's estimate array; per-step states are only for readers that index them
        built = []
        state = kalman.KalmanState

        def counted(*args, **kwargs):
            built.append(args)
            return state(*args, **kwargs)

        monkeypatch.setattr(kalman, "KalmanState", counted)
        run_heatmap(ExperimentConfig(n=12, m=5, trials=2, seed=1, sigma_grid=(0.3,), sigma_tilde_grid=(0.3, 0.6)))
        assert built == []
        run_filter(time_varying_cycle_system(10, 3), np.zeros((3, 10)))[2]
        assert len(built) == 1

    def test_tables_match_the_full_riccati_recursion(self, monkeypatch):
        # C_12 has the blind eigenvalue 2, so the sigma_tilde = 0 column has
        # flagged cells; sigma = 0 gives degenerate trials; 9 of the 12 other
        # cells reach their exact fixed point within the 40 steps
        grid = (0.0, 0.2, 0.5, 1.0)
        config = ExperimentConfig(n=12, m=40, trials=2, sigma_grid=grid, sigma_tilde_grid=grid, seed=5)
        fast = run_heatmap(config)
        monkeypatch.setattr(experiment, "riccati_sequence", full_riccati_sequence)
        reference = run_heatmap(config)
        for field in ("kalman", "inverse", "kalman_sem", "inverse_sem", "n_trials", "flagged"):
            assert getattr(fast, field).tobytes() == getattr(reference, field).tobytes(), field
        assert fast.flagged.any() and np.isfinite(fast.kalman).any()


def _single_trial_tables(config):
    """The heatmap tables from the single-trial layers: one 2-D ``simulate``,
    ``run_filter``, ``inverse_estimate`` and pair of ``relative_error_metric``
    calls per trial, then ``_mean_sem`` per cell."""
    spectrum = experiment._cycle_spectrum(config)
    shape = (len(config.sigma_grid), len(config.sigma_tilde_grid))
    tables = {name: np.full(shape, math.nan) for name in ("kalman", "inverse", "kalman_sem", "inverse_sem")}
    tables["n_trials"] = np.zeros(shape, dtype=int)
    tables["flagged"] = np.zeros(shape, dtype=bool)
    for i, sigma in enumerate(config.sigma_grid):
        for j, sigma_tilde in enumerate(config.sigma_tilde_grid):
            sys = experiment._cell_system(config, spectrum, sigma, sigma_tilde)
            try:
                riccati = kalman.riccati_sequence(sys)
            except SingularGainError:
                tables["flagged"][i, j] = True
                continue
            metrics = {"kalman": [], "inverse": []}
            for trial in range(config.trials):
                trajectory = simulate(sys, [np.random.SeedSequence(config.seed, spawn_key=(0, i, j, trial))])
                truths, z = trajectory.states[:, 1:], trajectory.observations
                estimates = {
                    "kalman": run_filter(sys, z[0], riccati=riccati).estimates[None, 1:],
                    "inverse": inverse_estimate(sys, z),
                }
                values = {key: relative_error_metric(estimates[key], truths, config.clip)[0] for key in metrics}
                if any(math.isnan(value) for value in values.values()):
                    tables["flagged"][i, j] = True
                    continue
                for key, value in values.items():
                    metrics[key].append(value)
            for key, values in metrics.items():
                tables[key][i, j], tables[f"{key}_sem"][i, j] = experiment._mean_sem(values)
            tables["n_trials"][i, j] = len(metrics["kalman"])
    return tables


class TestTrialBlocks:
    def test_heatmap_equals_its_single_trial_layers_bit_for_bit(self):
        # sigma = 0 is a row of degenerate trials; 7 trials run as a block of
        # 5 and a block of 2 at n = 30, m = 100
        config = ExperimentConfig(
            n=30, m=100, trials=7, sigma_grid=(0.0, 0.4), sigma_tilde_grid=(0.0, 0.3, 0.9), seed=8
        )
        assert config.trials > experiment._trials_per_block(config) > 1
        result = run_heatmap(config)
        reference = _single_trial_tables(config)
        for name, table in reference.items():
            assert getattr(result, name).tobytes() == table.tobytes(), name
        assert result.flagged[0].all() and np.isfinite(result.kalman[1]).all()

    def test_trials_per_block_follow_the_noise_budget(self):
        block_bytes = (2 * 100 + 1) * 30 * 8
        assert experiment._trials_per_block(ExperimentConfig()) == experiment.NOISE_BLOCK_BUDGET // block_bytes
        assert experiment._trials_per_block(ExperimentConfig(n=3000, m=100)) == 1


class TestMetric:
    def test_finite_inputs_give_a_finite_metric(self):
        truths = generator(80).standard_normal((1, 6, 5))
        values = relative_error_metric(truths + 0.1, truths)
        assert values.shape == (1,) and math.isfinite(values[0])

    @pytest.mark.parametrize("which", ["estimates", "truths"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_step_raises(self, which, value):
        # a NaN estimate must not become a nan metric, nor a NaN truth step be dropped as low-energy
        truths = generator(81).standard_normal((1, 6, 5))
        arrays = {"estimates": truths + 0.1, "truths": truths.copy()}
        arrays[which][0, 3, 2] = value
        with pytest.raises(NumericalFailureError, match="not finite"):
            relative_error_metric(arrays["estimates"], arrays["truths"])

    @pytest.mark.parametrize("clip", [math.nan, math.inf, -math.inf, METRIC_FLOOR, -20.0])
    def test_clip_not_finite_or_not_above_the_floor_rejected(self, clip):
        # a NaN clip turned clipping off and -inf returned -inf, below the floor
        truths = generator(82).standard_normal((2, 6, 5))
        with pytest.raises(ValueError, match=f"clip must be finite and > {METRIC_FLOOR}"):
            relative_error_metric(truths + 0.1, truths, clip)

    def test_all_nan_truths_are_a_failure_not_a_degenerate_trajectory(self):
        truths = np.full((1, 4, 5), math.nan)
        with pytest.raises(NumericalFailureError):
            relative_error_metric(np.zeros((1, 4, 5)), truths)
        # a trajectory with no step above the energy guard is NaN
        assert math.isnan(relative_error_metric(np.zeros((1, 4, 5)), np.zeros((1, 4, 5)))[0])


class TestStackedMetric:
    """``relative_error_metric`` on (T, m, n) stacks: trial t is its value alone, bit for bit."""

    @staticmethod
    def _stack():
        rng = generator(90)
        truths = rng.standard_normal((4, 6, 5))
        truths[1, :2] = 0.0  # two steps below the energy guard
        truths[2] = 1e-14  # every step below it: a degenerate trial
        estimates = truths + 0.1 * rng.standard_normal(truths.shape)
        estimates[3] = truths[3]  # a perfect reconstruction hits the floor
        return estimates, truths

    def test_stack_equals_the_per_trial_values(self):
        estimates, truths = self._stack()
        values = relative_error_metric(estimates, truths, clip=0.2)
        assert values.shape == (4,)
        for t in range(4):
            alone = relative_error_metric(estimates[t : t + 1], truths[t : t + 1], clip=0.2)
            assert alone.tobytes() == values[t : t + 1].tobytes()
        assert values[3] == METRIC_FLOOR
        # the degenerate trial is NaN, in the stack and as a stack of one
        assert math.isnan(values[2])

    def test_a_stack_whose_steps_all_pass_the_guard_equals_its_trials(self):
        truths = generator(91).standard_normal((3, 7, 5))
        estimates = truths + 0.3
        values = relative_error_metric(estimates, truths)
        assert [float(v) for v in values] == [relative_error_metric(e[None], t[None])[0] for e, t in zip(estimates, truths)]

    def test_each_value_is_the_mean_ratio_of_its_kept_steps(self):
        estimates, truths = self._stack()
        with np.errstate(divide="ignore", invalid="ignore"):  # the zero steps
            ratios = np.sum((estimates - truths) ** 2, axis=-1) / np.sum(truths**2, axis=-1)
        values = relative_error_metric(estimates, truths, clip=10.0)
        # every step of trial 0 is kept: exactly the mean over all its steps
        assert values[0] == 0.5 * math.log10(np.mean(ratios[0]))
        # trial 1 drops its first two steps
        assert values[1] == pytest.approx(0.5 * math.log10(np.mean(ratios[1, 2:])), rel=1e-14)

    @pytest.mark.parametrize("which", ["estimates", "truths"])
    def test_a_non_finite_trial_fails_the_stack(self, which):
        estimates, truths = self._stack()
        arrays = {"estimates": estimates, "truths": truths}
        arrays[which][0, 3, 2] = math.inf
        with pytest.raises(NumericalFailureError, match="not finite"):
            relative_error_metric(arrays["estimates"], arrays["truths"])

    @pytest.mark.parametrize("shape", [(5,), (1, 2, 3, 4)])
    def test_other_ranks_are_rejected(self, shape):
        with pytest.raises(ValueError):
            relative_error_metric(np.zeros(shape), np.zeros(shape))


class TestTrace:
    def test_trace_tabulates_the_trace_trajectory(self):
        config = ExperimentConfig(n=12, m=15, seed=5)
        result = run_trace(config)
        trajectory = trace_trajectory(config)
        assert trajectory.states.shape == (1, 16, 12)
        truths = trajectory.states[0, 1:]
        np.testing.assert_array_equal(result.steps, np.arange(1, 16))
        np.testing.assert_array_equal(result.energy_true, np.linalg.norm(truths, axis=1))
        np.testing.assert_array_equal(result.vertex_true, truths[:, config.trace.vertex - 1])
        assert result.vertex == config.trace.vertex
        for values in (result.energy_kalman, result.energy_inverse, result.vertex_kalman, result.vertex_inverse):
            assert values.shape == (15,) and np.all(np.isfinite(values))


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"n": 12, "workers": 2})

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"trace": 5}', "'trace'"),
            ('{"a": 3}', "'a'"),
            ('{"sigma_grid": 0.5}', "'sigma_grid'"),
            ('{"sigma_grid": "05"}', "'sigma_grid'"),
            ('{"b": "12"}', "'b'"),
            ('{"sigma_grid": {"start": 0}}', r"'sigma_grid'.*\['step', 'stop'\]"),
            ('{"clip": [1]}', "'clip'"),
            ('{"trace": {"sigma": null}}', "'trace'"),
            ('[1, 2]', "config must be a JSON object"),
            ('{"sigma_grid": {"start": 0, "stop": 1, "step": 0.5, "x": 1}}', r"'sigma_grid'.*unknown grid keys: \['x'\]"),
            ('{"clip": "0.7"}', "'clip'"),
            ('{"clip": true}', "'clip'"),
            ('{"sigma_grid": [0.1, "0.2"]}', "'sigma_grid'"),
            ('{"sigma_tilde_grid": [true]}', "'sigma_tilde_grid'"),
            ('{"sigma_grid": {"start": "0", "stop": 1, "step": 0.5}}', "'sigma_grid'.*grid start"),
            ('{"sigma_tilde_grid": {"start": 0, "stop": 1, "step": false}}', "'sigma_tilde_grid'.*grid step"),
            ('{"trace": {"sigma": "0.3"}}', "'trace'.*sigma"),
            ('{"trace": {"sigma_tilde": true}}', "'trace'.*sigma_tilde"),
            ('{"a": [0.0, "0.25"]}', "'a'"),
            ('{"clip": 1' + '0' * 400 + '}', "'clip'"),
        ],
        ids=[
            "trace", "a", "grid-scalar", "grid-string", "b-string", "grid-object", "clip", "trace-sigma", "not-an-object",
            "grid-object-unknown-key", "clip-string", "clip-boolean", "grid-value-string", "grid-value-boolean",
            "grid-start-string", "grid-step-boolean", "trace-sigma-string", "trace-sigma-tilde-boolean", "a-string",
            "clip-beyond-float",
        ],
    )
    def test_wrongly_typed_json_raises_value_error_naming_the_key(self, text, message):
        # input from outside the program: a TypeError or KeyError would not say which key
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(text)

    def test_json_round_trip_keeps_every_field(self):
        config = ExperimentConfig(
            n=12, m=7, trials=4, state_poly=Polynomial((0.1, 0.2)), observation_poly=Polynomial((1.0, -0.25, 0.01)),
            sigma_grid=(0.0, 0.4), sigma_tilde_grid=(0.2, 0.3, 0.9), seed=77, clip=1.5,
            trace=TraceSpec(sigma=0.6, sigma_tilde=0.7, vertex=5),
        )
        assert ExperimentConfig.from_json(json.dumps(config.to_dict())) == config

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n": 1' + '0' * 400 + '}', "n is too large"),
            ('{"n": 3037000500}', "n is too large"),
            ('{"m": 1' + '0' * 400 + '}', "m is too large"),
            ('{"n": 1000000}', "n is too large"),
        ],
        ids=["n-400-digits", "n-squared-past-intp", "m-400-digits", "n-past-physical-memory"],
    )
    def test_run_beyond_numpy_size_limit_rejected(self, text, message):
        # parse only: a run on such a config would spin in cycle_graph or
        # exhaust the machine's memory, never raising a named error
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(text)

    def test_grid_object_beyond_the_limit_rejected(self):
        # parse only: a grid object is counted before its values are built
        limit = experiment.GRID_LIMIT
        too_many = json.dumps({"sigma_grid": {"start": 0, "stop": limit, "step": 1}})
        with pytest.raises(ValueError, match=f"'sigma_grid'.* {limit + 1} values"):
            ExperimentConfig.from_json(too_many)

    def test_largest_run_within_physical_memory_accepted(self, monkeypatch):
        # parse only, with the memory set to exactly what n = 4,000, m = 100 needs
        memory = experiment.DENSE_ARRAYS * 8 * 4000**2 + 8 * 201 * 4000
        monkeypatch.setattr(experiment, "PHYSICAL_MEMORY", memory)
        assert ExperimentConfig(n=4000, m=100).n == 4000
        for n, m in ((4001, 100), (4000, 101)):
            with pytest.raises(ValueError, match="is too large: .* physical memory"):
                ExperimentConfig(n=n, m=m)

    def test_unknown_trace_keys_rejected(self):
        with pytest.raises(ValueError, match=r"unknown trace keys: \['sigma_tlde', 'vertx'\]"):
            ExperimentConfig.from_dict({"trace": {"vertx": 3, "sigma_tlde": 0.9}})

    def test_empty_horizon_rejected(self):
        # an empty horizon leaves run_heatmap no estimates to stack
        with pytest.raises(ValueError, match="m must be >= 1"):
            ExperimentConfig(n=12, m=0, trials=3)

    def test_nan_clip_rejected(self):
        # min(x, nan) is x, so a nan clip would be silently ignored
        with pytest.raises(ValueError, match="clip must be finite"):
            ExperimentConfig.from_dict({"n": 12, "trials": 3, "clip": float("nan")})

    def test_clip_at_or_below_metric_floor_rejected(self):
        # a clip below the metric floor would be written into every cell
        for clip in (-20.0, METRIC_FLOOR):
            with pytest.raises(ValueError, match="clip must be finite"):
                ExperimentConfig(n=12, trials=3, clip=clip)

    def test_non_integral_counts_rejected(self):
        for key in ("n", "m", "trials", "seed"):
            with pytest.raises(ValueError, match=f"{key} must be an integer, got 12.7"):
                ExperimentConfig.from_dict({key: 12.7})
        with pytest.raises(ValueError, match="trace vertex must be an integer"):
            ExperimentConfig.from_dict({"trace": {"vertex": 8.5}})
        assert ExperimentConfig.from_dict({"n": 12.0}).n == 12

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ExperimentConfig(n=12.5), "n must be an integer, got 12.5"),
            (lambda: ExperimentConfig(n=12, m=2.5), "m must be an integer, got 2.5"),
            (lambda: ExperimentConfig(n=12, trials=2.5), "trials must be an integer, got 2.5"),
            (lambda: ExperimentConfig(n=12, seed=3.5), "seed must be an integer, got 3.5"),
            (lambda: ExperimentConfig(n=12, seed=-1), "seed must be >= 0, got -1"),
            (lambda: ExperimentConfig(n=12, trials=True), "trials must be an integer, got True"),
            (lambda: ExperimentConfig(n=12, trace=TraceSpec(vertex=8.5)), "trace vertex must be an integer, got 8.5"),
            (
                lambda: DynamicalSystem.from_constant(
                    eigendecompose(build_shift(cycle_graph(12), "laplacian")),
                    Polynomial((1.0,)), Polynomial((1.0,)), 0.3, 0.5, horizon=2.5,
                ),
                "horizon must be an integer, got 2.5",
            ),
        ],
        ids=["n", "m", "trials", "seed", "negative-seed", "boolean-trials", "trace-vertex", "horizon"],
    )
    def test_non_integral_or_negative_counts_rejected_at_construction(self, build, message):
        # each is rejected where it is given, not truncated or left to fail inside run_heatmap
        with pytest.raises(ValueError, match=message):
            build()

    def test_negative_trace_noise_rejected(self):
        # a negative trace point used to pass the config and fail later, inside the system
        for key in ("sigma", "sigma_tilde"):
            with pytest.raises(ValueError, match=f"trace {key} must be finite and >= 0, got -0.3"):
                ExperimentConfig.from_dict({"trace": {key: -0.3}})

    def test_non_finite_trace_noise_rejected(self):
        for key in ("sigma", "sigma_tilde"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"trace {key} must be finite and >= 0"):
                    ExperimentConfig.from_dict({"trace": {key: value}})

    def test_range_grid_resolved(self):
        config = ExperimentConfig.from_dict({"sigma_grid": {"start": 0.0, "stop": 0.3, "step": 0.1}})
        assert config.sigma_grid == (0.0, 0.1, 0.2, 0.3)

    @pytest.mark.parametrize(
        "field, key, value, message",
        [
            ("clip", "clip", 10**400, "clip must be within the float range"),
            ("sigma_grid", "sigma_grid", [10**400], "sigma_grid value must be within the float range"),
            (
                "sigma_grid",
                "sigma_grid",
                {"start": 0, "stop": 1e150, "step": 1e-160},
                r"sigma_grid step must be 0 or have a finite square of at least 2\.225e-308, got 1e-160",
            ),
        ],
        ids=["clip-int", "grid-value-int", "grid-span"],
    )
    def test_value_beyond_the_float_range_rejected(self, field, key, value, message):
        # never an OverflowError: the same ValueError, saying what is wrong, in
        # Python and through from_dict
        with pytest.raises(ValueError, match=f"^{message}"):
            ExperimentConfig(**{field: value})
        with pytest.raises(ValueError, match=f"^config key '{key}': {message}"):
            ExperimentConfig.from_json(json.dumps({key: value}))

    def test_non_finite_grid_object_rejected(self):
        for key in ("start", "stop", "step"):
            grid = {"start": 0.0, "stop": 1.0, "step": 0.5, key: math.nan}
            with pytest.raises(ValueError, match=f"'sigma_grid': sigma_grid {key} must be finite and >= 0, got nan"):
                ExperimentConfig.from_dict({"sigma_grid": grid})


# The value cases of the JSON table above, given in Python: the same rule
# refuses each with a ValueError naming the field
PYTHON_SPELLINGS = {
    "clip-string": (lambda: ExperimentConfig(clip="0.7"), "clip must be a number"),
    "clip-boolean": (lambda: ExperimentConfig(clip=True), "clip must be a number, got True"),
    "clip-list": (lambda: ExperimentConfig(clip=[1]), "clip must be a number"),
    "grid-scalar": (lambda: ExperimentConfig(sigma_grid=0.5), "sigma_grid must be a list"),
    "grid-string": (lambda: ExperimentConfig(sigma_grid="05"), "sigma_grid must be a list"),
    "grid-2d-array": (lambda: ExperimentConfig(sigma_grid=np.array([[0.5]])), "sigma_grid must be a list"),
    "grid-value-string": (lambda: ExperimentConfig(sigma_grid=[0.1, "0.2"]), "sigma_grid value must be a number"),
    "grid-value-boolean": (lambda: ExperimentConfig(sigma_tilde_grid=[True]), "sigma_tilde_grid value must be a number"),
    "grid-empty": (lambda: ExperimentConfig(sigma_grid=np.array([])), "sigma_grid must be nonempty"),
    "trace-sigma-string": (lambda: TraceSpec(sigma="0.3"), "trace sigma must be a number"),
    "trace-sigma-boolean": (lambda: TraceSpec(sigma=True), "trace sigma must be a number"),
    "trace-sigma-tilde-boolean": (lambda: TraceSpec(sigma_tilde=True), "trace sigma_tilde must be a number"),
    "trace-sigma-null": (lambda: TraceSpec(sigma=None), "trace sigma must be a number"),
    "trace-not-a-spec": (lambda: ExperimentConfig(trace=5), "trace must be a JSON object"),
    "a-string": (lambda: Polynomial("12"), "coefficients must be a sequence of numbers, got '12'"),
    "a-value-string": (lambda: Polynomial([0.0, "0.25"]), "coefficient must be a number"),
    "a-value-boolean": (lambda: Polynomial([True]), "coefficient must be a number, got True"),
    "a-scalar": (lambda: ExperimentConfig(state_poly=3), "coefficients must be a sequence of numbers"),
}

# Python spellings a config accepts, each with its JSON twin
ACCEPTED = {
    "list-grid": ({"sigma_grid": [0.0, 0.5]}, {"sigma_grid": [0.0, 0.5]}),
    "int-and-numpy-values": (
        {"sigma_grid": (0, np.float64(0.5)), "clip": 1, "trace": TraceSpec(sigma=np.float64(0.3), sigma_tilde=1)},
        {"sigma_grid": [0.0, 0.5], "clip": 1.0, "trace": {"sigma": 0.3, "sigma_tilde": 1.0}},
    ),
    "array-grid": ({"sigma_tilde_grid": np.array([0.25, 0.5])}, {"sigma_tilde_grid": [0.25, 0.5]}),
    "coefficient-tuple": (
        {"state_poly": (0.0, 0.25), "observation_poly": [1, -0.5]},
        {"a": [0.0, 0.25], "b": [1.0, -0.5]},
    ),
}


class TestPythonJsonParity:
    @pytest.mark.parametrize("build, message", PYTHON_SPELLINGS.values(), ids=PYTHON_SPELLINGS.keys())
    def test_refused_as_in_json(self, build, message):
        # never a TypeError or AttributeError, which would not say which field
        with pytest.raises(ValueError, match=message):
            build()

    @pytest.mark.parametrize("kwargs, payload", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_accepted_spelling_equals_its_json_twin(self, kwargs, payload):
        config, twin = ExperimentConfig(**kwargs), ExperimentConfig.from_dict(payload)
        assert config == twin and hash(config) == hash(twin)
        assert json.dumps(config.to_dict()) == json.dumps(twin.to_dict())
        assert ExperimentConfig.from_json(json.dumps(config.to_dict())) == config
        assert all(type(v) is float for v in (*config.sigma_grid, *config.sigma_tilde_grid, config.clip))

    def test_a_tuple_filter_runs(self):
        # a tuple used to be kept, and run_heatmap called it
        config = ExperimentConfig(n=6, m=3, trials=1, sigma_grid=(0.5,), sigma_tilde_grid=(0.5,),
                                  state_poly=(0.0, 0.25))
        assert np.isfinite(run_heatmap(config).kalman).all()


class TestCsvExport:
    def test_header_and_row_count(self):
        trajectory = simulate(_c4_system(), [7])
        buffer = io.StringIO()
        trajectory_to_csv(trajectory, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "k,vertex,x,z"
        assert len(lines) == 1 + 4 * (3 + 1)
        assert lines[1].startswith("0,1,") and lines[1].endswith(",")

    def test_deterministic_bytes(self):
        buffers = []
        for _ in range(2):
            buffer = io.StringIO()
            trajectory_to_csv(simulate(_c4_system(), [7]), buffer)
            buffers.append(buffer.getvalue())
        assert buffers[0] == buffers[1]

    @pytest.mark.parametrize("trials", [0, 2])
    def test_only_a_stack_of_one_is_written(self, trials):
        with pytest.raises(ValueError, match=f"writes a stack of one trial, got {trials}$"):
            trajectory_to_csv(simulate(_c4_system(), list(range(trials))), io.StringIO())


def _written_both_ways(write, path):
    """The text ``write(target)`` writes, once to ``path`` and once to a
    stream, checked to be the same bytes."""
    write(path)
    stream = io.StringIO()
    write(stream)
    assert path.read_bytes() == stream.getvalue().encode()
    return stream.getvalue()


def _read_csv(text):
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def _hex(values):
    return [float(value).hex() for value in values]


class TestCsvValues:
    # every real field reads back to the result's value bit for bit (float.hex
    # tells NaN and -0.0 apart), and every count and flag to its integer

    @pytest.mark.parametrize("which", ["kalman", "inverse"])
    def test_heatmap_values_survive_the_file(self, tiny_heatmap, tmp_path, which):
        values = getattr(tiny_heatmap, which).copy()
        values[0, 1] = -0.0
        assert np.isnan(values).any()
        result = dataclasses.replace(tiny_heatmap, **{which: values})
        text = _written_both_ways(lambda target: write_heatmap_csv(result, which, target), tmp_path / "heatmap.csv")
        header, rows = _read_csv(text)
        assert header == ["sigma", "sigma_tilde", "value", "n_trials", "flagged"]
        cells = list(np.ndindex(values.shape))
        assert len(rows) == len(cells)
        for row, (i, j) in zip(rows, cells):
            assert _hex(row[:3]) == _hex((result.sigma_grid[i], result.sigma_tilde_grid[j], values[i, j]))
            assert [int(row[3]), int(row[4])] == [result.n_trials[i, j], int(result.flagged[i, j])]

    @pytest.mark.parametrize("table", ["energy", "vertex"])
    def test_trace_values_survive_the_file(self, tmp_path, table):
        result = run_trace(ExperimentConfig(**CLI_CONFIG))
        write_trace_csvs(result, tmp_path)
        _, rows = _read_csv((tmp_path / f"{table}.csv").read_text())
        columns = np.column_stack([getattr(result, f"{table}_{which}") for which in ("true", "kalman", "inverse")])
        assert [int(row[0]) for row in rows] == result.steps.tolist()
        assert [_hex(row[1:]) for row in rows] == [_hex(values) for values in columns]

    def test_trajectory_values_survive_the_file(self, tmp_path):
        trajectory = trace_trajectory(ExperimentConfig(**CLI_CONFIG))
        text = _written_both_ways(lambda target: trajectory_to_csv(trajectory, target), tmp_path / "trajectory.csv")
        header, rows = _read_csv(text)
        assert header == ["k", "vertex", "x", "z"]
        _, steps, n = trajectory.states.shape
        assert [(int(row[0]), int(row[1])) for row in rows] == [(k, v) for k in range(steps) for v in range(1, n + 1)]
        for k, vertex, x, z in rows:
            k, v = int(k), int(vertex) - 1
            assert _hex([x]) == _hex([trajectory.states[0, k, v]])
            if k == 0:
                assert z == ""
            else:
                assert _hex([z]) == _hex([trajectory.observations[0, k - 1, v]])


def test_only_the_experiment_writes_files():
    # every table and SVG goes through experiment.write_text; the numerics write nothing
    package = Path(graphkalman.__file__).parent
    writers = sorted(
        p.name for p in package.glob("*.py") if any(call in p.read_text() for call in ("write_text(", "open(", ".write("))
    )
    assert writers == ["experiment.py"]


class TestCli:
    def test_heatmap_writes_tables_and_svgs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["heatmap", "--config", _config_file(tmp_path), "--out", str(out), "--svg"]) == 0
        for which in ("kalman", "inverse"):
            header, rows = _csv_rows(out / f"heatmap_{which}.csv")
            assert header == "sigma,sigma_tilde,value,n_trials,flagged"
            assert [row[3:] for row in rows] == [["0", "1"], ["2", "0"]]
            assert (out / f"heatmap_{which}.svg").read_text().startswith("<svg")

    def test_trace_writes_energy_and_vertex_tables(self, tmp_path):
        out = tmp_path / "out"
        assert main(["trace", "--config", _config_file(tmp_path), "--out", str(out)]) == 0
        for name, header in (("energy", "k,e_true,e_kalman,e_inverse"), ("vertex", "k,x_true,x_kalman,x_inverse")):
            first, rows = _csv_rows(out / f"{name}.csv")
            assert first == header
            assert [int(row[0]) for row in rows] == [1, 2, 3, 4, 5]

    def test_simulate_writes_parseable_trajectory(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", _config_file(tmp_path), "--out", str(out)]) == 0
        header, rows = _csv_rows(out / "trajectory.csv")
        assert header == "k,vertex,x,z"
        assert len(rows) == 10 * 6
        states = [float(row[2]) for row in rows]
        observations = [float(row[3]) for row in rows[10:]]
        assert np.all(np.isfinite(states)) and np.all(np.isfinite(observations))

    @pytest.mark.parametrize("command", ["heatmap", "simulate"])
    def test_a_cycle_shorter_than_the_trace_vertex_runs(self, tmp_path, command):
        # neither command reads the trace vertex, 8 by default
        payload = {"n": 6, "m": 3, "trials": 1, "sigma_grid": [0.5], "sigma_tilde_grid": [0.5]}
        assert main([command, "--config", _config_file(tmp_path, payload), "--out", str(tmp_path / "out")]) == 0

    def test_trace_vertex_beyond_n_is_one_stderr_line_and_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["trace", "--config", _config_file(tmp_path, {"n": 6}), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "graphkalman: config: trace vertex 8 out of range 1..6\n"
        assert not out.exists()

    def test_verify_single_module(self, capsys):
        assert main(["verify", "--filter", "graph_core"]) == 0
        assert capsys.readouterr().out.strip().endswith("3/3 invariants passed")

    @pytest.mark.parametrize("command", ["simulate", "trace", "heatmap"])
    def test_numerical_failure_is_one_stderr_line_and_no_output(self, tmp_path, capsys, command):
        # the heatmap runs the config's trace point as its one cell
        payload = dict(UNSTABLE_CONFIG, sigma_grid=[0.3], sigma_tilde_grid=[0.5])
        out = tmp_path / "out"
        assert main([command, "--config", _config_file(tmp_path, payload), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("graphkalman: NumericalFailureError: simulated trajectory is not finite")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_noise_level_whose_square_overflows_is_one_stderr_line(self, tmp_path, capsys):
        payload = dict(CLI_CONFIG, sigma_grid=[1e200])
        out = tmp_path / "out"
        assert main(["heatmap", "--config", _config_file(tmp_path, payload), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "graphkalman: config: config key 'sigma_grid': sigma_grid value must be 0 or have a finite"
            " square of at least 2.225e-308, got 1e+200\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("below_file", [False, True], ids=["a-file", "below-a-file"])
    @pytest.mark.parametrize("command", ["simulate", "trace", "heatmap"])
    def test_unusable_out_is_one_stderr_line(self, tmp_path, capsys, monkeypatch, command, below_file):
        # an existing file, or a path under one, cannot be made a directory,
        # and it is refused before any result is computed
        def refused(*args, **kwargs):
            raise AssertionError("the command ran before its --out was checked")

        for name in ("run_heatmap", "run_trace", "trace_trajectory"):
            monkeypatch.setattr(cli, name, refused)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if below_file else taken
        assert main([command, "--config", _config_file(tmp_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("graphkalman: out: ")
        assert str(out) in captured.err
        assert captured.err.count("\n") == 1
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize(
        ("payload", "message"),
        [({"n": 2.5}, "n must be an integer, got 2.5"), (None, "No such file or directory")],
        ids=["bad-key", "missing-file"],
    )
    def test_config_error_is_one_stderr_line_and_no_output(self, tmp_path, capsys, payload, message):
        config = _config_file(tmp_path, payload) if payload else str(tmp_path / "missing.json")
        out = tmp_path / "out"
        assert main(["heatmap", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("graphkalman: config: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestNonFiniteRuns:
    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 24), st.floats(-3.0, 3.0), st.integers(1, 150))
    def test_random_system_is_finite_or_fails_by_name(self, seed, n, log_scale, m):
        # the heatmap's block path on a random system whose a is scaled by 1e-3 to 1e3
        rng = generator(seed)
        sys = DynamicalSystem.from_constant(
            eigendecompose(random_shift(rng, n)),
            Polynomial(tuple(10.0**log_scale * c for c in random_polynomial(rng, 3).coeffs)),
            random_polynomial(rng, 3),
            sigma=float(rng.uniform(0.1, 2.0)),
            sigma_tilde=float(rng.uniform(0.1, 2.0)),
            horizon=m,
        )
        seeds = [np.random.SeedSequence(seed, spawn_key=(t,)) for t in range(3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                metrics = experiment._block_metrics(sys, seeds, kalman.riccati_sequence(sys), experiment.DEFAULT_CLIP)
            except NumericalFailureError:
                return
        assert np.all(np.isfinite(metrics))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e308], ids=["nan", "inf", "overflow"])
    def test_non_finite_observations_are_named_by_both_estimators(self, bad):
        # a caller's observation row at step 3 that is not finite, or whose
        # rotation into the eigenbasis overflows
        sys = DynamicalSystem.from_constant(
            eigendecompose(build_shift(cycle_graph(6), "laplacian")),
            Polynomial((0.0, 0.25)), Polynomial((1.0, -0.5)), 0.3, 0.5, horizon=5,
        )
        observations = np.ones((5, 6))
        observations[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError, match="^Kalman estimate is not finite from step 3 on$"):
                run_filter(sys, observations)
            with pytest.raises(NumericalFailureError, match="^inverse-filtering estimate is not finite from step 3 on$"):
                inverse_estimate(sys, np.stack([np.ones((5, 6)), observations]))
