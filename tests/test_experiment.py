"""The cycle-graph experiment and the command-line interface on tiny configurations."""
from __future__ import annotations

import json

import numpy as np
import pytest

from graphkalman import ExperimentConfig, run_heatmap, run_trace
from graphkalman.cli import main
from graphkalman.experiment import METRIC_FLOOR, trace_trajectory

# C_30 has no eigenvalue 2, where the observation response 1 - t/2 vanishes,
# so sigma_tilde = 0 is exact inversion at every frequency; sigma = 0 with a
# zero initial state gives a flagged row.
TINY = {"n": 30, "m": 20, "trials": 2, "sigma_grid": (0.0, 0.5), "sigma_tilde_grid": (0.0, 0.5), "seed": 3}
CLI_CONFIG = {"n": 10, "m": 5, "trials": 2, "sigma_grid": [0.0, 0.5], "sigma_tilde_grid": [0.5], "seed": 1}


@pytest.fixture(scope="module")
def tiny_heatmap():
    return run_heatmap(ExperimentConfig(**TINY))


def _config_file(tmp_path, payload=CLI_CONFIG):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


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


class TestTrace:
    def test_trace_tabulates_the_trace_trajectory(self):
        config = ExperimentConfig(n=12, m=15, seed=5)
        result = run_trace(config)
        truths = trace_trajectory(config).states[1:]
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

    def test_range_grid_resolved(self):
        config = ExperimentConfig.from_dict({"sigma_grid": {"start": 0.0, "stop": 0.3, "step": 0.1}})
        assert config.sigma_grid == (0.0, 0.1, 0.2, 0.3)


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

    def test_verify_single_module(self, capsys):
        assert main(["verify", "--filter", "graph_core"]) == 0
        assert capsys.readouterr().out.strip().endswith("3/3 invariants passed")
