"""Tests of the benchmark itself: metric names, the checks and the oracle.

Run from the repository root:  python -m pytest -q perfbench
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from workload import UNLISTED, WORKLOADS, load_program, make_config, setup_context

REPO = Path(__file__).resolve().parents[1]
load_program(REPO)

from graphkalman.experiment import METRIC_FLOOR, HeatmapResult  # noqa: E402

import oracle  # noqa: E402
from traced import FilterCapture  # noqa: E402

# C_10 has no eigenvalue 2, where the observation response vanishes, so the
# sigma_tilde = 0 branch stays defined; sigma = 0 gives a flagged row.
TINY = {"n": 10, "m": 10, "trials": 2, "sigma_grid": (0.0, 0.5), "sigma_tilde_grid": (0.0, 0.5)}


def _benchmark_json() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def _tiny_run(tmp_path, capsys, trace: int):
    args = argparse.Namespace(workload="tiny", seed=7, seconds=0.0, trace=trace)
    assert run.execute(args, make_config("trials_c30", 7, **TINY), tmp_path) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_metrics_and_workloads():
    spec = _benchmark_json()
    listed = {w["name"] for w in spec["workloads"]}
    assert listed <= set(WORKLOADS) and set(WORKLOADS) - listed == set(UNLISTED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_config_prints_every_metric_with_its_unit(tmp_path, capsys, trace):
    lines, result = _tiny_run(tmp_path, capsys, trace)
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (8, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
    printed = run.PER_LAYER | run.PER_LAYER_REPORT_ONLY if trace else run.END_TO_END | run.END_TO_END_REPORT_ONLY
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    assert (tmp_path / f"tiny-seed7-trace{trace}.json").is_file()
    from graphkalman import experiment, kalman

    assert experiment.run_filter is kalman.run_filter  # the wrappers are gone again


def _table(kalman, inverse, n_trials=30, sem=0.01):
    shape = np.shape(kalman)
    return HeatmapResult(
        sigma_grid=(0.5,) * shape[0],
        sigma_tilde_grid=(0.5,) * shape[1],
        kalman=np.asarray(kalman, dtype=float),
        inverse=np.asarray(inverse, dtype=float),
        kalman_sem=np.full(shape, sem),
        inverse_sem=np.full(shape, sem),
        n_trials=np.full(shape, n_trials),
        flagged=np.zeros(shape, dtype=bool),
    )


def test_table_checks_pass_a_sound_table_and_flag_nan():
    config = make_config("trials_c30", 1, sigma_grid=(0.5,), sigma_tilde_grid=(0.5, 1.0))
    assert oracle.failed_cells(_table([[-0.4, -0.3]], [[0.2, 0.4]]), config, METRIC_FLOOR) == {}
    nan_table = _table([[-0.4, math.nan]], [[0.2, 0.4]])
    assert set(oracle.failed_cells(nan_table, config, METRIC_FLOOR)) == {(0, 1)}
    failed = run.failures(config, [nan_table], {(0, 0, 0): 0.0, (0, 1, 0): math.inf}, 1)
    assert set(failed) == {(0, 1, t) for t in range(config.trials)}
    # a cell with no captured estimates fails instead of being skipped
    assert set(run.failures(config, [], {(0, 0, 0): 0.0}, 1)) == {(0, 1, 0)}


def test_table_checks_flag_kalman_worse_than_inverse_and_short_cells():
    config = make_config("trials_c30", 1, sigma_grid=(0.5,), sigma_tilde_grid=(0.5, 1.0))
    worse = _table([[-0.1, -0.3]], [[-0.3, 0.4]])
    assert set(oracle.failed_cells(worse, config, METRIC_FLOOR)) == {(0, 0)}
    short = _table([[-0.4, -0.3]], [[0.2, 0.4]], n_trials=29)
    assert set(oracle.failed_cells(short, config, METRIC_FLOOR)) == {(0, 0), (0, 1)}


def test_oracle_flags_an_estimate_off_by_1e3_and_passes_the_reference():
    config = make_config("trials_c30", 3, sigma_grid=(0.5,), sigma_tilde_grid=(0.5,))
    _, decomposition, spectrum = setup_context(config.n)
    observations = np.random.default_rng(3).standard_normal((config.m, config.n))
    reference = oracle.reference_estimates(
        spectrum, decomposition, config.state_poly, config.observation_poly, 0.5, 0.5, observations
    )
    assert oracle.relative_gap(reference, reference) == 0.0
    off = oracle.relative_gap(reference * (1 + 1e-3), reference)
    assert off == pytest.approx(1e-3)
    assert not off <= oracle.REF_TOL
    assert oracle.relative_gap(np.full_like(reference, math.nan), reference) == math.inf
    assert oracle.gap_log10(math.nan) == oracle.REF_ERR_CEILING_LOG10

    capture = FilterCapture(every_trial=True)
    capture.trials[0.5, 0.5] = [(observations, reference), (observations, reference * (1 + 1e-3))]
    gaps = capture.gaps(config, decomposition, spectrum)
    assert gaps[0, 0, 0] == 0.0 and gaps[0, 0, 1] == pytest.approx(1e-3)
    assert set(run.failures(config, [], gaps, 2)) == {(0, 0, 1)}


def test_oracle_matches_run_filter_on_c12():
    assert run.self_check_gap(11) <= run.SELF_CHECK_TOL


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trials_c30", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
