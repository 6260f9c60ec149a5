"""The invariant suite's modules below the experiment pass on their own sweeps."""
from __future__ import annotations

from graphkalman.verify import format_report, run_checks


def test_dynamics_kalman_and_baselines_invariants_pass():
    results = run_checks(["dynamics", "kalman", "baselines"])
    assert len(results) == 11
    assert all(result.passed for result in results), format_report(results)


def test_graph_spectral_filter_and_stationary_invariants_pass():
    results = run_checks(["graph_core", "spectral", "poly_filter", "stationary"])
    assert len(results) == 14
    assert all(result.passed for result in results), format_report(results)


def test_experiment_invariants_pass():
    # with the two tests above, tier-1 runs every invariant of the verify report
    results = run_checks(["experiment"])
    assert len(results) == 3
    assert all(result.passed for result in results), format_report(results)
