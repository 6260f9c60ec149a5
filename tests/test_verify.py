"""The invariant suite's modules pass on their own sweeps, and the
invariants stated on eigenvalue values fail on a wrong grouping, closed
form or interpolant."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from graphkalman import spectral, verify
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


def _result(results, name):
    return next(result for result in results if result.name == name)


def test_dropped_representative_fails_minimal_poly_annihilates(monkeypatch):
    original = verify.distinct_eigenvalues

    def dropping(*args, **kwargs):
        spectrum = original(*args, **kwargs)
        return replace(spectrum, representatives=np.delete(spectrum.representatives, spectrum.count // 2))

    monkeypatch.setattr(verify, "distinct_eigenvalues", dropping)
    assert not _result(run_checks(["spectral"]), "minimal-poly-annihilates").passed


def test_dropped_representative_on_c120_fails_grouping_idempotent(monkeypatch):
    # on C_120 the scaled annihilation residual cannot see the missing factor
    # (about 2e-16); the grouping compared with eigvalsh's does
    original = verify.distinct_eigenvalues

    def dropping(decomposition, *args, **kwargs):
        spectrum = original(decomposition, *args, **kwargs)
        if decomposition.n != 120:
            return spectrum
        return replace(spectrum, representatives=np.delete(spectrum.representatives, spectrum.count // 2))

    monkeypatch.setattr(verify, "distinct_eigenvalues", dropping)
    results = run_checks(["spectral"])
    assert not _result(results, "grouping-idempotent").passed
    assert _result(results, "eigen-reconstruction").passed


def test_perturbed_closed_form_fails_eigen_reconstruction(monkeypatch):
    original = spectral._cycle_laplacian_eigenpairs

    def perturbed(n):
        eigenvalues, vectors = original(n)
        return eigenvalues * (1.0 + 1e-9), vectors

    monkeypatch.setattr(spectral, "_cycle_laplacian_eigenpairs", perturbed)
    # ||S - U L U^T|| stays within its 1e-8 bound; the gap to eigvalsh does not
    assert not _result(run_checks(["spectral"]), "eigen-reconstruction").passed


def test_wrong_interpolant_fails_reduction_soundness(monkeypatch):
    original = verify.lagrange_interpolate

    def perturbed(nodes, values):
        return original(nodes, np.asarray(values) * (1.0 + 1e-3))

    monkeypatch.setattr(verify, "lagrange_interpolate", perturbed)
    results = run_checks(["poly_filter"])
    assert not _result(results, "reduction-soundness").passed
    assert _result(results, "spatial-spectral-agreement").passed
