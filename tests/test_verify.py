"""The invariant suite's modules pass on their own sweeps, and the
invariants stated on eigenvalue values fail on a wrong grouping, closed
form or interpolant."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from graphkalman import spectral, verify
from graphkalman.filters import VERDICT_NON_STRICT, VERDICT_STRICT
from graphkalman.verify import format_report, run_checks


def _assert_plain_bools(results):
    # a numpy bool would make json.dumps(dataclasses.asdict(result)) raise TypeError
    assert [r.name for r in results if type(r.passed) is not bool] == []
    for result in results:
        json.dumps(dataclasses.asdict(result))


def test_dynamics_kalman_and_baselines_invariants_pass():
    results = run_checks(["dynamics", "kalman", "baselines"])
    assert len(results) == 11
    assert all(result.passed for result in results), format_report(results)
    _assert_plain_bools(results)


def test_graph_spectral_filter_and_stationary_invariants_pass():
    results = run_checks(["graph_core", "spectral", "poly_filter", "stationary"])
    assert len(results) == 14
    assert all(result.passed for result in results), format_report(results)
    _assert_plain_bools(results)


def test_experiment_invariants_pass():
    # with the two tests above, tier-1 runs every invariant of the verify report
    results = run_checks(["experiment"])
    assert len(results) == 3
    assert all(result.passed for result in results), format_report(results)
    _assert_plain_bools(results)


def _result(results, name):
    return next(result for result in results if result.name == name)


_VALIDATE = verify.validate_shift
# validate_shift with one of its rules dropped, or all of them
WEAK_VALIDATORS = {
    "always-true": lambda graph, m: True,
    "no-support-rule": lambda graph, m: bool(np.isfinite(m).all() and np.array_equal(m, m.T)),
    "no-symmetry-rule": lambda graph, m: _VALIDATE(graph, 0.5 * (m + m.T)),
    "no-finite-rule": lambda graph, m: _VALIDATE(graph, np.nan_to_num(m)),
}


@pytest.mark.parametrize("weak", WEAK_VALIDATORS.values(), ids=WEAK_VALIDATORS.keys())
def test_weakened_validate_shift_fails_validate_accepts_built_shifts(monkeypatch, weak):
    # a built shift has passed validate_shift in its constructor, so only the
    # mutants it must refuse let this check fail
    monkeypatch.setattr(verify, "validate_shift", weak)
    results = run_checks(["graph_core"])
    assert not _result(results, "validate-accepts-built-shifts").passed
    assert _result(results, "shift-symmetry-exact").passed


def _drop_middle_representative(spectrum):
    """Leave the middle representative out of the spectrum's cached grouping."""
    representatives = spectrum.representatives
    spectrum.__dict__["representatives"] = np.delete(representatives, representatives.size // 2)
    return spectrum


def test_dropped_representative_fails_minimal_poly_annihilates(monkeypatch):
    original = verify.eigendecompose
    monkeypatch.setattr(verify, "eigendecompose", lambda shift: _drop_middle_representative(original(shift)))
    assert not _result(run_checks(["spectral"]), "minimal-poly-annihilates").passed


def test_dropped_representative_on_c120_fails_grouping_idempotent(monkeypatch):
    # on C_120 the scaled annihilation residual cannot see the missing factor
    # (about 2e-16); the grouping compared with eigvalsh's does
    original = verify.eigendecompose

    def dropping(shift):
        spectrum = original(shift)
        return _drop_middle_representative(spectrum) if shift.n == 120 else spectrum

    monkeypatch.setattr(verify, "eigendecompose", dropping)
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


def test_flipped_spectral_strictness_fails_verdict_agreement(monkeypatch):
    original = verify.spectral_loewner_less

    def flipped(left, right, spectrum):
        comparison = original(left, right, spectrum)
        verdict = VERDICT_NON_STRICT if comparison.verdict == VERDICT_STRICT else VERDICT_STRICT
        return dataclasses.replace(comparison, verdict=verdict)

    monkeypatch.setattr(verify, "spectral_loewner_less", flipped)
    results = run_checks(["baselines"])
    assert not _result(results, "matrix-and-spectral-verdicts-agree").passed
    assert _result(results, "kalman-strictly-beats-inverse").passed
    assert _result(results, "kalman-strictly-beats-zero").passed
