"""Correctness checks for the heatmap benchmark.

Two kinds of check, neither using the program's Kalman code:

* table checks on a ``HeatmapResult`` (range, trial counts, flags, and
  Kalman not worse than static inversion);
* a scalar eigenbasis Kalman filter that ``run_filter`` estimates are
  compared against, one scalar recursion per distinct eigenvalue.

A cell-trial that is NaN or off counts as failed, never as skipped.
"""
from __future__ import annotations

import math

import numpy as np

# Largest relative gap between a trial's Kalman estimates and the reference
# that still passes.  An estimate off by 1e-3 must fail; the float64 path
# matches to ~1e-14 on C_12.  The monomial-coefficient gain path loses digits
# as the gain degree grows (~3e-6 at sigma_tilde = 0 on C_30 at commit
# e00f719); that loss is reported through ref_err_log10 rather than failed here.
REF_TOL = 1e-4
# Reported in place of log10 of a relative gap that is NaN, inf or above it.
REF_ERR_CEILING_LOG10 = 3.0
# Kalman may read worse than inversion by this many combined standard errors.
SE_SLACK = 3.0


def reference_estimates(spectrum, decomposition, state_poly, observation_poly, sigma, sigma_tilde, observations):
    """Kalman estimates x_1..x_m from a zero estimate and zero error variance.

    Runs the scalar Riccati recursion at each distinct eigenvalue and filters
    in the eigenbasis; rows of ``observations`` are z_1..z_m.
    """
    mu = spectrum.representatives
    a, b = np.asarray(state_poly(mu), dtype=float), np.asarray(observation_poly(mu), dtype=float)
    a_all, b_all = spectrum.expand(a), spectrum.expand(b)
    u = decomposition.eigenvectors
    z_hat = np.asarray(observations, dtype=float) @ u
    p = np.zeros_like(mu)
    x_hat = np.zeros(u.shape[1])
    out = np.empty_like(z_hat)
    for k, z in enumerate(z_hat):
        predicted = a**2 * p + sigma**2
        if sigma_tilde > 0:
            denom = b**2 * predicted + sigma_tilde**2
            gain, p = predicted * b / denom, sigma_tilde**2 * predicted / denom
        else:
            gain, p = np.divide(1.0, b, out=np.zeros_like(b), where=b != 0), np.zeros_like(mu)
        x_hat = a_all * x_hat
        x_hat = x_hat + spectrum.expand(gain) * (z - b_all * x_hat)
        out[k] = x_hat
    return out @ u.T


def relative_gap(estimates, reference) -> float:
    """Worst per-step ||estimate - reference|| / ||reference||; inf if anything is not finite."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.shape != reference.shape or not np.all(np.isfinite(estimates)):
        return math.inf
    gaps = np.linalg.norm(estimates - reference, axis=1) / np.maximum(
        np.linalg.norm(reference, axis=1), np.finfo(float).tiny
    )
    return float(np.max(gaps, initial=0.0))


def gap_log10(gap: float) -> float:
    """log10 of a relative gap, at most the ceiling (NaN and inf read as the ceiling).

    An exact match reads as -18, below any float64 rounding gap.
    """
    if not math.isfinite(gap):
        return REF_ERR_CEILING_LOG10
    return min(math.log10(max(gap, 1e-18)), REF_ERR_CEILING_LOG10)


def failed_cells(result, config, metric_floor: float) -> dict[tuple[int, int], str]:
    """Cells of a heatmap table that fail a check, each with the first reason found.

    The heatmap starts every trial from a zero state with zero covariance, so
    exactly the sigma = 0 cells are degenerate and must be flagged.
    """
    failures: dict[tuple[int, int], str] = {}
    floor = math.log10(REF_TOL)
    for i, sigma in enumerate(config.sigma_grid):
        for j in range(len(config.sigma_tilde_grid)):
            flagged = bool(result.flagged[i, j])
            if flagged != (sigma == 0.0):
                failures[i, j] = f"flagged={flagged} at sigma={sigma}"
                continue
            if flagged:
                continue
            kalman, inverse = float(result.kalman[i, j]), float(result.inverse[i, j])
            if not all(math.isfinite(v) and metric_floor <= v <= config.clip for v in (kalman, inverse)):
                failures[i, j] = f"value outside [{metric_floor}, {config.clip}]: kalman={kalman} inverse={inverse}"
            elif int(result.n_trials[i, j]) != config.trials:
                failures[i, j] = f"n_trials={int(result.n_trials[i, j])}, expected {config.trials}"
            else:
                slack = SE_SLACK * math.hypot(float(result.kalman_sem[i, j]), float(result.inverse_sem[i, j]))
                # Below log10(REF_TOL) the comparison is within the oracle's tolerance.
                if kalman > inverse + slack and kalman > floor:
                    failures[i, j] = f"kalman {kalman} worse than inverse {inverse} + {slack}"
    return failures

