"""Invariant suite: every module's documented properties, runnable from the CLI.

Each check runs a deterministic sweep at the documented tolerance and
reports pass/fail with the worst observed value.  The random-sweep
generators here are also reused by the test suite.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kalman as kalman_mod
from .baselines import (
    VERDICT_STRICT,
    inverse_error_covariance,
    loewner_less,
    spectral_loewner_less,
    zero_estimate,
)
from .dynamics import DynamicalSystem, covariance_sequence, simulate
from .experiment import ExperimentConfig, run_heatmap, write_heatmap_csv
from .filters import apply_filter, eval_filter, is_polynomial_filter
from .graphs import Graph, build_shift, cycle_graph, validate_shift
from .polynomials import Polynomial, reduce_mod_minimal
from .seeding import child_sequence, generator
from .spectral import distinct_eigenvalues, eigendecompose, minimal_polynomial
from .stationary import StationaryModel, fit_covariance_poly, sample, sqrt_filter, whiten


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# random sweep material
# ---------------------------------------------------------------------------


def random_graph(rng: np.random.Generator, n: int) -> Graph:
    """Connected random graph: a random spanning tree plus extra edges."""
    edges: dict[tuple[int, int], float] = {}
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges[(u, v)] = float(rng.uniform(0.2, 1.5))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < 0.25:
                edges[(i, j)] = float(rng.uniform(0.2, 1.5))
    return Graph.from_edges(n, [(i, j, w) for (i, j), w in edges.items()])


def random_shift(rng: np.random.Generator, n: int):
    graph = random_graph(rng, n)
    kind = ("adjacency", "laplacian")[int(rng.integers(0, 2))]
    return build_shift(graph, kind)


def random_polynomial(rng: np.random.Generator, max_degree: int = 3) -> Polynomial:
    degree = int(rng.integers(0, max_degree + 1))
    return Polynomial(tuple(rng.uniform(-1.0, 1.0, degree + 1)))


def _scaled_poly(rng, eigenvalues, max_degree: int, target: float) -> Polynomial:
    """Random polynomial rescaled so its largest response magnitude is ``target``."""
    for _ in range(50):
        poly = random_polynomial(rng, max_degree)
        peak = float(np.max(np.abs(np.atleast_1d(poly(eigenvalues)))))
        if peak > 1e-9:
            return (target / peak) * poly
    return Polynomial.constant(target)


def _all_pass_poly(rng, representatives, max_degree: int, floor: float = 0.05) -> Polynomial:
    for _ in range(200):
        poly = _scaled_poly(rng, representatives, max_degree, float(rng.uniform(0.5, 1.5)))
        if float(np.min(np.abs(np.atleast_1d(poly(representatives))))) > floor:
            return poly
    return Polynomial.constant(float(rng.uniform(0.5, 1.5)))


def random_psd_poly(rng: np.random.Generator) -> Polynomial:
    """Manifestly PSD covariance polynomial: a squared affine term plus a constant."""
    q = Polynomial((float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))))
    return q * q + float(rng.uniform(0.05, 0.5))


def random_system(
    rng: np.random.Generator,
    n_max: int = 12,
    steps: int = 50,
    all_pass: bool = False,
    zero_initial: bool | None = None,
) -> DynamicalSystem:
    """Random time-invariant system with mildly stable dynamics.

    The state response magnitude is capped near 1 so 50-step error
    covariances stay within floating-point range.
    """
    n = int(rng.integers(4, n_max + 1))
    shift = random_shift(rng, n)
    decomposition = eigendecompose(shift)
    spectrum = distinct_eigenvalues(decomposition)
    a = _scaled_poly(rng, decomposition.eigenvalues, 3, float(rng.uniform(0.3, 1.05)))
    if all_pass:
        b = _all_pass_poly(rng, spectrum.representatives, 3)
    else:
        b = _scaled_poly(rng, decomposition.eigenvalues, 3, float(rng.uniform(0.3, 1.5)))
    if zero_initial is None:
        zero_initial = bool(rng.random() < 0.5)
    h0 = Polynomial.zero() if zero_initial else random_psd_poly(rng)
    return DynamicalSystem.from_constant(
        shift,
        a,
        b,
        sigma=float(rng.uniform(0.1, 2.0)),
        sigma_tilde=float(rng.uniform(0.1, 2.0)),
        horizon=steps,
        initial_covariance=h0,
        decomposition=decomposition,
        spectrum=spectrum,
    )


def matrix_riccati_path(sys: DynamicalSystem, p0: Polynomial, steps: int):
    """Dense-recursion gains and error covariances, independent of the spectral path."""
    p = eval_filter(reduce_mod_minimal(p0, sys.minimal_poly), sys.decomposition).matrix
    gains = []
    errors = []
    for k in range(1, steps + 1):
        a = eval_filter(sys.state_poly(k), sys.decomposition).matrix
        b = eval_filter(sys.observation_poly(k), sys.decomposition).matrix
        gain = kalman_mod.matrix_gain(p, a, b, sys.state_sigma(k), sys.observation_sigma(k))
        p = kalman_mod.matrix_error_update(
            p, a, b, sys.state_sigma(k), sys.observation_sigma(k), gain=gain
        )
        gains.append(gain)
        errors.append(p)
    return gains, errors


def joint_error_covariances(sys: DynamicalSystem, riccati, steps: int):
    """Exact covariances of (state, estimate) under the filter recursion.

    Yields per step k the pair (cov(xhat_k - x_k), cov(xhat_k)) computed by
    dense linear propagation of the joint covariance, with xhat_0 = 0.
    """
    n = sys.n
    h0 = eval_filter(reduce_mod_minimal(sys.initial_covariance, sys.minimal_poly), sys.decomposition).matrix
    joint = np.zeros((2 * n, 2 * n))
    joint[:n, :n] = h0
    eye = np.eye(n)
    out = []
    for k in range(1, steps + 1):
        a = eval_filter(sys.state_poly(k), sys.decomposition).matrix
        b = eval_filter(sys.observation_poly(k), sys.decomposition).matrix
        gain = eval_filter(riccati.gains[k - 1], sys.decomposition).matrix
        sigma = sys.state_sigma(k)
        sigma_tilde = sys.observation_sigma(k)
        kb = gain @ b
        transition = np.block([[a, np.zeros((n, n))], [kb @ a, (eye - kb) @ a]])
        noise = np.block(
            [
                [sigma**2 * eye, sigma**2 * kb.T],
                [sigma**2 * kb, sigma**2 * kb @ kb.T + sigma_tilde**2 * gain @ gain.T],
            ]
        )
        joint = transition @ joint @ transition.T + noise
        joint = 0.5 * (joint + joint.T)
        err = joint[:n, :n] - joint[:n, n:] - joint[n:, :n] + joint[n:, n:]
        out.append((0.5 * (err + err.T), joint[n:, n:].copy()))
    return out


# ---------------------------------------------------------------------------
# per-module checks
# ---------------------------------------------------------------------------


def _sample_graphs(rng):
    graphs = [cycle_graph(4), cycle_graph(5), cycle_graph(30)]
    graphs += [random_graph(rng, int(rng.integers(4, 12))) for _ in range(5)]
    return graphs


def _integer_weight_graph(rng, n: int) -> Graph:
    graph = random_graph(rng, n)
    return Graph.from_edges(n, [(i, j, float(int(rng.integers(1, 5)))) for (i, j) in graph.edges])


def check_graph_core() -> list[CheckResult]:
    rng = generator(101)
    results = []
    worst_asym = 0.0
    worst_rowsum_int = 0.0
    worst_rowsum_rel = 0.0
    roundtrip_ok = True
    for graph in _sample_graphs(rng):
        for kind in ("adjacency", "degree", "laplacian"):
            shift = build_shift(graph, kind)
            worst_asym = max(worst_asym, float(np.max(np.abs(shift.matrix - shift.matrix.T))))
            if not validate_shift(graph, shift.matrix):
                roundtrip_ok = False
        custom = build_shift(graph, "custom", matrix=np.eye(graph.n))
        if not validate_shift(graph, custom.matrix):
            roundtrip_ok = False
        lap = build_shift(graph, "laplacian").matrix
        degrees = np.abs(lap).sum(axis=1).max()
        worst_rowsum_rel = max(
            worst_rowsum_rel, float(np.max(np.abs(lap.sum(axis=1)))) / max(1.0, float(degrees))
        )
    # exact cancellation is representable (and required) for integer weights
    for graph in [cycle_graph(4), cycle_graph(30)] + [
        _integer_weight_graph(rng, int(rng.integers(4, 12))) for _ in range(5)
    ]:
        lap = build_shift(graph, "laplacian").matrix
        worst_rowsum_int = max(worst_rowsum_int, float(np.max(np.abs(lap.sum(axis=1)))))
    results.append(CheckResult("graph_core", "shift-symmetry-exact", worst_asym == 0.0, f"max asymmetry {worst_asym:g}"))
    results.append(
        CheckResult(
            "graph_core",
            "laplacian-row-sums-zero",
            worst_rowsum_int == 0.0 and worst_rowsum_rel <= 4 * np.finfo(float).eps,
            f"integer-weight max {worst_rowsum_int:g}; float-weight relative max {worst_rowsum_rel:.2e}",
        )
    )
    results.append(CheckResult("graph_core", "validate-accepts-built-shifts", roundtrip_ok, ""))
    return results


def check_spectral() -> list[CheckResult]:
    rng = generator(202)
    worst_recon = 0.0
    worst_minpoly = 0.0
    idempotent = True
    for _ in range(8):
        shift = random_shift(rng, int(rng.integers(4, 12)))
        decomp = eigendecompose(shift)
        lam, u = decomp.eigenvalues, decomp.eigenvectors
        recon = (u * lam) @ u.T
        worst_recon = max(worst_recon, float(np.linalg.norm(shift.matrix - recon)))
        spectrum = distinct_eigenvalues(decomp)
        p_s = minimal_polynomial(spectrum)
        annihilated = apply_filter(p_s, shift, np.eye(shift.n))
        norm_s = float(np.linalg.norm(shift.matrix, 2))
        scale = 1e-8 * max(1.0, norm_s) ** spectrum.count
        worst_minpoly = max(worst_minpoly, float(np.linalg.norm(annihilated)) / scale)
        gaps = np.diff(spectrum.representatives)
        if gaps.size and np.min(gaps) <= spectrum.tol:
            idempotent = False
    for n in (4, 8, 30):
        decomp = eigendecompose(build_shift(cycle_graph(n), "laplacian"))
        spectrum = distinct_eigenvalues(decomp)
        gaps = np.diff(spectrum.representatives)
        if gaps.size and np.min(gaps) <= spectrum.tol:
            idempotent = False
    return [
        CheckResult("spectral", "eigen-reconstruction", worst_recon <= 1e-8, f"worst ||S - U L U^T|| = {worst_recon:.3e}"),
        CheckResult("spectral", "minimal-poly-annihilates", worst_minpoly <= 1.0, f"worst scaled residual {worst_minpoly:.3e}"),
        CheckResult("spectral", "grouping-idempotent", idempotent, "representatives separated by more than tol"),
    ]


def check_poly_filter() -> list[CheckResult]:
    rng = generator(303)
    worst_hom = 0.0
    worst_comm = 0.0
    worst_reduce = 0.0
    worst_spatial = 0.0
    for _ in range(20):
        shift = random_shift(rng, int(rng.integers(4, 11)))
        decomp = eigendecompose(shift)
        spectrum = distinct_eigenvalues(decomp)
        p_s = minimal_polynomial(spectrum)
        f = random_polynomial(rng, 6)
        g = random_polynomial(rng, 6)
        ef, eg = eval_filter(f, decomp).matrix, eval_filter(g, decomp).matrix
        sum_gap = np.linalg.norm(eval_filter(f + g, decomp).matrix - (ef + eg))
        prod = eval_filter(f * g, decomp).matrix
        prod_gap = np.linalg.norm(prod - ef @ eg)
        scale = max(1.0, np.linalg.norm(ef) + np.linalg.norm(eg), np.linalg.norm(prod))
        worst_hom = max(worst_hom, float(sum_gap / scale), float(prod_gap / scale))
        comm = np.linalg.norm(ef @ shift.matrix - shift.matrix @ ef)
        worst_comm = max(
            worst_comm,
            float(comm / max(1e-30, np.linalg.norm(ef) * np.linalg.norm(shift.matrix))),
        )
        high = random_polynomial(rng, 12)
        reduced = reduce_mod_minimal(high, p_s)
        red_gap = np.linalg.norm(
            eval_filter(high, decomp).matrix - eval_filter(reduced, decomp).matrix
        )
        worst_reduce = max(worst_reduce, float(red_gap / max(1.0, np.linalg.norm(eval_filter(high, decomp).matrix))))
    for _ in range(100):
        shift = random_shift(rng, int(rng.integers(4, 11)))
        decomp = eigendecompose(shift)
        h = random_polynomial(rng, 6)
        x = rng.standard_normal(shift.n)
        spatial = apply_filter(h, shift, x)
        spectral = eval_filter(h, decomp).matrix @ x
        worst_spatial = max(
            worst_spatial,
            float(np.linalg.norm(spatial - spectral) / max(1e-30, np.linalg.norm(spectral))),
        )

    circulant_ok, circulant_detail = _circulant_characterization(generator(304))
    return [
        CheckResult("poly_filter", "frequency-response-homomorphism", worst_hom <= 1e-8, f"worst relative gap {worst_hom:.3e}"),
        CheckResult("poly_filter", "filter-shift-commutation", worst_comm <= 1e-8, f"worst relative gap {worst_comm:.3e}"),
        CheckResult("poly_filter", "reduction-soundness", worst_reduce <= 1e-7, f"worst relative gap {worst_reduce:.3e}"),
        CheckResult("poly_filter", "spatial-spectral-agreement", worst_spatial <= 1e-9, f"worst relative gap {worst_spatial:.3e}"),
        CheckResult("poly_filter", "cycle-circulant-characterization", circulant_ok, circulant_detail),
    ]


def circulant_basis(n: int) -> list[np.ndarray]:
    """Symmetric circulant generators: identity and the symmetrized cyclic powers."""
    shift_mat = np.roll(np.eye(n), 1, axis=0)
    basis = [np.eye(n)]
    for j in range(1, n // 2 + 1):
        power = np.linalg.matrix_power(shift_mat, j)
        basis.append(0.5 * (power + power.T) * (2.0 if 2 * j == n else 1.0))
    return basis


def _circulant_characterization(rng) -> tuple[bool, str]:
    decomp = eigendecompose(build_shift(cycle_graph(8), "laplacian"))
    spectrum = distinct_eigenvalues(decomp)
    for mat in circulant_basis(8):
        if not is_polynomial_filter(mat, decomp, spectrum).is_member:
            return False, "symmetric circulant rejected"
    pure_shift = np.roll(np.eye(8), 1, axis=0)
    if is_polynomial_filter(pure_shift, decomp, spectrum).is_member:
        return False, "pure cyclic shift accepted"
    for _ in range(20):
        m = rng.standard_normal((8, 8))
        m = 0.5 * (m + m.T)
        if is_polynomial_filter(m, decomp, spectrum).is_member:
            return False, "random symmetric non-circulant accepted"
    return True, "5 circulant generators accepted; 21 non-members rejected"


def check_stationary() -> list[CheckResult]:
    rng = generator(404)
    worst_closure = 0.0
    worst_roundtrip = 0.0
    worst_shift_comm = 0.0
    for _ in range(15):
        shift = random_shift(rng, int(rng.integers(4, 11)))
        decomp = eigendecompose(shift)
        spectrum = distinct_eigenvalues(decomp)
        h = random_psd_poly(rng)
        model = StationaryModel(h, decomp, spectrum)
        q = random_polynomial(rng, 3)
        hs = eval_filter(h, decomp).matrix
        qs = eval_filter(q, decomp).matrix
        closure_gap = np.linalg.norm(qs @ hs @ qs - eval_filter(q * q * h, decomp).matrix)
        worst_closure = max(worst_closure, float(closure_gap))
        x = sample(model, rng)
        noise = whiten(x, model, rng)
        rebuilt = apply_filter(sqrt_filter(model), shift, noise)
        worst_roundtrip = max(
            worst_roundtrip,
            float(np.linalg.norm(rebuilt - x) / max(1e-12, np.linalg.norm(x))),
        )
        comm = np.linalg.norm(shift.matrix @ hs - hs @ shift.matrix)
        worst_shift_comm = max(worst_shift_comm, float(comm))
    return [
        CheckResult("stationary", "polynomial-channel-closure", worst_closure <= 1e-8, f"worst gap {worst_closure:.3e}"),
        CheckResult("stationary", "whitening-left-inverse", worst_roundtrip <= 1e-8, f"worst relative residual {worst_roundtrip:.3e}"),
        CheckResult("stationary", "covariance-shift-invariance", worst_shift_comm <= 1e-8, f"worst commutator norm {worst_shift_comm:.3e}"),
    ]


def check_dynamics() -> list[CheckResult]:
    rng = generator(505)
    worst_cov = 0.0
    for _ in range(10):
        sys = random_system(rng, n_max=10, steps=20)
        hs = covariance_sequence(sys)
        cov = eval_filter(hs[0], sys.decomposition).matrix
        for k in range(1, 21):
            a = eval_filter(sys.state_poly(k), sys.decomposition).matrix
            cov = a @ cov @ a.T + sys.state_sigma(k) ** 2 * np.eye(sys.n)
            cov = 0.5 * (cov + cov.T)
            gap = np.linalg.norm(cov - eval_filter(hs[k], sys.decomposition).matrix)
            worst_cov = max(worst_cov, float(gap))
    stream_ok = True
    sys = random_system(generator(506), n_max=8, steps=12, zero_initial=False)
    trajectory = simulate(sys, 987)
    x0 = sample(sys.initial_model, generator(child_sequence(trajectory.seed, 0)))
    if not np.array_equal(trajectory.states[0], x0):
        stream_ok = False
    for k in range(1, sys.horizon + 1):
        e = generator(child_sequence(trajectory.seed, 2 * k - 1)).standard_normal(sys.n)
        expected = apply_filter(sys.state_poly(k), sys.shift, trajectory.states[k - 1])
        if not np.array_equal(trajectory.states[k], expected + sys.state_sigma(k) * e):
            stream_ok = False
        e_obs = generator(child_sequence(trajectory.seed, 2 * k)).standard_normal(sys.n)
        expected_obs = apply_filter(sys.observation_poly(k), sys.shift, trajectory.states[k])
        if not np.array_equal(trajectory.observations[k - 1], expected_obs + sys.observation_sigma(k) * e_obs):
            stream_ok = False
    return [
        CheckResult("dynamics", "covariance-recursion-matches-matrix", worst_cov <= 1e-8, f"worst gap {worst_cov:.3e}"),
        CheckResult("dynamics", "noise-stream-accounting", stream_ok, "per-step noise re-derivable from child seeds"),
    ]


def check_kalman() -> list[CheckResult]:
    rng = generator(606)
    worst_dual = 0.0
    membership_ok = True
    for _ in range(15):
        sys = random_system(rng, n_max=12, steps=50)
        riccati = kalman_mod.riccati_sequence(sys)
        dense_gains, dense_errors = matrix_riccati_path(sys, sys.initial_covariance, sys.horizon)
        for k in range(sys.horizon):
            p_spec = eval_filter(riccati.error_polys[k], sys.decomposition).matrix
            g_spec = eval_filter(riccati.gains[k], sys.decomposition).matrix
            p_gap = np.linalg.norm(p_spec - dense_errors[k]) / max(1.0, np.linalg.norm(dense_errors[k]))
            g_gap = np.linalg.norm(g_spec - dense_gains[k]) / max(1.0, np.linalg.norm(dense_gains[k]))
            worst_dual = max(worst_dual, float(p_gap), float(g_gap))
            if not is_polynomial_filter(dense_gains[k], sys.decomposition, sys.spectrum).is_member:
                membership_ok = False
            if not is_polynomial_filter(dense_errors[k], sys.decomposition, sys.spectrum).is_member:
                membership_ok = False

    worst_stationarity = 0.0
    worst_fit = 0.0
    rng2 = generator(607)
    for _ in range(6):
        sys = random_system(rng2, n_max=10, steps=20)
        riccati = kalman_mod.riccati_sequence(sys)
        joint = joint_error_covariances(sys, riccati, sys.horizon)
        for k, (err_cov, est_cov) in enumerate(joint, start=1):
            gap = np.linalg.norm(
                err_cov - eval_filter(riccati.error_polys[k - 1], sys.decomposition).matrix
            )
            worst_stationarity = max(worst_stationarity, float(gap))
            _, residual = fit_covariance_poly(est_cov, sys.decomposition, sys.spectrum)
            worst_fit = max(worst_fit, float(residual))

    optimal_ok, optimal_detail = _gain_optimality(generator(608))
    mse_ok, mse_detail = _mse_identity(generator(609))
    return [
        CheckResult("kalman", "dual-form-equivalence", worst_dual <= 1e-9, f"worst relative gap {worst_dual:.3e}"),
        CheckResult("kalman", "gain-and-error-are-polynomial-filters", membership_ok, ""),
        CheckResult("kalman", "error-covariance-stationarity", worst_stationarity <= 1e-8, f"worst gap {worst_stationarity:.3e}"),
        CheckResult("kalman", "estimator-covariance-is-polynomial", worst_fit <= 1e-8, f"worst fit residual {worst_fit:.3e}"),
        CheckResult("kalman", "gain-optimality-perturbation", optimal_ok, optimal_detail),
        CheckResult("kalman", "mse-trace-identity", mse_ok, mse_detail),
    ]


def _gain_optimality(rng, delta: float = 1e-3) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(5):
        sys = random_system(rng, n_max=10, steps=10)
        riccati = kalman_mod.riccati_sequence(sys)
        mu = sys.spectrum.representatives
        p_values = riccati.initial_response
        for k in range(1, sys.horizon + 1):
            a = np.atleast_1d(sys.state_poly(k)(mu))
            b = np.atleast_1d(sys.observation_poly(k)(mu))
            sigma, sigma_tilde = sys.state_sigma(k), sys.observation_sigma(k)
            predicted = a**2 * p_values + sigma**2
            gains = np.atleast_1d(riccati.gains[k - 1](mu))

            def freq_mse(gamma, j):
                return (1 - gamma * b[j]) ** 2 * predicted[j] + gamma**2 * sigma_tilde**2

            for j in range(mu.size):
                base = freq_mse(gains[j], j)
                for sign in (+1.0, -1.0):
                    decrease = base - freq_mse(gains[j] + sign * delta, j)
                    worst = max(worst, float(decrease))
            p_values = np.atleast_1d(riccati.error_polys[k - 1](mu))
    ok = worst <= 1e-12
    return ok, f"largest one-step MSE decrease under perturbation {worst:.3e}"


def _mse_identity(rng, trials: int = 10_000) -> tuple[bool, str]:
    sys = random_system(rng, n_max=8, steps=12, zero_initial=False)
    riccati = kalman_mod.riccati_sequence(sys)
    n = sys.n
    x = sample(sys.initial_model, rng, size=trials)
    xhat = np.zeros((n, trials))
    for k in range(1, sys.horizon + 1):
        a = eval_filter(sys.state_poly(k), sys.decomposition).matrix
        b = eval_filter(sys.observation_poly(k), sys.decomposition).matrix
        gain = eval_filter(riccati.gains[k - 1], sys.decomposition).matrix
        x = a @ x + sys.state_sigma(k) * rng.standard_normal((n, trials))
        z = b @ x + sys.observation_sigma(k) * rng.standard_normal((n, trials))
        pred = a @ xhat
        xhat = pred + gain @ (z - b @ pred)
    squared_errors = np.sum((xhat - x) ** 2, axis=0)
    empirical = float(np.mean(squared_errors))
    stderr = float(np.std(squared_errors, ddof=1) / math.sqrt(trials))
    predicted = float(
        np.sum(np.atleast_1d(riccati.error_polys[-1](sys.decomposition.eigenvalues)))
    )
    gap = abs(empirical - predicted)
    return gap <= 3 * stderr, f"|empirical - trace| = {gap:.4f} vs 3 SE = {3 * stderr:.4f}"


def check_baselines() -> list[CheckResult]:
    rng = generator(707)
    inverse_ok = True
    zero_ok = True
    agree_ok = True
    worst_margin = math.inf
    for _ in range(50):
        sys = random_system(rng, n_max=12, steps=20, all_pass=True)
        riccati = kalman_mod.riccati_sequence(sys)
        mu = sys.spectrum.representatives
        hs = covariance_sequence(sys)
        for k in range(1, sys.horizon + 1):
            p_poly = riccati.error_polys[k - 1]
            inv_poly = inverse_error_covariance(sys.observation_poly(k), sys.observation_sigma(k), sys.spectrum)
            h_poly = hs[k]
            p_mat = eval_filter(p_poly, sys.decomposition).matrix
            for right_poly, tracker in ((inv_poly, "inverse"), (h_poly, "zero")):
                right_mat = eval_filter(right_poly, sys.decomposition).matrix
                matrix_cmp = loewner_less(p_mat, right_mat)
                spectral_cmp = spectral_loewner_less(p_poly, right_poly, sys.spectrum)
                scalar_strict = bool(
                    np.all(np.atleast_1d(right_poly(mu)) - np.atleast_1d(p_poly(mu)) > spectral_cmp.tol)
                )
                if matrix_cmp.verdict != VERDICT_STRICT:
                    if tracker == "inverse":
                        inverse_ok = False
                    else:
                        zero_ok = False
                if (matrix_cmp.verdict == VERDICT_STRICT) != scalar_strict or (
                    spectral_cmp.verdict == VERDICT_STRICT
                ) != scalar_strict:
                    agree_ok = False
                worst_margin = min(worst_margin, matrix_cmp.min_eigenvalue)
        zero_signal, _ = zero_estimate(sys, sys.horizon)
        if np.any(zero_signal != 0.0):
            zero_ok = False
    detail = f"smallest Loewner margin {worst_margin:.3e}"
    return [
        CheckResult("baselines", "kalman-strictly-beats-inverse", inverse_ok, detail),
        CheckResult("baselines", "kalman-strictly-beats-zero", zero_ok, detail),
        CheckResult("baselines", "matrix-and-spectral-verdicts-agree", agree_ok, ""),
    ]


def check_experiment() -> list[CheckResult]:
    small = ExperimentConfig(
        n=12,
        m=20,
        trials=3,
        sigma_grid=(0.2, 0.6),
        sigma_tilde_grid=(0.3, 0.9),
        seed=777,
    )
    first = io.StringIO()
    second = io.StringIO()
    write_heatmap_csv(run_heatmap(small), "kalman", first)
    write_heatmap_csv(run_heatmap(small), "kalman", second)
    deterministic = first.getvalue() == second.getvalue()

    row = ExperimentConfig(sigma_grid=(0.3,))
    row_result = run_heatmap(row)
    values = row_result.kalman[0]
    sems = row_result.kalman_sem[0]
    monotone = True
    worst_drop = 0.0
    for j in range(1, values.size):
        slack = 3.0 * math.sqrt(sems[j] ** 2 + sems[j - 1] ** 2)
        drop = values[j - 1] - values[j]
        worst_drop = max(worst_drop, float(drop - slack))
        if drop > slack:
            monotone = False

    coarse = ExperimentConfig(sigma_grid=(0.25, 0.5, 0.75, 1.0), sigma_tilde_grid=(0.25, 0.5, 0.75, 1.0))
    coarse_result = run_heatmap(coarse)
    dominance = True
    for i in range(len(coarse.sigma_grid)):
        for j in range(len(coarse.sigma_tilde_grid)):
            if coarse_result.flagged[i, j]:
                continue
            slack = 3.0 * math.sqrt(
                coarse_result.kalman_sem[i, j] ** 2 + coarse_result.inverse_sem[i, j] ** 2
            )
            if coarse_result.kalman[i, j] > coarse_result.inverse[i, j] + slack:
                dominance = False

    return [
        CheckResult("experiment", "heatmap-determinism", deterministic, "byte-identical CSV on re-run"),
        CheckResult("experiment", "kalman-error-monotone-in-observation-noise", monotone, f"worst drop beyond slack {worst_drop:.3e}"),
        CheckResult("experiment", "kalman-dominates-inverse", dominance, "coarse grid spot check"),
    ]


MODULE_CHECKS: dict[str, Callable[[], list[CheckResult]]] = {
    "graph_core": check_graph_core,
    "spectral": check_spectral,
    "poly_filter": check_poly_filter,
    "stationary": check_stationary,
    "dynamics": check_dynamics,
    "kalman": check_kalman,
    "baselines": check_baselines,
    "experiment": check_experiment,
}


def run_checks(modules: list[str] | None = None) -> list[CheckResult]:
    """Run the invariant suite, optionally restricted to named modules."""
    if modules is None:
        selected = list(MODULE_CHECKS)
    else:
        unknown = [m for m in modules if m not in MODULE_CHECKS]
        if unknown:
            raise ValueError(f"unknown modules {unknown}; choose from {sorted(MODULE_CHECKS)}")
        selected = modules
    results: list[CheckResult] = []
    for module in selected:
        try:
            results.extend(MODULE_CHECKS[module]())
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(module, "suite-crashed", False, f"{type(exc).__name__}: {exc}"))
    return results


def format_report(results: list[CheckResult]) -> str:
    width_module = max(len(r.module) for r in results)
    width_name = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.module:<{width_module}}  {r.name:<{width_name}}  {status}  {r.detail}")
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} invariants passed")
    return "\n".join(lines)
