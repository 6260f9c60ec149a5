"""Invariant suite: every module's documented properties, runnable from the CLI.

Each check runs a deterministic sweep at the documented tolerance and
reports pass/fail with the worst observed value.  Covariance, gain and
baseline results are compared as whole-horizon arrays of responses at the
distinct eigenvalues; ``response_matrix`` builds their dense form, and the
dense oracles (``matrix_*_path``, ``joint_error_covariances``) run the whole
horizon from h_0 as n x n matrices.  The test suite reuses the oracles and
the random-sweep generators.
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
)
from .dynamics import DynamicalSystem, covariance_responses, simulate
from .experiment import ExperimentConfig, run_heatmap, write_heatmap_csv
from .filters import apply_filter, eval_filter, is_polynomial_filter
from .graphs import Graph, build_shift, cycle_graph, validate_shift
from .polynomials import Polynomial, lagrange_interpolate
from .seeding import child_sequence, generator
from .spectral import eigendecompose
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
            scale = target / peak
            return Polynomial(tuple(scale * c for c in poly.coeffs))
    return Polynomial.constant(target)


def _all_pass_poly(rng, representatives, max_degree: int, floor: float = 0.05) -> Polynomial:
    for _ in range(200):
        poly = _scaled_poly(rng, representatives, max_degree, float(rng.uniform(0.5, 1.5)))
        if float(np.min(np.abs(np.atleast_1d(poly(representatives))))) > floor:
            return poly
    return Polynomial.constant(float(rng.uniform(0.5, 1.5)))


def random_psd_poly(rng: np.random.Generator) -> Polynomial:
    """Manifestly PSD covariance polynomial: a squared affine term plus a constant."""
    q0, q1 = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
    c = float(rng.uniform(0.05, 0.5))
    return Polynomial((q0 * q0 + c, 2.0 * q0 * q1, q1 * q1))


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
    spectrum = eigendecompose(random_shift(rng, n))
    lam = spectrum.eigenvalues
    a = _scaled_poly(rng, lam, 3, float(rng.uniform(0.3, 1.05)))
    if all_pass:
        b = _all_pass_poly(rng, spectrum.representatives, 3)
    else:
        b = _scaled_poly(rng, lam, 3, float(rng.uniform(0.3, 1.5)))
    if zero_initial is None:
        zero_initial = bool(rng.random() < 0.5)
    h0 = Polynomial.zero() if zero_initial else random_psd_poly(rng)
    return DynamicalSystem.from_constant(
        spectrum,
        a,
        b,
        sigma=float(rng.uniform(0.1, 2.0)),
        sigma_tilde=float(rng.uniform(0.1, 2.0)),
        horizon=steps,
        initial_covariance=h0,
    )


def _steps(sys: DynamicalSystem):
    """(a_k, b_k, sigma_k, sigma_tilde_k) of steps 1..M.  The dense oracles
    evaluate each step's polynomials themselves, which keeps them independent
    of the spectral path's eigenvalue grouping."""
    return zip(sys.state_polys, sys.observation_polys, sys.state_noise, sys.observation_noise)


def response_matrix(sys: DynamicalSystem, responses: np.ndarray) -> np.ndarray:
    """Dense U diag(r) U^T of responses r at the system's distinct eigenvalues."""
    return sys.spectrum.operator(sys.spectrum.expand(responses))


def matrix_covariance_path(sys: DynamicalSystem) -> list[np.ndarray]:
    """Dense state covariances H_0..H_M, item k for step k, from the system's
    h_0 by H_k = A_k H_{k-1} A_k^T + sigma_k^2 I, independent of the
    spectral path."""
    cov = eval_filter(sys.initial_covariance, sys.spectrum)
    covariances = [cov]
    for state_poly, sigma in zip(sys.state_polys, sys.state_noise):
        a = eval_filter(state_poly, sys.spectrum)
        cov = a @ cov @ a.T + sigma**2 * np.eye(sys.n)
        cov = 0.5 * (cov + cov.T)
        covariances.append(cov)
    return covariances


def matrix_riccati_path(sys: DynamicalSystem):
    """Dense-recursion gains and error covariances of steps 1..M, item k - 1
    for step k, from the system's h_0, independent of the spectral path."""
    p = eval_filter(sys.initial_covariance, sys.spectrum)
    gains = []
    errors = []
    for state_poly, observation_poly, sigma, sigma_tilde in _steps(sys):
        a = eval_filter(state_poly, sys.spectrum)
        b = eval_filter(observation_poly, sys.spectrum)
        gain, p = kalman_mod.matrix_riccati_step(p, a, b, sigma, sigma_tilde)
        gains.append(gain)
        errors.append(p)
    return gains, errors


def joint_error_covariances(sys: DynamicalSystem, riccati):
    """Exact covariances of (state, estimate) under the filter recursion.

    Item k - 1 is step k's pair (cov(xhat_k - x_k), cov(xhat_k)), by dense
    linear propagation of the joint covariance from h_0 and xhat_0 = 0.
    """
    n = sys.n
    joint = np.zeros((2 * n, 2 * n))
    joint[:n, :n] = eval_filter(sys.initial_covariance, sys.spectrum)
    eye = np.eye(n)
    out = []
    for (state_poly, observation_poly, sigma, sigma_tilde), gain_row in zip(_steps(sys), riccati.gain_responses):
        a = eval_filter(state_poly, sys.spectrum)
        b = eval_filter(observation_poly, sys.spectrum)
        gain = response_matrix(sys, gain_row)
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


def annihilation_residual(spectrum) -> float:
    """||prod_mu (S - mu I)||_2 over the distinct eigenvalues mu, relative to
    prod_mu ||S - mu I||_2 = prod_mu max|lambda - mu|: about eps when the
    grouping kept every distinct eigenvalue.  The factors are applied to I
    one at a time (X <- S X - mu X), so no monomial coefficient is formed."""
    s = spectrum.shift.matrix
    eigenvalues = spectrum.eigenvalues
    x = np.eye(spectrum.n)
    scale = 1.0
    for mu in spectrum.representatives:
        x = s @ x - mu * x
        scale *= float(np.max(np.abs(eigenvalues - mu)))
    residual = float(np.linalg.norm(x, 2))
    # a one-point spectrum, S = mu I: the one factor is exactly zero
    return residual / scale if scale > 0.0 else residual


def _cycle_laplacian_spectrum(n: int):
    return eigendecompose(build_shift(cycle_graph(n), "laplacian"))


def _same_grouping(spectrum, values: np.ndarray) -> bool:
    """Whether single-linkage grouping of the ascending ``values`` at the
    spectrum's tolerance gives its count, multiplicities and, within
    1e-12 max(1, |mu|), its representatives."""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(values) > spectrum.tol) + 1))
    sizes = np.diff(np.append(starts, values.size))
    means = np.add.reduceat(values, starts) / sizes
    return (
        sizes.size == spectrum.count
        and np.array_equal(spectrum.multiplicities, sizes)
        and bool(np.all(np.abs(spectrum.representatives - means) <= 1e-12 * np.maximum(1.0, np.abs(means))))
    )


def check_spectral() -> list[CheckResult]:
    """Random shifts go through LAPACK; the cycle Laplacians get their closed
    form, which is checked against LAPACK's ``eigvalsh`` here."""
    rng = generator(202)
    spectra = [eigendecompose(random_shift(rng, int(rng.integers(4, 12)))) for _ in range(8)]
    cycles = [_cycle_laplacian_spectrum(n) for n in (4, 5, 8, 30, 31, 120)]
    worst_recon = worst_orth = worst_lapack = 0.0
    regrouped = 0
    for spectrum in spectra + cycles:
        worst_recon = max(worst_recon, float(np.linalg.norm(spectrum.shift.matrix - spectrum.operator(spectrum.eigenvalues))))
        worst_orth = max(worst_orth, float(np.linalg.norm(spectrum.in_eigenbasis(np.eye(spectrum.n)) - np.eye(spectrum.n))))
    for spectrum in cycles:
        lam = spectrum.eigenvalues
        reference = np.linalg.eigvalsh(spectrum.shift.matrix)
        worst_lapack = max(worst_lapack, float(np.max(np.abs(lam - reference) / np.maximum(1.0, np.abs(reference)))))
        regrouped += not _same_grouping(spectrum, reference)
    spectra += cycles
    worst_minpoly = max(annihilation_residual(spectrum) for spectrum in spectra)
    separated = all(np.all(np.diff(spectrum.representatives) > spectrum.tol) for spectrum in spectra)
    return [
        CheckResult(
            "spectral",
            "eigen-reconstruction",
            worst_recon <= 1e-8 and worst_orth <= 1e-8 and worst_lapack <= 1e-12,
            f"worst ||S - U L U^T|| = {worst_recon:.3e}, ||U^T U - I|| = {worst_orth:.3e}; "
            f"cycle eigenvalues vs eigvalsh {worst_lapack:.3e}",
        ),
        CheckResult("spectral", "minimal-poly-annihilates", worst_minpoly <= 1e-12, f"worst scaled residual {worst_minpoly:.3e}"),
        CheckResult(
            "spectral",
            "grouping-idempotent",
            separated and regrouped == 0,
            f"representatives separated by more than tol; {regrouped} of {len(cycles)} cycle groupings differ from eigvalsh's",
        ),
    ]


def _reduction_gap(poly: Polynomial, spectrum) -> float:
    """Relative gap between p(S) and g(S), g the interpolant of p's values at
    the distinct eigenvalues: every polynomial of S is one of degree < d."""
    full = eval_filter(poly, spectrum)
    mu = spectrum.representatives
    reduced = eval_filter(lagrange_interpolate(mu, poly(mu)), spectrum)
    return float(np.linalg.norm(full - reduced) / max(1.0, np.linalg.norm(full)))


def check_poly_filter() -> list[CheckResult]:
    rng = generator(303)
    worst_hom = 0.0
    worst_comm = 0.0
    worst_reduce = 0.0
    worst_spatial = 0.0
    for _ in range(20):
        shift = random_shift(rng, int(rng.integers(4, 11)))
        spectrum = eigendecompose(shift)
        # filters add and compose as their responses f(lambda), g(lambda) do
        f_values = random_polynomial(rng, 6)(spectrum.eigenvalues)
        g_values = random_polynomial(rng, 6)(spectrum.eigenvalues)
        ef, eg = spectrum.operator(f_values), spectrum.operator(g_values)
        sum_gap = np.linalg.norm(spectrum.operator(f_values + g_values) - (ef + eg))
        prod = spectrum.operator(f_values * g_values)
        prod_gap = np.linalg.norm(prod - ef @ eg)
        scale = max(1.0, np.linalg.norm(ef) + np.linalg.norm(eg), np.linalg.norm(prod))
        worst_hom = max(worst_hom, float(sum_gap / scale), float(prod_gap / scale))
        comm = np.linalg.norm(ef @ shift.matrix - shift.matrix @ ef)
        worst_comm = max(
            worst_comm,
            float(comm / max(1e-30, np.linalg.norm(ef) * np.linalg.norm(shift.matrix))),
        )
        worst_reduce = max(worst_reduce, _reduction_gap(random_polynomial(rng, 12), spectrum))
    cycle_rng = generator(305)
    for n in (30, 120):
        spectrum = _cycle_laplacian_spectrum(n)
        # degree 2d, with terms of size <= 1 on the cycle's [0, 4]
        degree = 2 * spectrum.count
        high = Polynomial(tuple(cycle_rng.uniform(-1.0, 1.0, degree) / 4.0 ** np.arange(degree)))
        worst_reduce = max(worst_reduce, _reduction_gap(high, spectrum))
    for _ in range(100):
        shift = random_shift(rng, int(rng.integers(4, 11)))
        h = random_polynomial(rng, 6)
        x = rng.standard_normal(shift.n)
        spatial = apply_filter(h, shift, x)
        spectral = eval_filter(h, eigendecompose(shift)) @ x
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
    spectrum = _cycle_laplacian_spectrum(8)
    for mat in circulant_basis(8):
        if not is_polynomial_filter(mat, spectrum).is_member:
            return False, "symmetric circulant rejected"
    pure_shift = np.roll(np.eye(8), 1, axis=0)
    if is_polynomial_filter(pure_shift, spectrum).is_member:
        return False, "pure cyclic shift accepted"
    for _ in range(20):
        m = rng.standard_normal((8, 8))
        m = 0.5 * (m + m.T)
        if is_polynomial_filter(m, spectrum).is_member:
            return False, "random symmetric non-circulant accepted"
    return True, "5 circulant generators accepted; 21 non-members rejected"


def check_stationary() -> list[CheckResult]:
    rng = generator(404)
    worst_closure = 0.0
    worst_roundtrip = 0.0
    worst_shift_comm = 0.0
    for _ in range(15):
        shift = random_shift(rng, int(rng.integers(4, 11)))
        spectrum = eigendecompose(shift)
        h = random_psd_poly(rng)
        model = StationaryModel(h, spectrum)
        q = random_polynomial(rng, 3)
        hs = eval_filter(h, spectrum)
        qs = eval_filter(q, spectrum)
        # the channel q(S) keeps x stationary, with covariance response q^2 h
        closure = spectrum.operator(q(spectrum.eigenvalues) ** 2 * h(spectrum.eigenvalues))
        closure_gap = np.linalg.norm(qs @ hs @ qs - closure)
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


def _relative_gap(value: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(value - expected) / max(np.linalg.norm(expected), np.finfo(float).tiny))


def simulation_step_gaps(sys: DynamicalSystem, trajectory) -> list[float]:
    """Relative gap of x_0 to U diag(sqrt h_0) U^T e_0 and of every step to the
    vertex-space recursion from the previous simulated state, both driven by
    the rows of the re-drawn noise block."""
    noise = generator(child_sequence(trajectory.seed, 0)).standard_normal((2 * sys.horizon + 1, sys.n))
    scale = sys.spectrum.expand(np.sqrt(sys.initial_model.clamped_group_variances))
    gaps = [_relative_gap(trajectory.states[0], sys.spectrum.operator(scale) @ noise[0])]
    for k, (state_poly, observation_poly, sigma, sigma_tilde) in enumerate(_steps(sys), start=1):
        state = apply_filter(state_poly, sys.shift, trajectory.states[k - 1])
        gaps.append(_relative_gap(trajectory.states[k], state + sigma * noise[2 * k - 1]))
        read = apply_filter(observation_poly, sys.shift, trajectory.states[k])
        gaps.append(_relative_gap(trajectory.observations[k - 1], read + sigma_tilde * noise[2 * k]))
    return gaps


def check_dynamics() -> list[CheckResult]:
    rng = generator(505)
    worst_cov = 0.0
    for _ in range(10):
        sys = random_system(rng, n_max=10, steps=20)
        for h_k, dense in zip(covariance_responses(sys)[1:], matrix_covariance_path(sys)[1:]):
            worst_cov = max(worst_cov, float(np.linalg.norm(dense - response_matrix(sys, h_k))))
    sys = random_system(generator(506), n_max=8, steps=12, zero_initial=False)
    trajectory = simulate(sys, 987)
    worst_stream = max(simulation_step_gaps(sys, trajectory))
    return [
        CheckResult("dynamics", "covariance-recursion-matches-matrix", worst_cov <= 1e-8, f"worst gap {worst_cov:.3e}"),
        CheckResult("dynamics", "noise-stream-accounting", worst_stream <= 1e-12, f"noise block re-derived from the seed; worst relative step gap {worst_stream:.3e}"),
    ]


def check_kalman() -> list[CheckResult]:
    rng = generator(606)
    worst_dual = 0.0
    membership_ok = True
    for _ in range(15):
        sys = random_system(rng, n_max=12, steps=50)
        riccati = kalman_mod.riccati_sequence(sys)
        dense_gains, dense_errors = matrix_riccati_path(sys)
        for k in range(sys.horizon):
            p_spec = response_matrix(sys, riccati.error_responses[k])
            g_spec = response_matrix(sys, riccati.gain_responses[k])
            p_gap = np.linalg.norm(p_spec - dense_errors[k]) / max(1.0, np.linalg.norm(dense_errors[k]))
            g_gap = np.linalg.norm(g_spec - dense_gains[k]) / max(1.0, np.linalg.norm(dense_gains[k]))
            worst_dual = max(worst_dual, float(p_gap), float(g_gap))
            if not is_polynomial_filter(dense_gains[k], sys.spectrum).is_member:
                membership_ok = False
            if not is_polynomial_filter(dense_errors[k], sys.spectrum).is_member:
                membership_ok = False

    worst_stationarity = 0.0
    worst_fit = 0.0
    rng2 = generator(607)
    for _ in range(6):
        sys = random_system(rng2, n_max=10, steps=20)
        riccati = kalman_mod.riccati_sequence(sys)
        joint = joint_error_covariances(sys, riccati)
        for k, (err_cov, est_cov) in enumerate(joint, start=1):
            gap = np.linalg.norm(err_cov - response_matrix(sys, riccati.error_responses[k - 1]))
            worst_stationarity = max(worst_stationarity, float(gap))
            _, residual = fit_covariance_poly(est_cov, sys.spectrum)
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
        p_values = sys.initial_model.clamped_group_variances
        steps = zip(sys.state_responses, sys.observation_responses, sys.state_noise, sys.observation_noise)
        for (a, b, sigma, sigma_tilde), gains, errors in zip(steps, riccati.gain_responses, riccati.error_responses):
            predicted = a**2 * p_values + sigma**2

            def freq_mse(gamma, j):
                return (1 - gamma * b[j]) ** 2 * predicted[j] + gamma**2 * sigma_tilde**2

            for j in range(gains.size):
                base = freq_mse(gains[j], j)
                for sign in (+1.0, -1.0):
                    decrease = base - freq_mse(gains[j] + sign * delta, j)
                    worst = max(worst, float(decrease))
            p_values = errors
    ok = worst <= 1e-12
    return ok, f"largest one-step MSE decrease under perturbation {worst:.3e}"


def _mse_identity(rng, trials: int = 10_000) -> tuple[bool, str]:
    sys = random_system(rng, n_max=8, steps=12, zero_initial=False)
    riccati = kalman_mod.riccati_sequence(sys)
    n = sys.n
    x = sample(sys.initial_model, rng, size=trials)
    xhat = np.zeros((n, trials))
    for (state_poly, observation_poly, sigma, sigma_tilde), gain_row in zip(_steps(sys), riccati.gain_responses):
        a = eval_filter(state_poly, sys.spectrum)
        b = eval_filter(observation_poly, sys.spectrum)
        gain = response_matrix(sys, gain_row)
        x = a @ x + sigma * rng.standard_normal((n, trials))
        z = b @ x + sigma_tilde * rng.standard_normal((n, trials))
        pred = a @ xhat
        xhat = pred + gain @ (z - b @ pred)
    squared_errors = np.sum((xhat - x) ** 2, axis=0)
    empirical = float(np.mean(squared_errors))
    stderr = float(np.std(squared_errors, ddof=1) / math.sqrt(trials))
    predicted = float(np.sum(sys.spectrum.expand(riccati.error_responses[-1])))
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
        errors = kalman_mod.riccati_sequence(sys).error_responses
        inverses = inverse_error_covariance(sys)
        # the zero-signal strategy's error covariance is the state covariance
        states = covariance_responses(sys)[1:]
        for p, inverse, state in zip(errors, inverses, states):
            p_mat = response_matrix(sys, p)
            for right, tracker in ((inverse, "inverse"), (state, "zero")):
                matrix_cmp = loewner_less(p_mat, response_matrix(sys, right))
                spectral_cmp = spectral_loewner_less(p, right, sys.spectrum)
                scalar_strict = bool(np.all(right - p > spectral_cmp.tol))
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
