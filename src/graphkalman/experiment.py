"""Cycle-graph experiment: error heatmaps over noise grids, energy and vertex traces.

The experiment runs the time-invariant system on the unweighted cycle with
the Laplacian shift, comparing the Kalman filter against static inverse
filtering.  The Kalman filter runs in the eigenbasis of the shift (see
``kalman``); the dense matrix recursion is only the oracle in ``verify``.
Cells run one after another in a plain loop, with no worker pool, and each
trial is seeded from its cell and trial index alone, so results are
reproducible bit-for-bit for a fixed configuration.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import inverse_estimate
from .dynamics import DynamicalSystem, Trajectory, simulate, write_text
from .errors import DegenerateTrajectoryError
from .graphs import build_shift, cycle_graph
from .kalman import riccati_sequence, run_filter
from .polynomials import Polynomial
from .spectral import distinct_eigenvalues, eigendecompose

ENERGY_GUARD = 1e-24
METRIC_FLOOR = -12.0
DEFAULT_CLIP = 0.5
DEFAULT_GRID = tuple(round(0.05 * i, 10) for i in range(21))

_HEATMAP_KEY = 0
_TRACE_KEY = 1


@dataclass(frozen=True)
class TraceSpec:
    """Noise point and vertex for the trajectory/energy trace."""

    sigma: float = 0.3
    sigma_tilde: float = 0.5
    vertex: int = 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of the cycle-graph study (defaults reproduce the reference setup)."""

    n: int = 30
    m: int = 100
    trials: int = 30
    state_poly: Polynomial = Polynomial((0.0, 0.25))
    observation_poly: Polynomial = Polynomial((1.0, -0.5))
    sigma_grid: tuple[float, ...] = DEFAULT_GRID
    sigma_tilde_grid: tuple[float, ...] = DEFAULT_GRID
    seed: int = 12345
    clip: float = DEFAULT_CLIP
    trace: TraceSpec = TraceSpec()

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("n must be >= 3 for a cycle graph")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for name, grid in (("sigma_grid", self.sigma_grid), ("sigma_tilde_grid", self.sigma_tilde_grid)):
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(v < 0 or not np.isfinite(v) for v in grid):
                raise ValueError(f"{name} values must be finite and >= 0")
        if not 1 <= self.trace.vertex <= self.n:
            raise ValueError(f"trace vertex {self.trace.vertex} out of range 1..{self.n}")

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        known = {
            "n", "m", "trials", "a", "b", "sigma_grid", "sigma_tilde_grid",
            "seed", "clip", "trace",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key in ("n", "m", "trials", "seed"):
            if key in payload:
                kwargs[key] = int(payload[key])
        if "clip" in payload:
            kwargs["clip"] = float(payload["clip"])
        if "a" in payload:
            kwargs["state_poly"] = Polynomial.from_coeffs(payload["a"])
        if "b" in payload:
            kwargs["observation_poly"] = Polynomial.from_coeffs(payload["b"])
        if "sigma_grid" in payload:
            kwargs["sigma_grid"] = _resolve_grid(payload["sigma_grid"])
        if "sigma_tilde_grid" in payload:
            kwargs["sigma_tilde_grid"] = _resolve_grid(payload["sigma_tilde_grid"])
        if "trace" in payload:
            spec = payload["trace"]
            kwargs["trace"] = TraceSpec(
                sigma=float(spec.get("sigma", 0.3)),
                sigma_tilde=float(spec.get("sigma_tilde", 0.5)),
                vertex=int(spec.get("vertex", 8)),
            )
        return ExperimentConfig(**kwargs)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        return ExperimentConfig.from_json(Path(path).read_text())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "trials": self.trials,
            "a": self.state_poly.to_list(),
            "b": self.observation_poly.to_list(),
            "sigma_grid": list(self.sigma_grid),
            "sigma_tilde_grid": list(self.sigma_tilde_grid),
            "seed": self.seed,
            "clip": self.clip,
            "trace": {
                "sigma": self.trace.sigma,
                "sigma_tilde": self.trace.sigma_tilde,
                "vertex": self.trace.vertex,
            },
        }


def _resolve_grid(spec) -> tuple[float, ...]:
    """Accept either an explicit list of values or {"start","stop","step"}."""
    if isinstance(spec, dict):
        start = float(spec["start"])
        stop = float(spec["stop"])
        step = float(spec["step"])
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(round(start + i * step, 10) for i in range(count))
    return tuple(float(v) for v in spec)


def relative_error_metric(estimates, truths, clip: float = DEFAULT_CLIP) -> float:
    """Clipped log average relative error over the steps of one trajectory.

    Steps with truth energy below the guard are dropped; a perfect
    reconstruction bottoms out at the metric floor instead of -inf.

    Raises:
        DegenerateTrajectoryError: if every step is below the energy guard.
    """
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape:
        raise ValueError(f"shape mismatch: {estimates.shape} vs {truths.shape}")
    truth_energy = np.sum(truths**2, axis=-1)
    keep = truth_energy >= ENERGY_GUARD
    if not np.any(keep):
        raise DegenerateTrajectoryError("all steps have numerically zero state energy")
    errors = np.sum((estimates - truths) ** 2, axis=-1)
    mean_ratio = float(np.mean(errors[keep] / truth_energy[keep]))
    if mean_ratio < ENERGY_GUARD:
        return max(METRIC_FLOOR, min(0.5 * math.log10(ENERGY_GUARD), clip))
    return min(0.5 * math.log10(mean_ratio), clip)


@dataclass(frozen=True, eq=False)
class HeatmapResult:
    """Per-cell clipped mean log relative errors for both estimators."""

    sigma_grid: tuple[float, ...]
    sigma_tilde_grid: tuple[float, ...]
    kalman: np.ndarray
    inverse: np.ndarray
    kalman_sem: np.ndarray
    inverse_sem: np.ndarray
    n_trials: np.ndarray
    flagged: np.ndarray


def _experiment_context(config: ExperimentConfig):
    graph = cycle_graph(config.n)
    shift = build_shift(graph, "laplacian")
    decomposition = eigendecompose(shift)
    spectrum = distinct_eigenvalues(decomposition)
    return shift, decomposition, spectrum


def _cell_system(config, context, sigma: float, sigma_tilde: float) -> DynamicalSystem:
    shift, decomposition, spectrum = context
    return DynamicalSystem.from_constant(
        shift,
        config.state_poly,
        config.observation_poly,
        sigma,
        sigma_tilde,
        horizon=config.m,
        decomposition=decomposition,
        spectrum=spectrum,
        allow_zero_noise=True,
    )


def _trial_metrics(config, sys, riccati, seed) -> tuple[float, float]:
    trajectory = simulate(sys, seed)
    truths = trajectory.states[1:]
    states = run_filter(sys, trajectory.observations, riccati=riccati)
    kalman_estimates = np.array([state.estimate for state in states[1:]])
    inverse_estimates = inverse_estimate(
        config.observation_poly, trajectory.observations.T, sys.decomposition
    ).T
    return (
        relative_error_metric(kalman_estimates, truths, config.clip),
        relative_error_metric(inverse_estimates, truths, config.clip),
    )


def _run_cell(config, context, i: int, j: int):
    sys = _cell_system(config, context, config.sigma_grid[i], config.sigma_tilde_grid[j])
    riccati = riccati_sequence(sys, p0=Polynomial.zero())
    kalman_metrics: list[float] = []
    inverse_metrics: list[float] = []
    degenerate = 0
    for trial in range(config.trials):
        seed = np.random.SeedSequence(config.seed, spawn_key=(_HEATMAP_KEY, i, j, trial))
        try:
            km, im = _trial_metrics(config, sys, riccati, seed)
        except DegenerateTrajectoryError:
            degenerate += 1
            continue
        kalman_metrics.append(km)
        inverse_metrics.append(im)
    return kalman_metrics, inverse_metrics, degenerate


def _mean_sem(values: list[float]) -> tuple[float, float]:
    if not values:
        return math.nan, math.nan
    arr = np.asarray(values)
    mean = float(np.mean(arr))
    sem = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, sem


def run_heatmap(config: ExperimentConfig) -> HeatmapResult:
    """Average both estimators' metrics over independent trials per grid cell.

    Cells whose trajectories are all degenerate (zero state energy, e.g.
    sigma = 0 with a zero initial state) are flagged rather than failing.
    """
    context = _experiment_context(config)
    ns, nt = len(config.sigma_grid), len(config.sigma_tilde_grid)
    kalman = np.full((ns, nt), math.nan)
    inverse = np.full((ns, nt), math.nan)
    kalman_sem = np.full((ns, nt), math.nan)
    inverse_sem = np.full((ns, nt), math.nan)
    n_trials = np.zeros((ns, nt), dtype=int)
    flagged = np.zeros((ns, nt), dtype=bool)

    for i in range(ns):
        for j in range(nt):
            kalman_metrics, inverse_metrics, degenerate = _run_cell(config, context, i, j)
            kalman[i, j], kalman_sem[i, j] = _mean_sem(kalman_metrics)
            inverse[i, j], inverse_sem[i, j] = _mean_sem(inverse_metrics)
            n_trials[i, j] = len(kalman_metrics)
            flagged[i, j] = degenerate > 0

    return HeatmapResult(
        sigma_grid=config.sigma_grid,
        sigma_tilde_grid=config.sigma_tilde_grid,
        kalman=kalman,
        inverse=inverse,
        kalman_sem=kalman_sem,
        inverse_sem=inverse_sem,
        n_trials=n_trials,
        flagged=flagged,
    )


@dataclass(frozen=True, eq=False)
class TraceResult:
    """Energies and single-vertex values of truth and both reconstructions."""

    steps: np.ndarray
    energy_true: np.ndarray
    energy_kalman: np.ndarray
    energy_inverse: np.ndarray
    vertex: int
    vertex_true: np.ndarray
    vertex_kalman: np.ndarray
    vertex_inverse: np.ndarray


def _trace_run(config: ExperimentConfig, trial: int) -> tuple[DynamicalSystem, Trajectory]:
    """The trace point's system and its simulated trajectory."""
    sys = _cell_system(config, _experiment_context(config), config.trace.sigma, config.trace.sigma_tilde)
    seed = np.random.SeedSequence(config.seed, spawn_key=(_TRACE_KEY, trial))
    return sys, simulate(sys, seed)


def trace_trajectory(config: ExperimentConfig, trial: int = 0) -> Trajectory:
    """The raw trajectory underlying the trace at (sigma*, sigma_tilde*)."""
    return _trace_run(config, trial)[1]


def run_trace(config: ExperimentConfig, trial: int = 0) -> TraceResult:
    """One simulation at the trace point with both reconstructions tabulated per step."""
    sys, trajectory = _trace_run(config, trial)
    truths = trajectory.states[1:]
    states = run_filter(sys, trajectory.observations, p0=Polynomial.zero())
    kalman_estimates = np.array([state.estimate for state in states[1:]])
    inverse_estimates = inverse_estimate(
        config.observation_poly, trajectory.observations.T, sys.decomposition
    ).T
    v = config.trace.vertex - 1
    return TraceResult(
        steps=np.arange(1, config.m + 1),
        energy_true=np.linalg.norm(truths, axis=1),
        energy_kalman=np.linalg.norm(kalman_estimates, axis=1),
        energy_inverse=np.linalg.norm(inverse_estimates, axis=1),
        vertex=config.trace.vertex,
        vertex_true=truths[:, v],
        vertex_kalman=kalman_estimates[:, v],
        vertex_inverse=inverse_estimates[:, v],
    )


def _format(value: float) -> str:
    return repr(float(value))


def write_heatmap_csv(result: HeatmapResult, which: str, target) -> None:
    """Write one estimator's heatmap table (rows ordered sigma-major)."""
    values = {"kalman": result.kalman, "inverse": result.inverse}[which]
    lines = ["sigma,sigma_tilde,value,n_trials,flagged"]
    for i, sigma in enumerate(result.sigma_grid):
        for j, sigma_tilde in enumerate(result.sigma_tilde_grid):
            lines.append(
                f"{_format(sigma)},{_format(sigma_tilde)},{_format(values[i, j])},"
                f"{int(result.n_trials[i, j])},{int(result.flagged[i, j])}"
            )
    write_text(target, "\n".join(lines) + "\n")


def write_trace_csvs(result: TraceResult, outdir) -> tuple[Path, Path]:
    outdir = Path(outdir)
    energy_path = outdir / "energy.csv"
    vertex_path = outdir / "vertex.csv"
    energy_lines = ["k,e_true,e_kalman,e_inverse"]
    vertex_lines = ["k,x_true,x_kalman,x_inverse"]
    for idx, k in enumerate(result.steps):
        energy_lines.append(
            f"{int(k)},{_format(result.energy_true[idx])},"
            f"{_format(result.energy_kalman[idx])},{_format(result.energy_inverse[idx])}"
        )
        vertex_lines.append(
            f"{int(k)},{_format(result.vertex_true[idx])},"
            f"{_format(result.vertex_kalman[idx])},{_format(result.vertex_inverse[idx])}"
        )
    energy_path.write_text("\n".join(energy_lines) + "\n")
    vertex_path.write_text("\n".join(vertex_lines) + "\n")
    return energy_path, vertex_path


def _ramp_color(fraction: float) -> str:
    # linear ramp dark blue -> yellow
    low = (13, 8, 135)
    high = (240, 249, 33)
    rgb = tuple(int(round(a + fraction * (b - a))) for a, b in zip(low, high))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def write_heatmap_svg(result: HeatmapResult, which: str, target) -> None:
    """Self-contained SVG heatmap with per-cell value labels."""
    values = {"kalman": result.kalman, "inverse": result.inverse}[which]
    cell = 42
    margin = 70
    ns, nt = values.shape
    width = margin + nt * cell + 20
    height = margin + ns * cell + 20
    finite = values[np.isfinite(values)]
    lo = float(np.min(finite)) if finite.size else 0.0
    hi = float(np.max(finite)) if finite.size else 1.0
    span = hi - lo if hi > lo else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="9">',
        f'<text x="{margin}" y="20">{which} clipped mean log relative error</text>',
        f'<text x="8" y="{margin - 12}">sigma</text>',
        f'<text x="{margin}" y="{height - 4}">sigma_tilde along x</text>',
    ]
    for i, sigma in enumerate(result.sigma_grid):
        y = margin + i * cell
        parts.append(f'<text x="8" y="{y + cell * 0.6:.0f}">{sigma:g}</text>')
        for j, sigma_tilde in enumerate(result.sigma_tilde_grid):
            x = margin + j * cell
            if i == 0:
                parts.append(
                    f'<text x="{x + 2}" y="{margin - 4}" font-size="8">{sigma_tilde:g}</text>'
                )
            v = values[i, j]
            if np.isfinite(v):
                color = _ramp_color((float(v) - lo) / span)
                label = f"{v:.2f}"
            else:
                color = "#bbbbbb"
                label = "n/a"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}" '
                f'stroke="#ffffff" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{x + 3}" y="{y + cell * 0.6:.0f}" fill="#444444">{label}</text>'
            )
    parts.append("</svg>")
    write_text(target, "\n".join(parts) + "\n")
