"""Cycle-graph experiment: error heatmaps over noise grids, energy and vertex traces.

The experiment runs the time-invariant system on the unweighted cycle with
the Laplacian shift, comparing the Kalman filter against static inverse
filtering.  That shift's eigenpairs are known in closed form (the real DFT
basis, see ``spectral``), so a run calls no eigensolver.  A cell's system
starts from x_0 = 0 (h_0 = 0), which is also its filter's prior; zero noise
levels need no switch, as every cell has a Kalman gain (0 at a blind
frequency), and a cell is flagged only when a trial is degenerate.
A heatmap cell runs its trials in blocks of ``_trials_per_block``, as many
as ``NOISE_BLOCK_BUDGET`` bytes of noise blocks hold, and the trace runs one
trial as a block of one.  A block is one ``simulate`` call, which draws
each trial's whole noise block from the trial's own stream and runs the
state and observation recursions in the eigenbasis for the whole block
(see ``dynamics``); one ``run_filter`` call per trial, in trial order, which
runs the Kalman filter there too (see ``kalman``); one ``inverse_estimate``
call, which inverts the system's own observation responses for the whole
block; and one ``relative_error_metric`` call per estimator, which scores
the block.  No polynomial is evaluated per trial.  Each layer computes
trial t of a block bit for bit as it would in a block of one, so the tables
do not depend on the block size.  The dense matrix recursion is only the
oracle in ``verify``.  Cells run one after another in a plain loop, with no
worker pool, and each trial is seeded from its cell and trial index alone,
so results are reproducible bit-for-bit for a fixed configuration.

Every table the CLI writes goes through one row writer, ``_write_csv``, to a
path or a stream: a header line, then one line per row, each ending in a
newline, with an integer written as an integer, a real as
``repr(float(x))`` (which reads back bit for bit, NaN and -0.0 included)
and a missing value as an empty field.  The tables are each estimator's
heatmap (``write_heatmap_csv``: sigma, sigma_tilde, value, n_trials,
flagged), the trace's energies and vertex values (``write_trace_csvs``: k
and the truth, Kalman and inverse values) and the raw trajectory
(``trajectory_to_csv``: k, vertex, x, z, with no z at k = 0).
``write_heatmap_svg`` draws a heatmap.  No other module writes files.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .dynamics import DynamicalSystem, Trajectory, require_noise_level, simulate
from .errors import NumericalFailureError
from .filters import Polynomial, require_polynomial
from .graphs import build_shift, cycle_graph, require_integral, require_real
from .kalman import inverse_estimate, riccati_sequence, run_filter
from .spectral import SpectralDecomposition, distinct_eigenvalues, eigendecompose

ENERGY_GUARD = 1e-24
# Bytes of (2m + 1, n) trial noise blocks a heatmap cell simulates at once:
# 5 trials at the default n and m
NOISE_BLOCK_BUDGET = 256 * 1024
METRIC_FLOOR = -12.0
DEFAULT_CLIP = 0.5
DEFAULT_GRID = tuple(round(0.05 * i, 10) for i in range(21))
GRID_LIMIT = 10**6
# A run holds at least this many dense n x n float64 arrays at once (W, the
# Laplacian, U and the closed form's temporaries: 743 MB measured at
# n = 4,000) and one (2m + 1) x n noise block
DENSE_ARRAYS = 6
PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

_HEATMAP_KEY = 0
_TRACE_KEY = 1
# the values a CSV writes as integers
_INTEGERS = (int, np.integer, np.bool_)


@dataclass(frozen=True)
class TraceSpec:
    """Noise point and vertex for the trajectory/energy trace.

    The constructor stores sigma and sigma_tilde as floats by
    ``dynamics.require_noise_level``'s rule, the one a system applies, and
    the vertex as an int by ``require_integral``'s; any other value raises
    ValueError naming it.  Whether the vertex lies in 1..n is checked where
    it is read, by ``run_trace``, so a heatmap or a simulation on a cycle
    shorter than the vertex runs.
    """

    sigma: float = 0.3
    sigma_tilde: float = 0.5
    vertex: int = 8

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", require_noise_level(self.sigma, "trace sigma"))
        object.__setattr__(self, "sigma_tilde", require_noise_level(self.sigma_tilde, "trace sigma_tilde"))
        object.__setattr__(self, "vertex", require_integral(self.vertex, "trace vertex"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of the cycle-graph study (defaults reproduce the reference setup).

    The constructor is the one place a config is made canonical and checked,
    however it is built (directly, by ``from_dict`` or by ``replace``).  It
    applies one rule per field, the rules ``from_dict`` applies per JSON key
    (``_JSON_FIELDS``), and a value a rule refuses raises ValueError that
    names it:

    - n, m, trials and seed are ints by ``require_integral``'s rule;
    - a grid is a nonempty tuple of floats, each a noise level by
      ``dynamics.require_noise_level``'s rule, made from a list, tuple or
      1-D array (not a string) or from a JSON grid object {"start", "stop",
      "step"} of numbers by the same rule and at most ``GRID_LIMIT`` values;
    - clip is a float by ``_clip``'s rule, the one the metric applies: a
      real number that is not a boolean, finite and above ``METRIC_FLOOR``;
    - state_poly and observation_poly are ``Polynomial``s, made from a
      sequence of numbers by ``filters.require_polynomial``'s rule, the
      one a system applies;
    - trace is a ``TraceSpec``, made from a JSON object by ``TraceSpec``'s.

    Then come the checks across fields or against the machine: n >= 3, the
    run's arrays within physical memory, m and trials >= 1, and seed >= 0.
    The trace vertex is checked against n only by ``run_trace``.  So a
    config equals, and hashes as, the one its ``to_dict`` JSON loads to.
    Every grid value, 0 included, gives a cell a Kalman gain (0 at a blind
    frequency); only a degenerate trial flags it.
    """

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
        for field, rule in _JSON_FIELDS.values():
            object.__setattr__(self, field, rule(getattr(self, field), field))
        if self.n < 3:
            raise ValueError("n must be >= 3 for a cycle graph")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        # refused before the run: it would end in a MemoryError or an OOM kill,
        # and past numpy's size limit cycle_graph would spin first
        dense = DENSE_ARRAYS * 8 * self.n**2
        memory = f"the {PHYSICAL_MEMORY / 2**30:.1f} GiB of physical memory"
        if dense > PHYSICAL_MEMORY:
            raise ValueError(f"n is too large: the run's n x n arrays need more than {memory}")
        if dense + 8 * (2 * self.m + 1) * self.n > PHYSICAL_MEMORY:
            raise ValueError(f"m is too large: the run's arrays and (2m + 1) x n noise block need more than {memory}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        """Config from parsed JSON; each key's rule runs first, so a value of the
        wrong type or shape raises ``ValueError`` naming the key."""
        _reject_unknown_keys(payload, set(_JSON_FIELDS), "config")
        kwargs = {}
        for key, value in payload.items():
            field, rule = _JSON_FIELDS[key]
            try:
                kwargs[field] = rule(value, field)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
        return ExperimentConfig(**kwargs)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        return ExperimentConfig.from_json(Path(path).read_text())

    def to_dict(self) -> dict:
        """The JSON form: one key per ``_JSON_FIELDS`` entry, in its order."""
        return {key: _json_value(getattr(self, field)) for key, (field, _) in _JSON_FIELDS.items()}


def _reject_unknown_keys(payload, known: set[str], what: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")


def _grid(spec, name: str) -> tuple[float, ...]:
    """Noise levels from a list, tuple or 1-D array of them, or from
    {"start","stop","step"} of at most ``GRID_LIMIT`` values."""
    if isinstance(spec, dict):
        _reject_unknown_keys(spec, {"start", "stop", "step"}, "grid")
        missing = {"start", "stop", "step"} - set(spec)
        if missing:
            raise ValueError(f"grid object lacks {sorted(missing)}")
        # a start or stop below 0 would give a negative value or none
        start, stop, step = (require_noise_level(spec[key], f"{name} {key}") for key in ("start", "stop", "step"))
        if step <= 0:
            raise ValueError(f"{name} step must be positive")
        # floored as a float: a stop below start gives no value, and the count is bounded before int()
        count = np.floor((stop - start) / step + 1e-9) + 1
        if count > GRID_LIMIT:
            raise ValueError(f"grid object expands to {count:.0f} values, more than {GRID_LIMIT}")
        spec = [round(start + i * step, 10) for i in range(int(count))]
    elif not (isinstance(spec, (list, tuple)) or (isinstance(spec, np.ndarray) and spec.ndim == 1)):
        raise ValueError(f"{name} must be a list of numbers or a grid object, got {spec!r}")
    grid = tuple(require_noise_level(value, f"{name} value") for value in spec)
    if not grid:
        raise ValueError(f"{name} must be nonempty")
    return grid


def _clip(value, name: str) -> float:
    """``value`` as a float by ``require_real``'s rule, finite and above
    ``METRIC_FLOOR``; ValueError naming ``name`` otherwise."""
    clip = require_real(value, name)
    if not (math.isfinite(clip) and clip > METRIC_FLOOR):
        raise ValueError(f"{name} must be finite and > {METRIC_FLOOR}")
    return clip


def _trace_spec(spec, name: str) -> TraceSpec:
    if isinstance(spec, TraceSpec):
        return spec
    _reject_unknown_keys(spec, {"sigma", "sigma_tilde", "vertex"}, name)
    return TraceSpec(**spec)


def _json_value(value):
    """A canonical field value's JSON form: a polynomial's coefficients or a
    grid as a list, the trace spec as an object, a number as itself."""
    if isinstance(value, TraceSpec):
        return asdict(value)
    if isinstance(value, Polynomial):
        value = value.coeffs
    return list(value) if isinstance(value, tuple) else value


# JSON key -> (ExperimentConfig field, its rule): rule(value, field) gives the
# field's canonical value or raises ValueError, and gives a canonical value
# back unchanged
_JSON_FIELDS = {
    **{key: (key, require_integral) for key in ("n", "m", "trials")},
    "a": ("state_poly", require_polynomial),
    "b": ("observation_poly", require_polynomial),
    "sigma_grid": ("sigma_grid", _grid),
    "sigma_tilde_grid": ("sigma_tilde_grid", _grid),
    "seed": ("seed", require_integral),
    "clip": ("clip", _clip),
    "trace": ("trace", _trace_spec),
}


def relative_error_metric(estimates, truths, clip: float = DEFAULT_CLIP) -> np.ndarray:
    """Clipped log average relative error over the steps of each trajectory
    of a stack.

    ``estimates`` and ``truths`` are (T, m, n) stacks, which give T values,
    trial t the value its rows give as a stack of one.  Steps with truth
    energy below the guard are dropped, and a trial with no step left is
    NaN; a perfect reconstruction bottoms out at the metric floor instead
    of -inf.  The means of all trials are one masked sum over the kept
    steps divided by their count, so when every step passes the guard each
    is exactly ``np.mean`` of its ratios.

    Raises:
        ValueError: if ``clip`` is refused by the config's rule for it: not a
            real number, a boolean, not finite or not above ``METRIC_FLOOR``.
        NumericalFailureError: if a step's truth or error energy is NaN or
            infinite, in any trial.
    """
    clip = _clip(clip, "clip")
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape or truths.ndim != 3:
        raise ValueError(f"expected equal (T, m, n) shapes, got {estimates.shape} vs {truths.shape}")
    # an energy that overflows is infinite, and the check below names it
    with np.errstate(over="ignore"):
        truth_energy = np.sum(truths**2, axis=-1)
        squared_errors = estimates - truths
        squared_errors **= 2
        errors = np.sum(squared_errors, axis=-1)
    if not (math.isfinite(truth_energy.max(initial=0.0)) and math.isfinite(errors.max(initial=0.0))):
        raise NumericalFailureError("a step's state or error energy is not finite")
    keep = truth_energy >= ENERGY_GUARD
    ratios = np.divide(errors, truth_energy, out=np.zeros_like(errors), where=keep)
    # a trajectory with no kept step divides 0 by 0: its mean is NaN
    with np.errstate(invalid="ignore"):
        mean_ratios = np.sum(ratios, axis=-1) / np.count_nonzero(keep, axis=-1)
    return np.array([_clipped_log(ratio, clip) for ratio in mean_ratios.tolist()])


def _clipped_log(mean_ratio: float, clip: float) -> float:
    """Half the log10 of a mean energy ratio, floored and clipped; NaN stays NaN."""
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


def _cycle_spectrum(config: ExperimentConfig) -> SpectralDecomposition:
    """The spectrum of the C_n Laplacian, its closed-form eigenpairs grouped
    here, built once per run and shared by its cells."""
    return distinct_eigenvalues(eigendecompose(build_shift(cycle_graph(config.n), "laplacian")))


def _cell_system(config, spectrum: SpectralDecomposition, sigma: float, sigma_tilde: float) -> DynamicalSystem:
    return DynamicalSystem(
        spectrum, config.m, (config.state_poly,), (config.observation_poly,), (sigma,), (sigma_tilde,)
    )


def _trials(sys, seeds, riccati=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One simulation per seed: states x_1..x_M and their Kalman and inverse
    estimates, as (T, M, n) stacks.  The filter runs once per trial, in order."""
    trajectory = simulate(sys, seeds)
    z = trajectory.observations
    kalman = np.stack([run_filter(sys, z_t, riccati=riccati).estimates[1:] for z_t in z])
    return trajectory.states[:, 1:], kalman, inverse_estimate(sys, z)


def _block_metrics(sys, seeds, riccati, clip: float) -> tuple[np.ndarray, np.ndarray]:
    """Both estimators' metrics for one block of trials, NaN where a trial is
    degenerate; the block's stacks are freed when it returns."""
    truths, kalman_estimates, inverse_estimates = _trials(sys, seeds, riccati)
    return (
        relative_error_metric(kalman_estimates, truths, clip),
        relative_error_metric(inverse_estimates, truths, clip),
    )


def _trials_per_block(config) -> int:
    """How many trials' (2m + 1, n) noise blocks fit in ``NOISE_BLOCK_BUDGET`` bytes; at least one."""
    return max(1, NOISE_BLOCK_BUDGET // ((2 * config.m + 1) * config.n * 8))


def _run_cell(config, spectrum: SpectralDecomposition, i: int, j: int):
    """Both estimators' metrics over the cell's trials, and whether the cell
    is flagged: only a degenerate trial flags it, as every noise level has a
    Kalman gain.  The trials run in blocks of ``_trials_per_block``."""
    sys = _cell_system(config, spectrum, config.sigma_grid[i], config.sigma_tilde_grid[j])
    riccati = riccati_sequence(sys)
    kalman_metrics: list[float] = []
    inverse_metrics: list[float] = []
    per_block = _trials_per_block(config)
    degenerate = False
    for start in range(0, config.trials, per_block):
        seeds = [
            np.random.SeedSequence(config.seed, spawn_key=(_HEATMAP_KEY, i, j, trial))
            for trial in range(start, min(start + per_block, config.trials))
        ]
        km, im = _block_metrics(sys, seeds, riccati, config.clip)
        kept = ~(np.isnan(km) | np.isnan(im))
        degenerate = degenerate or not kept.all()
        kalman_metrics.extend(km[kept].tolist())
        inverse_metrics.extend(im[kept].tolist())
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

    Cells with a degenerate trajectory (zero state energy, e.g. sigma = 0
    with a zero initial state) are flagged rather than failing; a cell with
    no trial left stays NaN.  A blind frequency's gain is 0 at any noise level.
    """
    spectrum = _cycle_spectrum(config)
    ns, nt = len(config.sigma_grid), len(config.sigma_tilde_grid)
    kalman = np.full((ns, nt), math.nan)
    inverse = np.full((ns, nt), math.nan)
    kalman_sem = np.full((ns, nt), math.nan)
    inverse_sem = np.full((ns, nt), math.nan)
    n_trials = np.zeros((ns, nt), dtype=int)
    flagged = np.zeros((ns, nt), dtype=bool)

    for i in range(ns):
        for j in range(nt):
            kalman_metrics, inverse_metrics, flagged[i, j] = _run_cell(config, spectrum, i, j)
            kalman[i, j], kalman_sem[i, j] = _mean_sem(kalman_metrics)
            inverse[i, j], inverse_sem[i, j] = _mean_sem(inverse_metrics)
            n_trials[i, j] = len(kalman_metrics)

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


def _trace_point(config: ExperimentConfig) -> tuple[DynamicalSystem, list[np.random.SeedSequence]]:
    """The trace point's system and the one seed of its stack of one trial."""
    sys = _cell_system(config, _cycle_spectrum(config), config.trace.sigma, config.trace.sigma_tilde)
    return sys, [np.random.SeedSequence(config.seed, spawn_key=(_TRACE_KEY, 0))]


def trace_trajectory(config: ExperimentConfig) -> Trajectory:
    """The raw trajectory underlying the trace at (sigma*, sigma_tilde*), a stack of one trial."""
    return simulate(*_trace_point(config))


def run_trace(config: ExperimentConfig) -> TraceResult:
    """One simulation at the trace point with both reconstructions tabulated per step.

    Raises:
        ValueError: if the trace vertex is not in 1..n, before anything runs.
    """
    if not 1 <= config.trace.vertex <= config.n:
        raise ValueError(f"trace vertex {config.trace.vertex} out of range 1..{config.n}")
    truths, kalman_estimates, inverse_estimates = (stack[0] for stack in _trials(*_trace_point(config)))
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


def write_text(target, text: str) -> None:
    """Write ``text`` to a path, or to a stream with a ``write`` method."""
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)


def _write_csv(target, header: str, rows) -> None:
    """Write ``header`` and one line per row to ``target`` by the one row rule:
    an integer (a bool included) as an integer, None as an empty field, any
    other value as ``repr(float(value))``, and "\\n" after every line."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            "" if value is None else str(int(value)) if isinstance(value, _INTEGERS) else repr(float(value))
            for value in row
        ))
    write_text(target, "\n".join(lines) + "\n")


def _estimator_values(result: HeatmapResult, which: str) -> np.ndarray:
    """The heatmap of estimator ``which``, "kalman" or "inverse"; any other
    name raises ValueError."""
    if which not in ("kalman", "inverse"):
        raise ValueError(f"unknown estimator {which!r}; choose 'kalman' or 'inverse'")
    return getattr(result, which)


def write_heatmap_csv(result: HeatmapResult, which: str, target) -> None:
    """Write one estimator's heatmap table (rows ordered sigma-major)."""
    values = _estimator_values(result, which)
    _write_csv(target, "sigma,sigma_tilde,value,n_trials,flagged", (
        (sigma, sigma_tilde, values[i, j], result.n_trials[i, j], result.flagged[i, j])
        for i, sigma in enumerate(result.sigma_grid)
        for j, sigma_tilde in enumerate(result.sigma_tilde_grid)
    ))


def write_trace_csvs(result: TraceResult, outdir) -> tuple[Path, Path]:
    """Write the energy and vertex tables, one row per step, into ``outdir``;
    returns their paths."""
    outdir = Path(outdir)
    energy_path, vertex_path = outdir / "energy.csv", outdir / "vertex.csv"
    _write_csv(energy_path, "k,e_true,e_kalman,e_inverse",
               zip(result.steps, result.energy_true, result.energy_kalman, result.energy_inverse))
    _write_csv(vertex_path, "k,x_true,x_kalman,x_inverse",
               zip(result.steps, result.vertex_true, result.vertex_kalman, result.vertex_inverse))
    return energy_path, vertex_path


def trajectory_to_csv(trajectory: Trajectory, target) -> None:
    """Write rows (k, vertex, x, z) of a stack of one trial; the k=0 rows carry
    no observation.  A stack of any other T raises ValueError."""
    if trajectory.states.shape[0] != 1:
        raise ValueError(f"trajectory_to_csv writes a stack of one trial, got {trajectory.states.shape[0]}")
    states = trajectory.states[0]
    observations = [(None,) * states.shape[1], *trajectory.observations[0]]
    _write_csv(target, "k,vertex,x,z", (
        (k, vertex, x, z)
        for k, (xs, zs) in enumerate(zip(states, observations))
        for vertex, (x, z) in enumerate(zip(xs, zs), 1)
    ))


def _ramp_color(fraction: float) -> str:
    # linear ramp dark blue -> yellow
    low = (13, 8, 135)
    high = (240, 249, 33)
    rgb = tuple(int(round(a + fraction * (b - a))) for a, b in zip(low, high))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def write_heatmap_svg(result: HeatmapResult, which: str, target) -> None:
    """Self-contained SVG heatmap with per-cell value labels."""
    values = _estimator_values(result, which)
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
