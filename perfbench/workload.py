"""Workload table and the pieces of `graphkalman heatmap --svg` the benchmark repeats.

Every workload runs the cycle Laplacian with m = 100 and the default state
polynomial, observation polynomial and clip; only the graph size, the noise
grids and the trial count differ.  Why each listed one was chosen is in
BENCHMARK.json; scale_c120, which it leaves out, is described in README.md.
"""
from __future__ import annotations

import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

_GRID4 = (0.25, 0.5, 0.75, 1.0)
_GRID11 = tuple(round(0.1 * i, 10) for i in range(11))

WORKLOADS = {
    "trials_c30": {"n": 30, "sigma_grid": _GRID4, "sigma_tilde_grid": _GRID4, "trials": 30},
    "sweep_c30": {"n": 30, "sigma_grid": _GRID11, "sigma_tilde_grid": _GRID11, "trials": 1},
    "scale_c120": {"n": 120, "sigma_grid": (0.3, 0.6), "sigma_tilde_grid": (0.5, 1.0), "trials": 30},
}
# Workloads that BENCHMARK.json leaves out, with the reason.  They run by
# hand, with the same checks.
UNLISTED = {
    "scale_c120": "every Kalman cell is NaN at commit e00f719, so a run reports correct: false",
}


def load_program(root: Path) -> None:
    """Import graphkalman from ``root/src`` and from nowhere else.

    Raises:
        SystemExit: if the sources are missing, so no result is printed.
    """
    src = (root / "src").resolve()
    if not (src / "graphkalman" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no graphkalman sources under {src}")
    sys.path.insert(0, str(src))
    import graphkalman

    if src not in Path(graphkalman.__file__).resolve().parents:
        raise SystemExit(f"perfbench: graphkalman was imported from {graphkalman.__file__}, not {src}")


def make_config(workload: str, seed: int, **overrides):
    """The workload's ExperimentConfig; the seed reaches the program only here."""
    from graphkalman.experiment import ExperimentConfig

    return ExperimentConfig(seed=seed, **{**WORKLOADS[workload], **overrides})


def setup_context(n: int, span=lambda name: nullcontext()):
    """Shift, decomposition and distinct spectrum of C_n, with the interpolation cache filled.

    ``span(name)`` gives the context each step runs in; the traced run passes
    its tracer's span.
    """
    from graphkalman import build_shift, cycle_graph, distinct_eigenvalues, eigendecompose, lagrange_interpolate

    with span("graphs.build"):
        shift = build_shift(cycle_graph(n), "laplacian")
    with span("spectral.eig"):
        decomposition = eigendecompose(shift)
        spectrum = distinct_eigenvalues(decomposition)
    with span("polynomials.operator_build"):
        lagrange_interpolate(spectrum.representatives, np.zeros(spectrum.count))
    return shift, decomposition, spectrum


def write_outputs(result, outdir: Path) -> int:
    """Write both CSV tables and both SVGs as the CLI does; returns the bytes written."""
    from graphkalman.experiment import write_heatmap_csv, write_heatmap_svg

    outdir.mkdir(parents=True, exist_ok=True)
    written = 0
    for which in ("kalman", "inverse"):
        csv_path, svg_path = outdir / f"heatmap_{which}.csv", outdir / f"heatmap_{which}.svg"
        write_heatmap_csv(result, which, csv_path)
        write_heatmap_svg(result, which, svg_path)
        written += csv_path.stat().st_size + svg_path.stat().st_size
    return written


def default_workers() -> int:
    """The worker count run_heatmap resolves by itself (1 once it has no pool)."""
    from graphkalman import experiment

    resolve = getattr(experiment, "default_workers", None)
    return resolve() if resolve is not None else 1
