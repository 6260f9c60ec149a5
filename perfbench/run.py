"""Benchmark of `graphkalman heatmap --svg`: end-to-end metrics, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trials_c30 --seed 1 --seconds 20 --trace 0

--trace 0 times set-up in fresh processes, then repeats one warm
run_heatmap (the program's own worker count) plus the CSV and SVG writers for
--seconds and reports medians.  --trace 1 runs one traced run_heatmap pass
(traced.py) and one untraced pass, both on one worker, a fixed amount of
work, and reports per-layer metrics.  Both modes check the tables and compare
run_filter's estimates with the scalar eigenbasis reference (oracle.py):
trial 0 of every cell untraced, every trial traced.

The report goes to standard output, ending in one JSON line with the
metrics BENCHMARK.json names; the full record, spans included, is written to
.perfbench_out/.  Exits non-zero without a result when the checkout holds no
graphkalman sources.
"""
from __future__ import annotations

import argparse
import collections
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

import oracle
from traced import FilterCapture, Tracer, patched
from workload import WORKLOADS, default_workers, load_program, make_config, setup_context, write_outputs

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
ROOT = PROBE.parents[1]
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 21
SELF_CHECK_TOL = 1e-12

# Name -> unit.  The result line carries END_TO_END with --trace 0 and
# PER_LAYER with --trace 1, as BENCHMARK.json lists them.  A metric there
# never reads 0 or below on any workload; figures that can are printed and
# kept in the report file under "report_only".  failed_share is also the
# result's failed / attempted.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
END_TO_END_REPORT_ONLY = {"trials_per_s": "1/s", "ref_err_log10": "log10", "failed_share": "ratio"}
PER_LAYER = {
    "graphs.build_s": "s",
    "spectral.eig_s": "s",
    "polynomials.operator_build_s": "s",
    "polynomials.interpolate_s": "s",
    "kalman.riccati_s": "s",
    "kalman.riccati_ms_p50": "ms",
    "dynamics.simulate_s": "s",
    "dynamics.simulate_ms_p50": "ms",
    "dynamics.seeding_s": "s",
    "kalman.filter_s": "s",
    "kalman.filter_ms_p50": "ms",
    "baselines.inverse_s": "s",
    "experiment.metric_s": "s",
    "experiment.write_s": "s",
    "experiment.write_bytes": "bytes",
    "experiment.cell_ms_p50": "ms",
    "experiment.cell_ms_max": "ms",
    "kalman.ref_err_max": "ratio",
    # computed counts: they repeat exactly for a given program and workload
    "spectral.distinct": "count",
    "polynomials.gain_degree": "count",
    "dynamics.streams": "count",
    "kalman.filter_mflop": "Mflop",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}
PER_LAYER_REPORT_ONLY = {
    "experiment.flagged_cells": "count",
    "experiment.degenerate_trials": "count",
    "trace.overhead_s": "s",
}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if it cannot be read."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas*.so")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return int(get())
    return None


def run_record(args, config, workers: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": config.to_dict(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "blas_threads": blas_threads(),
        "thread_env": {
            key: os.environ[key]
            for key in ("GK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
            if key in os.environ
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def setup_times(n: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh processes, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(PROBE), str(ROOT), str(n)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def self_check_gap(seed: int) -> float:
    """The oracle against run_heatmap's run_filter on C_12, where float64 rounding is the only gap."""
    from graphkalman.experiment import run_heatmap

    config = make_config("trials_c30", seed, n=12, trials=1, sigma_grid=(0.5,), sigma_tilde_grid=(0.5,))
    _, decomposition, spectrum = setup_context(config.n)
    capture = FilterCapture(every_trial=True)
    with patched(capture.replacements()):
        run_heatmap(config)
    return capture.gaps(config, decomposition, spectrum).get((0, 0, 0), math.inf)


@contextmanager
def one_worker():
    """Run the program's heatmap on one worker thread (GK_THREADS=1) inside the block."""
    saved = os.environ.get("GK_THREADS")
    os.environ["GK_THREADS"] = "1"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["GK_THREADS"]
        else:
            os.environ["GK_THREADS"] = saved


def failures(config, tables, gaps, trials_checked: int) -> dict[tuple[int, int, int], str]:
    """Failed cell-trials with a reason: every trial of a cell that fails a table
    check, every checked trial whose estimates are off the reference, and every
    trial below ``trials_checked`` in a cell that has no captured estimates."""
    from graphkalman.experiment import METRIC_FLOOR

    failed: dict[tuple[int, int, int], str] = {}
    for table in tables:
        for (i, j), reason in oracle.failed_cells(table, config, METRIC_FLOOR).items():
            failed.update({(i, j, t): reason for t in range(config.trials)})
    for key, gap in gaps.items():
        if not gap <= oracle.REF_TOL:
            failed.setdefault(key, f"estimates off the reference by {gap:.3g}")
    for i in range(len(config.sigma_grid)):
        for j in range(len(config.sigma_tilde_grid)):
            for t in range(trials_checked):
                if (i, j, t) not in gaps:
                    failed.setdefault((i, j, t), "no run_filter estimates captured")
    return failed


def measure_end_to_end(config, seconds: float, outdir: Path):
    """End-to-end metrics, the checked tables and the reference gaps.

    The first timed run also captures trial 0 of each cell for the oracle;
    the capture copies two arrays per run_filter call.
    """
    from graphkalman.experiment import run_heatmap

    setup = setup_times(config.n)
    _, decomposition, spectrum = setup_context(config.n)
    capture = FilterCapture(every_trial=False)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        with patched({} if runs else capture.replacements()):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = run_heatmap(config)
            write_outputs(result, outdir)
            runs.append((time.perf_counter() - wall0, time.process_time() - cpu0, result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(wall for wall, _, _ in runs),
        "cpu_s": statistics.median(cpu for _, cpu, _ in runs),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": setup, "wall_s": [r[0] for r in runs], "cpu_s": [r[1] for r in runs]}
    return metrics, samples, [r[2] for r in runs], capture.gaps(config, decomposition, spectrum)


def measure_traced(config, outdir: Path):
    """Per-layer metrics from one traced pass, the checked tables, gaps and spans.

    Both passes run on one worker, so that a span's time is that layer's
    alone and not also waits for the interpreter lock on a second worker.
    The traced pass starts cold: its set-up spans build the interpolation
    operator that run_heatmap then finds cached.
    """
    from graphkalman.experiment import run_heatmap

    tracer = Tracer(config)
    capture = FilterCapture(every_trial=True)
    with one_worker():
        workers = default_workers()
        start = time.perf_counter()
        _, decomposition, spectrum = setup_context(config.n, tracer.span)
        heatmap_start = time.perf_counter()
        with patched(tracer.replacements(capture)):
            traced = run_heatmap(config)
        with tracer.span("experiment.write"):
            write_bytes = write_outputs(traced, outdir)
        end = time.perf_counter()
        result = run_heatmap(config)
        write_outputs(result, outdir)
        untraced_s = time.perf_counter() - end
    traced_s = end - heatmap_start

    gaps = capture.gaps(config, decomposition, spectrum)
    own = tracer.self_times()
    tallies = tracer.tallies
    simulate_calls = len(tracer.durations("dynamics.simulate"))
    filter_calls = collections.Counter(span[4] for span in tracer.spans if span[0] == "kalman.filter")
    n, da, db = config.n, config.state_poly.degree, config.observation_poly.degree
    flops = sum(
        filter_calls[cell] * sum(2 * n * n * (da + db + dg) for dg in degrees)
        for cell, degrees in tracer.gain_degrees.items()
    )
    cells = tracer.cell_durations()

    def ms_p50(name):
        return 1e3 * statistics.median(tracer.durations(name))

    metrics = {
        "graphs.build_s": own["graphs.build"],
        "spectral.eig_s": own["spectral.eig"],
        "polynomials.operator_build_s": own["polynomials.operator_build"],
        "polynomials.interpolate_s": own["polynomials.lagrange_interpolate"],
        "kalman.riccati_s": own["kalman.riccati"],
        "kalman.riccati_ms_p50": ms_p50("kalman.riccati"),
        "dynamics.simulate_s": own["dynamics.simulate"],
        "dynamics.simulate_ms_p50": ms_p50("dynamics.simulate"),
        "dynamics.seeding_s": own["dynamics.child_sequence"] + own["dynamics.generator"],
        "kalman.filter_s": own["kalman.filter"],
        "kalman.filter_ms_p50": ms_p50("kalman.filter"),
        "baselines.inverse_s": own["baselines.inverse"],
        "experiment.metric_s": own["experiment.metric"],
        "experiment.write_s": own["experiment.write"],
        "experiment.write_bytes": write_bytes,
        "experiment.cell_ms_p50": 1e3 * statistics.median(cells),
        "experiment.cell_ms_max": 1e3 * max(cells),
        "kalman.ref_err_max": 10.0 ** oracle.gap_log10(max(gaps.values(), default=math.inf)),
        "spectral.distinct": spectrum.count,
        "polynomials.gain_degree": max(max(degrees, default=0) for degrees in tracer.gain_degrees.values()),
        "dynamics.streams": tallies["dynamics.generator"][1] / max(simulate_calls, 1),
        "kalman.filter_mflop": flops / 1e6,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.coverage": tracer.top_level_seconds() / (end - start),
        "experiment.flagged_cells": int(np.sum(traced.flagged)),
        "experiment.degenerate_trials": tracer.count("experiment.metric", error="DegenerateTrajectoryError"),
        "trace.overhead_s": traced_s - untraced_s,
    }
    samples = {"traced_s": traced_s, "untraced_s": untraced_s, "trace_workers": workers, "self_s": own}
    return metrics, samples, [traced, result], gaps, tracer.to_json()


def _number(value):
    return value if isinstance(value, int) else float(value)


def execute(args, config, out: Path) -> int:
    """Measure and check one workload run, print the report and the result line."""
    workers = default_workers()
    outdir = out / args.workload
    record = run_record(args, config, workers)
    self_gap = self_check_gap(args.seed)
    spans = None
    if args.trace:
        metrics, samples, tables, gaps, spans = measure_traced(config, outdir)
        record["trace_workers"] = samples["trace_workers"]
        units, report_only, trials_checked = PER_LAYER, PER_LAYER_REPORT_ONLY, config.trials
    else:
        metrics, samples, tables, gaps = measure_end_to_end(config, args.seconds, outdir)
        units, report_only, trials_checked = END_TO_END, END_TO_END_REPORT_ONLY, 1
    failed = failures(config, tables, gaps, trials_checked)
    attempted = len(config.sigma_grid) * len(config.sigma_tilde_grid) * config.trials
    correct = not failed and self_gap <= SELF_CHECK_TOL
    if not args.trace:
        metrics["trials_per_s"] = (attempted - len(failed)) / metrics["wall_s"]
        metrics["ref_err_log10"] = oracle.gap_log10(max(gaps.values(), default=math.inf))
        metrics["failed_share"] = len(failed) / attempted

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} workers={workers} nproc={os.cpu_count()}")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {(units | report_only)[name]}")
    print(f"  checks: {len(failed)} of {attempted} cell-trials failed; oracle self-check gap on C_12 {self_gap:.3g}")
    for (i, j, t), reason in sorted(failed.items())[:5]:
        print(f"    cell ({i},{j}) trial {t}: {reason}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": _number(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "run": record,
        "result": result,
        "report_only": {name: metrics[name] for name in report_only},
        "samples": samples,
        "self_check_gap": self_gap,
        "failures": {f"{i},{j},{t}": reason for (i, j, t), reason in sorted(failed.items())},
        "trace": spans,
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program(ROOT)
    return execute(args, make_config(args.workload, args.seed), OUT)


if __name__ == "__main__":
    sys.exit(main())
