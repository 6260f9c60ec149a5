"""Command-line interface: heatmap, trace, simulate, verify."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dynamics import trajectory_to_csv
from .experiment import (
    ExperimentConfig,
    run_heatmap,
    run_trace,
    trace_trajectory,
    write_heatmap_csv,
    write_heatmap_svg,
    write_trace_csvs,
)
from .verify import MODULE_CHECKS, format_report, run_checks


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return ExperimentConfig.from_file(path)


def _ensure_outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_heatmap(args) -> int:
    config = _load_config(args.config)
    result = run_heatmap(config)
    out = _ensure_outdir(args.out)
    for which in ("kalman", "inverse"):
        write_heatmap_csv(result, which, out / f"heatmap_{which}.csv")
        if args.svg:
            write_heatmap_svg(result, which, out / f"heatmap_{which}.svg")
    print(f"wrote heatmap tables to {out}")
    return 0


def _cmd_trace(args) -> int:
    config = _load_config(args.config)
    result = run_trace(config)
    out = _ensure_outdir(args.out)
    energy_path, vertex_path = write_trace_csvs(result, out)
    print(f"wrote {energy_path} and {vertex_path}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    trajectory = trace_trajectory(config)
    out = _ensure_outdir(args.out)
    path = out / "trajectory.csv"
    trajectory_to_csv(trajectory, path)
    print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    modules = [args.filter] if args.filter else None
    results = run_checks(modules)
    print(format_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphkalman",
        description="Stationary graph signals and Kalman filtering over graph shifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    heatmap = sub.add_parser("heatmap", help="noise-grid error heatmaps for both estimators")
    heatmap.add_argument("--config", help="JSON config (defaults to the reference setup)")
    heatmap.add_argument("--out", required=True, help="output directory")
    heatmap.add_argument("--svg", action="store_true", help="also render SVG heatmaps")
    heatmap.set_defaults(func=_cmd_heatmap)

    trace = sub.add_parser("trace", help="energy and single-vertex trace at the trace point")
    trace.add_argument("--config", help="JSON config (defaults to the reference setup)")
    trace.add_argument("--out", required=True, help="output directory")
    trace.set_defaults(func=_cmd_trace)

    simulate = sub.add_parser("simulate", help="write one raw trajectory as CSV")
    simulate.add_argument("--config", help="JSON config (defaults to the reference setup)")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--filter", choices=sorted(MODULE_CHECKS), help="run a single module's invariants")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
