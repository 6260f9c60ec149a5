"""Spans and captures around the program's own layer calls.

For the length of one ``run_heatmap`` call, ``patched`` swaps names in the
program's module namespaces for wrappers and restores them afterwards.  The
program itself is not edited, and the code that runs is its own.

* ``Tracer`` wraps each layer function that ``graphkalman.experiment`` calls
  in a span (name, start, end, parent, cell id, thread, tallied time, error).
  Calls made once per step or per draw (seed derivation, interpolation) are
  tallied instead, as a total time and a call count, so they cost no span
  each.  A span's self time is its duration less its child spans and the
  tallied time inside it.
* ``FilterCapture`` keeps ``run_filter``'s observations and estimates so that
  the scalar eigenbasis reference (oracle.py) can check them afterwards.

Spans are kept in memory and written out as JSON when the run ends.
"""
from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np

import oracle

# Names in graphkalman.experiment that run_heatmap calls -> span name.
SPANS = {
    "cycle_graph": "graphs.build",
    "build_shift": "graphs.build",
    "eigendecompose": "spectral.eig",
    "distinct_eigenvalues": "spectral.eig",
    "riccati_sequence": "kalman.riccati",
    "simulate": "dynamics.simulate",
    "run_filter": "kalman.filter",
    "inverse_estimate": "baselines.inverse",
    "relative_error_metric": "experiment.metric",
}
# (module, name) -> tally name, for calls too frequent to keep as spans:
# seed derivation inside simulate, interpolation inside riccati_sequence.
TALLIES = {
    ("dynamics", "child_sequence"): "dynamics.child_sequence",
    ("dynamics", "generator"): "dynamics.generator",
    ("kalman", "lagrange_interpolate"): "polynomials.lagrange_interpolate",
}


@contextmanager
def patched(replacements: dict):
    """Set ``module.name = value`` for each ``(module, name): value`` and restore on exit."""
    saved = {key: getattr(*key) for key in replacements}
    try:
        for (module, name), value in replacements.items():
            setattr(module, name, value)
        yield
    finally:
        for (module, name), value in saved.items():
            setattr(module, name, value)


def _noise(system) -> tuple[float, float]:
    """(sigma, sigma_tilde) of a heatmap cell's time-invariant system."""
    return system.state_noise[0], system.observation_noise[0]


class FilterCapture:
    """run_filter's observations and estimates per cell: every trial, or only the first."""

    def __init__(self, every_trial: bool) -> None:
        self.every_trial = every_trial
        # (sigma, sigma_tilde) -> [(observations, estimates), ...] in trial order
        self.trials: dict[tuple[float, float], list] = {}

    def wrap(self, run_filter):
        def wrapper(system, observations, *args, **kwargs):
            states = run_filter(system, observations, *args, **kwargs)
            # Each cell runs on one thread, so its list is only touched from there.
            kept = self.trials.setdefault(_noise(system), [])
            if self.every_trial or not kept:
                kept.append((np.array(observations), np.array([state.estimate for state in states[1:]])))
            return states

        return wrapper

    def replacements(self) -> dict:
        from graphkalman import experiment

        return {(experiment, "run_filter"): self.wrap(experiment.run_filter)}

    def gaps(self, config, decomposition, spectrum) -> dict[tuple[int, int, int], float]:
        """Relative gap to the reference per captured (i, j, trial)."""
        gaps = {}
        for (sigma, sigma_tilde), kept in self.trials.items():
            i, j = config.sigma_grid.index(sigma), config.sigma_tilde_grid.index(sigma_tilde)
            for trial, (observations, estimates) in enumerate(kept):
                reference = oracle.reference_estimates(
                    spectrum,
                    decomposition,
                    config.state_poly,
                    config.observation_poly,
                    sigma,
                    sigma_tilde,
                    observations,
                )
                gaps[i, j, trial] = oracle.relative_gap(estimates, reference)
        return gaps


class Tracer:
    """Spans as [name, start, end, parent index, cell, thread id, tallied seconds, error]."""

    def __init__(self, config) -> None:
        self.config = config
        self.spans: list[list] = []
        self.tallies: dict[str, list] = {}  # name -> [seconds, calls]
        self.gain_degrees: dict[tuple[int, int], tuple[int, ...]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _cell(self, args) -> tuple[int, int] | None:
        """Cell of a call that takes the cell's system first, else the thread's last cell."""
        if args and hasattr(args[0], "state_noise"):
            sigma, sigma_tilde = _noise(args[0])
            self._local.cell = (self.config.sigma_grid.index(sigma), self.config.sigma_tilde_grid.index(sigma_tilde))
        return getattr(self._local, "cell", None)

    @contextmanager
    def span(self, name: str, cell: tuple[int, int] | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        record = [name, 0.0, 0.0, stack[-1] if stack else None, cell, threading.get_ident(), 0.0, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        except Exception as error:
            record[7] = type(error).__name__
            raise
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def timed(self, function, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name, self._cell(args)):
                return function(*args, **kwargs)

        return wrapper

    def tallied(self, function, name: str):
        with self._lock:
            totals = self.tallies.setdefault(name, [0.0, 0])

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with self._lock:
                    totals[0] += elapsed
                    totals[1] += 1
                stack = getattr(self._local, "stack", None)
                if stack:
                    self.spans[stack[-1]][6] += elapsed

        return wrapper

    def replacements(self, capture: FilterCapture) -> dict:
        """Wrappers for run_heatmap's layer calls; run_filter also feeds ``capture``."""
        from graphkalman import dynamics, experiment, kalman

        modules = {"dynamics": dynamics, "kalman": kalman}
        wrappers = {(experiment, name): self.timed(getattr(experiment, name), span) for name, span in SPANS.items()}
        wrappers[experiment, "run_filter"] = capture.wrap(wrappers[experiment, "run_filter"])
        riccati = wrappers[experiment, "riccati_sequence"]

        def riccati_with_degrees(system, *args, **kwargs):
            sequence = riccati(system, *args, **kwargs)
            self.gain_degrees[self._cell((system,))] = tuple(gain.degree for gain in sequence.gains)
            return sequence

        wrappers[experiment, "riccati_sequence"] = riccati_with_degrees
        for (module, name), tally in TALLIES.items():
            wrappers[modules[module], name] = self.tallied(getattr(modules[module], name), tally)
        return wrappers

    def durations(self, name: str) -> list[float]:
        return [span[2] - span[1] for span in self.spans if span[0] == name]

    def count(self, name: str, error: str | None = None) -> int:
        return sum(1 for span in self.spans if span[0] == name and span[7] == error)

    def self_times(self) -> dict[str, float]:
        """Total self time per span and tally name."""
        own = [end - start - tallied for _, start, end, _, _, _, tallied, _ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals = {name: seconds for name, (seconds, _) in self.tallies.items()}
        for span, value in zip(self.spans, own):
            totals[span[0]] = totals.get(span[0], 0.0) + value
        return totals

    def top_level_seconds(self) -> float:
        """Time inside outermost spans; the pass's wall time when one thread ran it."""
        return sum(end - start for _, start, end, parent, *_ in self.spans if parent is None)

    def cell_durations(self) -> list[float]:
        """Per cell, from its first span's start to its last span's end."""
        bounds: dict[tuple[int, int], list[float]] = {}
        for _, start, end, _, cell, *_ in self.spans:
            if cell is not None:
                low, high = bounds.setdefault(cell, [start, end])
                bounds[cell] = [min(low, start), max(high, end)]
        return [high - low for low, high in bounds.values()]

    def to_json(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "cell": None if cell is None else list(cell),
                    "thread": thread,
                    "tallied": tallied,
                    "error": error,
                }
                for name, start, end, parent, cell, thread, tallied, error in self.spans
            ],
            "tallies": {name: {"seconds": seconds, "calls": calls} for name, (seconds, calls) in self.tallies.items()},
        }
