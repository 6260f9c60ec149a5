"""Stationary graph signals: covariance polynomials, coloring, whitening, fitting.

A zero-mean random signal is stationary when its covariance matrix is a
polynomial of the graph shift.  A ``StationaryModel`` pairs that
polynomial with one ``SpectralDecomposition`` (the shift's eigenbasis and
distinct eigenvalues) and evaluates it once, at the distinct eigenvalues
(``group_variances``).
``sample`` colours white noise e in the eigenbasis, U diag(sqrt(h)) U^T e,
and ``whiten`` inverts the nonzero responses there; ``sqrt_filter``
interpolates the square-root responses only when the polynomial is asked for,
as a ``ChebyshevSeries`` on the spectrum's span that ``apply_filter``
applies with shift-vector products only.  ``fit_covariance_poly`` returns
the same form.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotPositiveSemidefiniteError, NumericalFailureError
from .filters import eval_filter
from .polynomials import ChebyshevSeries, Polynomial, lagrange_interpolate
from .spectral import SpectralDecomposition

PSD_TOL_SCALE = 1e-10


@dataclass(frozen=True, eq=False)
class StationaryModel:
    """Covariance polynomial of a zero-mean stationary signal on the shift
    that ``spectrum`` decomposes."""

    covariance_poly: Polynomial
    spectrum: SpectralDecomposition

    @cached_property
    def group_variances(self) -> np.ndarray:
        """Raw variances at the distinct-eigenvalue representatives, read-only;
        one that is not finite raises NumericalFailureError on every read."""
        # a value that overflows is infinite, and the check below names it
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.covariance_poly(self.spectrum.representatives)
        if not np.isfinite(values).all():
            raise NumericalFailureError("covariance polynomial is not finite at a distinct eigenvalue")
        values.flags.writeable = False
        return values

    @cached_property
    def clamped_group_variances(self) -> np.ndarray:
        """Group variances with tiny negative values clamped to zero, read-only
        and checked once per model.

        Raises:
            NotPositiveSemidefiniteError: as ``require_psd``, on every read,
                since a failed check caches nothing.
        """
        values = np.maximum(require_psd(self.group_variances, "covariance polynomial"), 0.0)
        values.flags.writeable = False
        return values


def require_psd(values: np.ndarray, what: str) -> np.ndarray:
    """Return frequency variances ``values`` unchanged unless one is below
    ``-PSD_TOL_SCALE * max(values)``; then raise NotPositiveSemidefiniteError."""
    worst = float(np.min(values))
    if worst < -PSD_TOL_SCALE * max(float(np.max(values)), 0.0):
        raise NotPositiveSemidefiniteError(f"{what} has negative frequency variance {worst:g}")
    return values


def sqrt_filter(model: StationaryModel) -> ChebyshevSeries:
    """Chebyshev interpolant taking the value sqrt(variance) at every distinct
    eigenvalue: the polynomial channel that colours white noise into the model."""
    variances = model.clamped_group_variances
    return lagrange_interpolate(model.spectrum.representatives, np.sqrt(variances))


def sample(
    model: StationaryModel, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw stationary signals by coloring standard white noise e in the
    eigenbasis: U diag(sqrt(h(lambda))) U^T e.

    Returns shape (n,) for ``size=None``, else (n, size), one signal per column.
    """
    spectrum = model.spectrum
    shape = (spectrum.n,) if size is None else (spectrum.n, size)
    noise = rng.standard_normal(shape)
    scale = spectrum.expand(np.sqrt(model.clamped_group_variances))
    # transposed so each signal lies along the last axis, and back
    return spectrum.from_spectral(scale * spectrum.to_spectral(noise.T)).T


def whiten(x: np.ndarray, model: StationaryModel, rng: np.random.Generator) -> np.ndarray:
    """Recover white noise from a stationary signal.

    Frequencies with nonzero variance are rescaled by the inverse square
    root; null frequencies are filled with fresh standard normal draws, so
    the result has identity covariance.
    """
    x = np.asarray(x, dtype=float)
    spectrum = model.spectrum
    n = spectrum.n
    if x.shape != (n,):
        raise ValueError(f"signal shape {x.shape} does not match graph order {n}")
    variances = spectrum.expand(model.clamped_group_variances)
    spectral = spectrum.to_spectral(x)
    noise = np.empty(n)
    nonzero = variances > 0.0
    noise[nonzero] = spectral[nonzero] / np.sqrt(variances[nonzero])
    noise[~nonzero] = rng.standard_normal(int(np.count_nonzero(~nonzero)))
    return spectrum.from_spectral(noise)


def fit_covariance_poly(matrix: np.ndarray, spectrum: SpectralDecomposition) -> tuple[ChebyshevSeries, float]:
    """Least-squares fit of a covariance matrix by a polynomial of the shift.

    Returns the fitted polynomial, a ``ChebyshevSeries`` of degree < number
    of distinct eigenvalues, and the relative residual
    ``||C - fit(S)||_F / max(1, ||C||_F)``.
    """
    c = np.asarray(matrix, dtype=float)
    diagonal = np.diag(spectrum.in_eigenbasis(c))
    if not np.allclose(c, c.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(c))):
        raise ValueError("covariance matrix must be symmetric")
    group_values = spectrum.group_means(diagonal)
    poly = lagrange_interpolate(spectrum.representatives, group_values)
    fitted = eval_filter(poly, spectrum)
    residual = np.linalg.norm(c - fitted) / max(1.0, np.linalg.norm(c))
    return poly, float(residual)
