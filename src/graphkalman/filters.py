"""Polynomial graph filters, stationary signals among them.

A zero-mean random signal is stationary when its covariance matrix is a
polynomial filter of the graph shift: white noise passed through a
polynomial channel.  So one module holds filters and stationary models:

- ``eval_filter`` evaluates a filter as a dense matrix, ``apply_filter``
  applies it with shift-vector products only, and ``passband`` tells which
  frequencies a filter passes;
- ``is_polynomial_filter`` tests whether a matrix is a filter, and
  ``fit_covariance_poly`` fits one to a covariance matrix; both read a
  matrix M the one way, as the diagonal of U^T M U averaged over each group
  of equal eigenvalues;
- ``loewner_less`` orders two filters as dense matrices and
  ``spectral_loewner_less`` as responses at the distinct eigenvalues, one
  row of an (M, d) error array; ``loewner_less`` and
  ``fit_covariance_poly`` refuse an asymmetric matrix by one rule;
- a ``StationaryModel`` pairs a covariance polynomial with one
  ``SpectralDecomposition`` and evaluates it once, at the distinct
  eigenvalues (``group_variances``, checked by ``require_psd``).  Colouring
  (``sample``) scales white noise e in the eigenbasis, U diag(sqrt(h)) U^T e,
  and whitening (``whiten``) inverts the nonzero responses there;
  ``sqrt_filter`` interpolates the square-root responses only when the
  polynomial is asked for.  It and the fit (``fit_covariance_poly``) are
  ``ChebyshevSeries`` on the spectrum's span, which ``apply_filter``
  applies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotPositiveSemidefiniteError, NumericalFailureError
from .graphs import GraphShift
from .polynomials import ChebyshevSeries, Polynomial, lagrange_interpolate
from .spectral import SpectralDecomposition

MEMBERSHIP_TOL_SCALE = 1e-6
BLIND_TOL_SCALE = 1e-10
LOEWNER_TOL_SCALE = 1e-12
PSD_TOL_SCALE = 1e-10

VERDICT_STRICT = "strict"
VERDICT_NON_STRICT = "non-strict"
VERDICT_FAILS = "fails"


def eval_filter(poly: Polynomial | ChebyshevSeries, spectrum: SpectralDecomposition) -> np.ndarray:
    """Dense filter matrix H = U diag(h(lambda)) U^T, symmetrised and read-only."""
    return spectrum.operator(poly(spectrum.eigenvalues))


def apply_filter(poly: Polynomial | ChebyshevSeries, shift: GraphShift, x: np.ndarray) -> np.ndarray:
    """Apply h(S) to a signal with shift-vector products only; never forms h(S).

    A ``Polynomial`` is applied by Horner's rule on S.  A ``ChebyshevSeries``
    on [lo, hi] is applied by the Clenshaw recurrence on the mapped shift
    M = (2S - (lo + hi) I) / (hi - lo),

        b_k = c_k x + 2 M b_{k+1} - b_{k+2},   h(S) x = c_0 x + M b_1 - b_2,

    which is stable where the eigenvalues of S lie in [lo, hi], as they do
    for an interpolant through the shift's distinct eigenvalues.  Works on a
    single signal of shape (n,) or a batch of columns of shape (n, m).
    """
    s = shift.matrix
    x = np.asarray(x, dtype=float)
    if x.shape[0] != shift.n:
        raise ValueError(f"signal length {x.shape[0]} does not match graph order {shift.n}")
    coeffs = poly.coeffs
    if isinstance(poly, Polynomial):
        acc = coeffs[-1] * x
        for c in coeffs[-2::-1]:
            acc = s @ acc + c * x
        return acc
    if poly.degree == 0:
        return coeffs[0] * x
    lo, hi = poly.domain

    def mapped(v: np.ndarray) -> np.ndarray:
        return (2.0 * (s @ v) - (lo + hi) * v) / (hi - lo)

    b1, b2 = coeffs[-1] * x, 0.0
    for c in coeffs[-2:0:-1]:
        b1, b2 = c * x + 2.0 * mapped(b1) - b2, b1
    return coeffs[0] * x + mapped(b1) - b2


def passband(responses: np.ndarray) -> np.ndarray:
    """Where a filter passes: |response| above ``BLIND_TOL_SCALE`` times the
    largest |response| of its row; the other frequencies are blind."""
    responses = np.abs(responses)
    return responses > BLIND_TOL_SCALE * np.max(responses, axis=-1, keepdims=True)


def _filter_reading(m: np.ndarray, spectrum: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """How a matrix M reads as a filter: U^T M U (an (n, n) M, any other shape
    raising ``ValueError``) and the means of its diagonal over each group of
    equal eigenvalues, the responses at the distinct eigenvalues."""
    c = spectrum.in_eigenbasis(m)
    return c, spectrum.group_means(np.diag(c))


class MembershipResult(NamedTuple):
    is_member: bool
    witness: ChebyshevSeries | None


def is_polynomial_filter(matrix: np.ndarray, spectrum: SpectralDecomposition) -> MembershipResult:
    """Test whether a matrix is a polynomial of the shift ``spectrum`` decomposes.

    The matrix must be diagonal in the shift's eigenbasis with diagonal
    entries constant on each repeated-eigenvalue group, both within
    ``MEMBERSHIP_TOL_SCALE * ||matrix||_F``.  On success the witness is the
    Chebyshev interpolant through the per-group diagonal values
    (``lagrange_interpolate``; ``NumericalFailureError`` where it cannot
    keep them).
    """
    m = np.asarray(matrix, dtype=float)
    c, group_values = _filter_reading(m, spectrum)
    tol = MEMBERSHIP_TOL_SCALE * np.linalg.norm(m)
    diagonal = np.diag(c)
    if np.max(np.abs(c - np.diag(diagonal))) > tol:
        return MembershipResult(False, None)
    spread = np.max(np.abs(diagonal - spectrum.expand(group_values)))
    if spread > tol:
        return MembershipResult(False, None)
    witness = lagrange_interpolate(spectrum.representatives, group_values)
    return MembershipResult(True, witness)


@dataclass(frozen=True, eq=False)
class LoewnerComparison:
    """Outcome of testing left < right in the Loewner order."""

    min_eigenvalue: float
    tol: float
    verdict: str


def _verdict(min_eigenvalue: float, tol: float) -> str:
    if min_eigenvalue > tol:
        return VERDICT_STRICT
    if min_eigenvalue >= -tol:
        return VERDICT_NON_STRICT
    return VERDICT_FAILS


def _is_symmetric(m: np.ndarray) -> bool:
    """Whether a square matrix equals its transpose within 1e-10 max(1, ||m||_F)."""
    return np.allclose(m, m.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(m)))


def loewner_less(left: np.ndarray, right: np.ndarray) -> LoewnerComparison:
    """Strict Loewner comparison of symmetric matrices via the difference
    spectrum, within ``LOEWNER_TOL_SCALE * ||right||_F``."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape or left.ndim != 2 or left.shape[0] != left.shape[1]:
        raise ValueError(f"operands must be equal square matrices, got {left.shape} vs {right.shape}")
    for name, mat in (("left", left), ("right", right)):
        if not _is_symmetric(mat):
            raise ValueError(f"{name} operand is not symmetric")
    tol = LOEWNER_TOL_SCALE * float(np.linalg.norm(right))
    diff = right - left
    diff = 0.5 * (diff + diff.T)
    min_eigenvalue = float(np.linalg.eigvalsh(diff)[0])
    return LoewnerComparison(min_eigenvalue=min_eigenvalue, tol=tol, verdict=_verdict(min_eigenvalue, tol))


def spectral_loewner_less(left: np.ndarray, right: np.ndarray, spectrum: SpectralDecomposition) -> LoewnerComparison:
    """Loewner comparison of two filters from their responses at the distinct
    eigenvalues, within ``LOEWNER_TOL_SCALE`` times the right filter's norm."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    for name, values in (("left", left), ("right", right)):
        if values.shape != (spectrum.count,):
            raise ValueError(f"{name} responses have shape {values.shape}, expected ({spectrum.count},)")
    tol = LOEWNER_TOL_SCALE * float(np.linalg.norm(spectrum.expand(right)))
    min_eigenvalue = float(np.min(right - left))
    return LoewnerComparison(min_eigenvalue=min_eigenvalue, tol=tol, verdict=_verdict(min_eigenvalue, tol))


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
    _, group_values = _filter_reading(c, spectrum)
    if not _is_symmetric(c):
        raise ValueError("covariance matrix must be symmetric")
    poly = lagrange_interpolate(spectrum.representatives, group_values)
    fitted = eval_filter(poly, spectrum)
    residual = np.linalg.norm(c - fitted) / max(1.0, np.linalg.norm(c))
    return poly, float(residual)
