"""Polynomial graph filters: spectral evaluation, spatial application,
membership test, and the Loewner order of two filters, as dense matrices
(``loewner_less``) or as responses at the distinct eigenvalues, one row of an
(M, d) error array (``spectral_loewner_less``)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import GraphShift
from .polynomials import ChebyshevSeries, Polynomial, lagrange_interpolate
from .spectral import SpectralDecomposition

MEMBERSHIP_TOL_SCALE = 1e-6
BLIND_TOL_SCALE = 1e-10
LOEWNER_TOL_SCALE = 1e-12

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
    c = spectrum.in_eigenbasis(m)
    tol = MEMBERSHIP_TOL_SCALE * np.linalg.norm(m)
    diagonal = np.diag(c).copy()
    off = c - np.diag(diagonal)
    if np.max(np.abs(off)) > tol:
        return MembershipResult(False, None)
    group_values = spectrum.group_means(diagonal)
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


def loewner_less(left: np.ndarray, right: np.ndarray) -> LoewnerComparison:
    """Strict Loewner comparison of symmetric matrices via the difference
    spectrum, within ``LOEWNER_TOL_SCALE * ||right||_F``."""
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape or left.ndim != 2 or left.shape[0] != left.shape[1]:
        raise ValueError(f"operands must be equal square matrices, got {left.shape} vs {right.shape}")
    for name, mat in (("left", left), ("right", right)):
        if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * max(1.0, np.linalg.norm(mat))):
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
