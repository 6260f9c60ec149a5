"""Polynomial graph filters: their two coefficient forms, stationary signals
among them.

Every filter here is a polynomial of the graph shift, in one of two forms
that take their coefficients by one rule (each a real number that is
finite, at least one):

- ``Polynomial`` is an input type.  It holds the ascending monomial
  coefficients of what a user writes (the state and observation filters a
  and b, the prior h_0), whose list is their JSON form, and their
  evaluation, and no arithmetic: filters of one shift add and compose by
  adding and multiplying their frequency responses, so the responses carry
  the algebra.  ``require_polynomial`` is the one way to make one.
- ``ChebyshevSeries`` holds Chebyshev coefficients on an interval.  It is
  what ``lagrange_interpolate`` returns: the one way from values at distinct
  eigenvalues back to a polynomial of the shift.  On the interval spanned by
  the nodes, the Chebyshev-Vandermonde system of a graph spectrum is well
  conditioned (the distinct eigenvalues of a cycle are Chebyshev-Lobatto
  points), where the monomial one is not.  One map of the interval onto
  [-1, 1] serves its evaluation, the interpolation and ``apply_filter``'s
  Clenshaw recurrence on the shift.

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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as npoly

from .errors import NotPositiveSemidefiniteError, NumericalFailureError
from .graphs import GraphShift, SpectralDecomposition, require_real

MEMBERSHIP_TOL_SCALE = 1e-6
BLIND_TOL_SCALE = 1e-10
LOEWNER_TOL_SCALE = 1e-12
PSD_TOL_SCALE = 1e-10
TRIM_ULPS = 64
NODE_RESIDUAL_TOL = 1e-7

VERDICT_STRICT = "strict"
VERDICT_NON_STRICT = "non-strict"
VERDICT_FAILS = "fails"


def _reals(values, what: str) -> tuple[float, ...]:
    """``values`` as a nonempty tuple of finite floats, each made by
    ``require_real``'s rule: the one rule for both forms' coefficients and a
    series' domain.  A string, a scalar, an empty sequence or a value that
    is refused or not finite raises ValueError naming ``what``."""
    if isinstance(values, (str, bytes)) or not np.iterable(values):
        raise ValueError(f"{what}s must be a sequence of numbers, got {values!r}")
    out = tuple(require_real(v, what) for v in values)
    if not (out and all(map(math.isfinite, out))):
        raise ValueError(f"{what}s must be finite and nonempty, got {out!r}")
    return out


@dataclass(frozen=True)
class Polynomial:
    """h(t) = coeffs[0] + coeffs[1]*t + ... + coeffs[L]*t^L.

    An input type: coefficients (``list(p.coeffs)`` is the JSON form), degree
    and evaluation.  Sums and products of filters are taken on their values
    h(lambda), not here.

    The constructor makes the one canonical form from a list, tuple or 1-D
    array: a tuple of floats without exact trailing zeros, at least the
    constant term, so ``Polynomial()`` is the zero polynomial and
    ``Polynomial((v,))`` the constant v.  A string, a scalar, an empty
    sequence, a coefficient that is not a real number (a string, a boolean,
    None) or one that is not finite raises ValueError.
    """

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        coeffs = list(_reals(self.coeffs, "coefficient"))
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        return npoly.polyval(t, self.coeffs)


def require_polynomial(value, name: str) -> Polynomial:
    """``value`` if it is a ``Polynomial``, else the ``Polynomial`` its
    constructor makes from ``value``; ValueError naming ``name`` if the
    constructor refuses it.  The one rule for a config's a and b, a
    system's a_k, b_k and h_0 and a stationary model's covariance."""
    if isinstance(value, Polynomial):
        return value
    try:
        return Polynomial(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class ChebyshevSeries:
    """g(t) = coeffs[0] T_0(u) + ... + coeffs[K] T_K(u) on ``domain`` = (lo, hi),
    where u = (2t - (lo + hi)) / (hi - lo) maps [lo, hi] onto [-1, 1].

    Coefficients and domain ends are taken by ``Polynomial``'s coefficient
    rule, and kept as given.  A one-point domain (lo == hi) carries a
    constant only.
    """

    coeffs: tuple[float, ...]
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        coeffs = _reals(self.coeffs, "coefficient")
        lo, hi = _reals(self.domain, "domain end")
        if not (lo < hi or (lo == hi and len(coeffs) == 1)):
            raise ValueError(f"domain {(lo, hi)!r} must have lo < hi, or lo == hi for a constant")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "domain", (lo, hi))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        lo, hi = self.domain
        t = np.asarray(t, dtype=float)
        unit = _to_unit(t, lo, hi) if hi > lo else 0.0 * t
        return cheb.chebval(unit, self.coeffs)


def lagrange_interpolate(nodes, values) -> ChebyshevSeries:
    """Interpolating polynomial of degree < d through ``(nodes[j], values[j])``.

    Solves the Chebyshev-Vandermonde system T_k(u_j) for the coefficients on
    [min node, max node], with u_j the nodes mapped onto [-1, 1].  The
    result reproduces the node values to max_j |g(x_j) - y_j| <= 1e-7 *
    max|y| (``NODE_RESIDUAL_TOL``), and this is checked before it is
    returned.  On a graph spectrum the system is well conditioned and the
    residual is near the float64 rounding of the values; on nodes whose
    system is ill conditioned the check may fail, and then it raises.

    Trailing terms are dropped while their summed size sum |c_k| stays
    within ``TRIM_ULPS * eps * max|y|``.  Since |T_k| <= 1 on the domain, the
    dropped terms move no value on it by more than that; constant values
    give a constant.

    Raises:
        ValueError: if two nodes coincide or an input is not finite.
        NumericalFailureError: if the system is singular in float64, or the
            interpolant misses its node values by more than that (also when
            its coefficients overflow float64).
    """
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    y = np.atleast_1d(np.asarray(values, dtype=float))
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("nodes and values must be one-dimensional and equal length")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("nodes and values must be finite")
    d = x.size
    if d == 0:
        raise ValueError("need at least one interpolation node")
    if d == 1:
        return ChebyshevSeries((y[0],), (x[0], x[0]))
    diff = x[:, None] - x[None, :]
    if np.any(diff[~np.eye(d, dtype=bool)] == 0.0):
        raise ValueError("interpolation nodes must be pairwise distinct")

    lo, hi = float(np.min(x)), float(np.max(x))
    unit = _to_unit(x, lo, hi)
    try:
        coeffs = np.linalg.solve(cheb.chebvander(unit, d - 1), y)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"Chebyshev-Vandermonde system on {d} nodes is singular") from exc
    scale = float(np.max(np.abs(y)))
    with np.errstate(over="ignore", invalid="ignore"):
        within = np.cumsum(np.abs(coeffs[:0:-1])) <= TRIM_ULPS * np.finfo(float).eps * scale
        keep = d - (within.size if within.all() else int(np.argmin(within)))
        coeffs = coeffs[:keep]
        # non-finite coefficients give a non-finite residual
        residual = float(np.max(np.abs(cheb.chebval(unit, coeffs) - y)))
    if not residual <= NODE_RESIDUAL_TOL * scale:
        raise NumericalFailureError(
            f"interpolant on {d} nodes misses its node values by {residual:.3g}"
            f" (allowed {NODE_RESIDUAL_TOL:g} * max|y| = {NODE_RESIDUAL_TOL * scale:.3g})"
        )
    return ChebyshevSeries(tuple(coeffs), (lo, hi))


def eval_filter(poly: Polynomial | ChebyshevSeries, spectrum: SpectralDecomposition) -> np.ndarray:
    """Dense filter matrix H = U diag(h(lambda)) U^T, symmetrised and read-only."""
    return spectrum.operator(poly(spectrum.eigenvalues))


def _to_unit(t, lo: float, hi: float, identity=1.0):
    """The Chebyshev map u = (2t - (lo + hi)) / (hi - lo) of [lo, hi] onto
    [-1, 1].  On the shift, t is S v and ``identity`` the vector v, which
    gives M v for the mapped shift M = (2S - (lo + hi) I) / (hi - lo)."""
    return (2.0 * t - (lo + hi) * identity) / (hi - lo)


def apply_filter(poly: Polynomial | ChebyshevSeries, shift: GraphShift, x: np.ndarray) -> np.ndarray:
    """Apply h(S) to a signal with shift-vector products only; never forms h(S).

    A ``Polynomial`` is applied by Horner's rule on S.  A ``ChebyshevSeries``
    on [lo, hi] is applied by the Clenshaw recurrence on the mapped shift
    M = (2S - (lo + hi) I) / (hi - lo),

        b_k = c_k x + 2 M b_{k+1} - b_{k+2},   h(S) x = c_0 x + M b_1 - b_2,

    which is stable where the eigenvalues of S lie in [lo, hi], as they do
    for an interpolant through the shift's distinct eigenvalues.  Works on a
    single signal of shape (n,) or a batch of columns of shape (n, m); a
    signal of any other shape raises ValueError.
    """
    s = shift.matrix
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != shift.n:
        raise ValueError(f"signal shape {x.shape} does not match graph order {shift.n}: expected (n,) or (n, m)")
    coeffs = poly.coeffs
    if isinstance(poly, Polynomial):
        acc = coeffs[-1] * x
        for c in coeffs[-2::-1]:
            acc = s @ acc + c * x
        return acc
    if poly.degree == 0:
        return coeffs[0] * x
    lo, hi = poly.domain
    b1, b2 = coeffs[-1] * x, 0.0
    for c in coeffs[-2:0:-1]:
        b1, b2 = c * x + 2.0 * _to_unit(s @ b1, lo, hi, b1) - b2, b1
    return coeffs[0] * x + _to_unit(s @ b1, lo, hi, b1) - b2


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
    that ``spectrum`` decomposes.

    A ``ChebyshevSeries`` (a fitted covariance) is kept as it is; any other
    covariance is made a ``Polynomial`` by ``require_polynomial``'s rule, so
    a sequence of numbers is accepted and a value it refuses raises
    ValueError when the model is built.
    """

    covariance_poly: Polynomial | ChebyshevSeries
    spectrum: SpectralDecomposition

    def __post_init__(self) -> None:
        if not isinstance(self.covariance_poly, ChebyshevSeries):
            poly = require_polynomial(self.covariance_poly, "covariance polynomial")
            object.__setattr__(self, "covariance_poly", poly)

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
