"""Real polynomials in one variable: monomial and Chebyshev forms.

``Polynomial`` is an input type.  It holds the ascending monomial
coefficients of what a user writes (the state and observation filters a
and b, the prior h_0), whose list is their JSON form, and their
evaluation, and no arithmetic: filters of one shift add and compose by
adding and multiplying their frequency responses, so the responses carry
the algebra.
``ChebyshevSeries`` holds Chebyshev coefficients on an interval.  It is what
``lagrange_interpolate`` returns: the one way from values at distinct
eigenvalues back to a polynomial of the shift.  On the interval spanned by
the nodes, the Chebyshev-Vandermonde system of a graph spectrum is well
conditioned (the distinct eigenvalues of a cycle are Chebyshev-Lobatto
points), where the monomial one is not.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as npoly

from .errors import NumericalFailureError


def _trim(coeffs: Sequence[float]) -> tuple[float, ...]:
    # canonical form: drop exact trailing zeros, keep at least the constant term
    out = [float(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0.0:
        out.pop()
    if not out:
        out = [0.0]
    return tuple(out)


@dataclass(frozen=True)
class Polynomial:
    """h(t) = coeffs[0] + coeffs[1]*t + ... + coeffs[L]*t^L.

    An input type: coefficients (``list(p.coeffs)`` is the JSON form), degree
    and evaluation.  The constructor floats and trims any sequence.  Sums and
    products of filters are taken on their values h(lambda), not here.
    """

    coeffs: tuple[float, ...] = (0.0,)

    def __post_init__(self) -> None:
        trimmed = _trim(self.coeffs)
        if not all(np.isfinite(c) for c in trimmed):
            raise ValueError(f"non-finite coefficient in {trimmed!r}")
        object.__setattr__(self, "coeffs", trimmed)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((0.0,))

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls((float(value),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t):
        return npoly.polyval(t, self.coeffs)


@dataclass(frozen=True)
class ChebyshevSeries:
    """g(t) = coeffs[0] T_0(u) + ... + coeffs[K] T_K(u) on ``domain`` = (lo, hi),
    where u = (2t - (lo + hi)) / (hi - lo) maps [lo, hi] onto [-1, 1].

    A one-point domain (lo == hi) carries a constant only.
    """

    coeffs: tuple[float, ...]
    domain: tuple[float, float]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        lo, hi = (float(v) for v in self.domain)
        if not coeffs or not all(np.isfinite(c) for c in coeffs + (lo, hi)):
            raise ValueError(f"coefficients {coeffs!r} and domain {(lo, hi)!r} must be finite and non-empty")
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
        unit = (2.0 * t - (lo + hi)) / (hi - lo) if hi > lo else 0.0 * t
        return cheb.chebval(unit, self.coeffs)


TRIM_ULPS = 64
NODE_RESIDUAL_TOL = 1e-7


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
    unit = (2.0 * x - (lo + hi)) / (hi - lo)
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
