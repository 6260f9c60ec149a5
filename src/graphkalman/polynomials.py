"""Real polynomials in one variable, stored as ascending coefficient tuples."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
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

    ``tail`` optionally holds the low parts of double-double coefficients,
    so that coeffs[i] + tail[i] is the coefficient to about twice float64
    precision; ``lagrange_interpolate`` fills it.  It is neither compared,
    hashed, serialised nor carried through arithmetic: equality, ``to_list``
    and every operator see ``coeffs`` alone, and ``apply_filter`` applies
    ``coeffs`` alone.  Evaluation uses compensated Horner on
    (coeffs, tail) when a tail is present and plain Horner otherwise.
    """

    coeffs: tuple[float, ...] = (0.0,)
    tail: tuple[float, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        trimmed = _trim(self.coeffs)
        if not all(np.isfinite(c) for c in trimmed):
            raise ValueError(f"non-finite coefficient in {trimmed!r}")
        object.__setattr__(self, "coeffs", trimmed)
        if self.tail is not None:
            tail = tuple(float(c) for c in self.tail[: len(trimmed)])
            if len(tail) != len(trimmed) or not all(np.isfinite(c) for c in tail):
                raise ValueError(f"tail {self.tail!r} does not match coefficients {trimmed!r}")
            object.__setattr__(self, "tail", tail)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls((0.0,))

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1.0,))

    @classmethod
    def constant(cls, value: float) -> "Polynomial":
        return cls((float(value),))

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial h(t) = t."""
        return cls((0.0, 1.0))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    def __call__(self, t):
        if self.tail is None:
            return npoly.polyval(t, self.coeffs)
        return _compensated_horner(self.coeffs, self.tail, np.asarray(t, dtype=float))

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        return Polynomial(tuple(npoly.polyadd(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        # the convolution sums in operand order; a fixed order makes p*q == q*p
        first, second = sorted((self.coeffs, _coerce(other).coeffs))
        return Polynomial(tuple(npoly.polymul(first, second)))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, (int, np.integer)) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return Polynomial(tuple(npoly.polypow(self.coeffs, int(exponent))))

    def __mod__(self, modulus: "Polynomial") -> "Polynomial":
        return reduce_mod_minimal(self, modulus)

    def to_list(self) -> list[float]:
        return list(self.coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[float]) -> "Polynomial":
        return Polynomial(tuple(float(c) for c in coeffs))


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Polynomial.constant(float(value))
    raise TypeError(f"cannot treat {value!r} as a polynomial")


def reduce_mod_minimal(poly: Polynomial, modulus: Polynomial) -> Polynomial:
    """Remainder of ``poly`` under division by ``modulus`` (degree strictly reduced)."""
    if modulus.is_zero:
        raise ValueError("cannot reduce modulo the zero polynomial")
    if modulus.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if poly.degree < modulus.degree:
        return poly
    _, rem = npoly.polydiv(poly.coeffs, modulus.coeffs)
    return Polynomial(tuple(rem))


@lru_cache(maxsize=128)
def _interpolation_operator(node_bytes: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomial coefficients of the Lagrange basis at the given nodes.

    The map values -> coefficients is linear; its matrix is computed in
    exact rational arithmetic (floats are dyadic rationals) because the
    monomial basis is ill-conditioned enough that an all-double build
    loses several digits at the nodes.  Returned as a double-double pair
    (hi, lo) with hi + lo the correctly rounded entries.
    """
    nodes = np.frombuffer(node_bytes, dtype=float).reshape(count)
    roots = [Fraction(v) for v in nodes]
    d = len(roots)
    node_poly = [Fraction(1)]
    for r in roots:
        # multiply by (t - r)
        extended = [Fraction(0)] * (len(node_poly) + 1)
        for i, c in enumerate(node_poly):
            extended[i + 1] += c
            extended[i] -= r * c
        node_poly = extended
    hi = np.empty((d, d))
    lo = np.empty((d, d))
    for j, r in enumerate(roots):
        # synthetic division of the node polynomial by (t - r)
        quotient = [Fraction(0)] * d
        quotient[d - 1] = node_poly[d]
        for i in range(d - 1, 0, -1):
            quotient[i - 1] = node_poly[i] + r * quotient[i]
        weight = Fraction(1)
        for k, other in enumerate(roots):
            if k != j:
                weight *= r - other
        for i in range(d):
            exact = quotient[i] / weight
            hi[i, j] = float(exact)
            lo[i, j] = float(exact - Fraction(hi[i, j]))
    return hi, lo


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Dekker's split: a = a_hi + a_lo, each half exactly representable in 26 bits
    a_big = 134217729.0 * a  # 2**27 + 1
    a_hi = a_big - (a_big - a)
    return a_hi, a - a_hi


def _two_prod(a: np.ndarray, b, b_split) -> tuple[np.ndarray, np.ndarray]:
    # exact product error without FMA; ``b_split`` is ``_split(b)``, made once
    # by callers that multiply by the same ``b`` many times
    product = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = b_split
    err = ((a_hi * b_hi - product) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return product, err


def _two_sum(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    total = a + b
    b_virtual = total - a
    err = (a - (total - b_virtual)) + (b - b_virtual)
    return total, err


def _compensated_horner(coeffs: Sequence[float], tail: Sequence[float], x: np.ndarray):
    """Horner's rule with its rounding errors, and the coefficients' low
    parts, accumulated in a second polynomial (Graillat, Langlois & Louvet,
    "Compensated Horner scheme", 2005): about as accurate as Horner run in
    twice the working precision."""
    x_split = _split(x)
    s = np.full_like(x, coeffs[-1])
    c = np.full_like(x, tail[-1])
    for a, a_lo in zip(coeffs[-2::-1], tail[-2::-1]):
        product, prod_err = _two_prod(s, x, x_split)
        s, sum_err = _two_sum(product, a)
        c = c * x + (prod_err + sum_err + a_lo)
    return s + c


TRIM_ULPS = 64
NODE_RESIDUAL_TOL = 1e-7


def _negligible_terms(hi: np.ndarray, lo: np.ndarray, radius: float, floor: float) -> int:
    """How many trailing terms have a summed bound sum |c_l| * radius**l
    within ``floor``; the constant term is never counted."""
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = np.abs(hi + lo) * radius ** np.arange(hi.size)
    within = np.cumsum(sizes[:0:-1]) <= floor
    return within.size if within.all() else int(np.argmin(within))


def lagrange_interpolate(nodes, values) -> Polynomial:
    """Interpolating polynomial of degree < d through ``(nodes[j], values[j])``.

    Applies the exact Lagrange-basis operator (barycentric weights and node
    polynomial deflation) with compensated accumulation.  The result carries
    the double-double coefficients: ``coeffs`` holds the high parts and
    ``tail`` the low parts, so evaluation is compensated.  The result
    reproduces the node values to max_j |g(x_j) - y_j| <= 1e-7 * max|y|
    (``NODE_RESIDUAL_TOL``; near the float64 representation floor on
    well-separated nodes), and this is checked before it is returned.

    Trailing terms are dropped while their summed size on the nodes,
    sum |c_l| * R**l with R = max(1, max|x_j|), stays within
    ``TRIM_ULPS * eps * max|y|``; so constant values give a constant, and
    the dropped terms move no node value by more than the rounding of the
    values themselves.

    Raises:
        ValueError: if two nodes coincide or an input is not finite.
        NumericalFailureError: if the interpolant misses its node values by
            more than that (also when its coefficients overflow float64).
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
        return Polynomial.constant(y[0])
    diff = x[:, None] - x[None, :]
    if np.any(diff[~np.eye(d, dtype=bool)] == 0.0):
        raise ValueError("interpolation nodes must be pairwise distinct")

    try:
        hi, lo = _interpolation_operator(x.tobytes(), d)
    except OverflowError as exc:
        raise NumericalFailureError(f"interpolation operator on {d} nodes overflows float64") from exc
    scale = float(np.max(np.abs(y)))
    with np.errstate(over="ignore", invalid="ignore"):
        products, prod_errs = _two_prod(hi, y, _split(y))
        lo_terms = lo * y
        acc = np.zeros(d)
        comp = np.zeros(d)
        for j in range(d):
            acc, sum_err = _two_sum(acc, products[:, j])
            comp += prod_errs[:, j] + sum_err + lo_terms[:, j]
        coeffs, tail = _two_sum(acc, comp)
        floor = TRIM_ULPS * np.finfo(float).eps * scale
        keep = d - _negligible_terms(coeffs, tail, max(1.0, float(np.max(np.abs(x)))), floor)
        coeffs, tail = coeffs[:keep], tail[:keep]
        # non-finite coefficients give a non-finite residual
        residual = float(np.max(np.abs(_compensated_horner(coeffs, tail, x) - y)))
    if not residual <= NODE_RESIDUAL_TOL * scale:
        raise NumericalFailureError(
            f"interpolant on {d} nodes misses its node values by {residual:.3g}"
            f" (allowed {NODE_RESIDUAL_TOL:g} * max|y| = {NODE_RESIDUAL_TOL * scale:.3g})"
        )
    return Polynomial(tuple(coeffs), tail=tuple(tail))
