"""The quotient module S/(h) and Bézoutian forms on it.

For a homogeneous h of degree d with nonzero x0^d coefficient, the quotient
of the full polynomial ring by (h) is free of rank d over the subring in
x1..xn, with basis 1, x0bar, ..., x0bar^{d-1}.  This module provides exact
reduction to that basis, multiplication by x0bar, and the d x d polynomial
matrices ("Bézoutian forms") obtained from difference quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .poly import Poly


class QuotientContext:
    """Degree-d quotient of the polynomial ring by a single homogeneous h.

    The stored h is rescaled to be monic in x0 (the original leading
    coefficient is kept in `scale`), so reduction against h is companion
    style and exact.
    """

    __slots__ = ("h", "d", "n", "scale", "h_coeffs")

    def __init__(self, h: Poly):
        if not h.is_homogeneous:
            raise ValueError("quotient context needs a homogeneous polynomial")
        if h.is_zero:
            raise ValueError("quotient context needs a nonzero polynomial")
        if h.nvars < 2:
            raise ValueError("need at least one variable besides x0")
        d = h.degree
        lead = h.coeff((d,) + (0,) * (h.nvars - 1))
        if lead == 0:
            raise ValueError("polynomial must not vanish at (1,0,...,0)")
        monic = h * (1 / lead)
        coeffs = monic.x0_coefficients()
        coeffs += [Poly.zero(h.nvars)] * (d + 1 - len(coeffs))
        object.__setattr__(self, "h", monic)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", h.nvars - 1)
        object.__setattr__(self, "scale", lead)
        object.__setattr__(self, "h_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientContext is immutable")

    @property
    def nvars(self) -> int:
        return self.n + 1

    def zero_r(self) -> Poly:
        return Poly.zero(self.nvars)

    def __repr__(self) -> str:
        return f"QuotientContext(h={self.h!s}, d={self.d}, n={self.n})"


@dataclass(frozen=True)
class QuotientElement:
    """Element of the quotient: coefficient i multiplies x0bar^i.

    Every coefficient is free of x0.  For an element homogeneous of degree k
    the i-th coefficient is homogeneous of degree k - i (or zero).
    """

    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        for c in self.coeffs:
            if not c.uses_only_r_variables():
                raise ValueError("quotient coefficients must not involve x0")

    def homogeneous_degree(self) -> int:
        """Degree of a homogeneous element (coefficient degree + basis power)."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero:
                return c.degree + i
        return 0

    def mult_by_x0(self, ctx: QuotientContext) -> "QuotientElement":
        """Multiply by x0bar: shift the basis powers and reduce the overflow."""
        d = ctx.d
        top = self.coeffs[d - 1]
        out = [Poly.zero(ctx.nvars) for _ in range(d)]
        for i in range(d - 1):
            out[i + 1] = self.coeffs[i]
        if not top.is_zero:
            for j in range(d):
                out[j] = out[j] - ctx.h_coeffs[j] * top
        return QuotientElement(tuple(out))


def reduce_mod_h(ctx: QuotientContext, p: Poly) -> QuotientElement:
    """Unique representative with x0-degree below d."""
    if p.nvars != ctx.nvars:
        raise DimensionMismatch("polynomial and context variable counts differ")
    d = ctx.d
    parts = p.x0_coefficients()
    # Rewrite x0^k for k >= d via x0^d = -sum_{j<d} c_j x0^j, top down.
    while len(parts) > d:
        top = parts.pop()
        k = len(parts)  # top was the coefficient of x0^k
        if top.is_zero:
            continue
        for j in range(d):
            parts[k - d + j] = parts[k - d + j] - ctx.h_coeffs[j] * top
    parts += [Poly.zero(ctx.nvars)] * (d - len(parts))
    return QuotientElement(tuple(parts))


def _divide_by_s_minus_t(num: list[list], d: int) -> list[list]:
    """Synthetic division of an antisymmetric (d+1) x (d+1) table by (s - t).

    Entries are x0-free Polys; the d x d quotient is returned.
    """
    quot = [None] * d
    carry = num[d]
    for i in range(d - 1, -1, -1):
        quot[i] = list(carry)
        carry = [num[i][0]] + [num[i][j] + quot[i][j - 1] for j in range(1, d + 1)]
    assert not any(carry), "numerator was not divisible by s - t"
    assert not any(row[d] for row in quot), "quotient degree overflow in t"
    return [row[:d] for row in quot]


@dataclass(frozen=True)
class BezoutianForm:
    """Symmetric d x d matrix of x0-free polynomials.

    For a form of total degree D the (i, j) entry is homogeneous of degree
    D - i - j (or zero).  Forms produced here commute with the
    multiplication-by-x0 matrix: F B = B F^T.
    """

    entries: tuple[tuple[Poly, ...], ...]
    total_degree: int

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def scaled(self, p: Poly) -> "BezoutianForm":
        deg = p.degree
        return BezoutianForm(
            tuple(tuple(p * e for e in row) for row in self.entries),
            self.total_degree + deg,
        )

    def to_json_rows(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]


def bezoutian_of(ctx: QuotientContext, p: Poly) -> BezoutianForm:
    """Bézoutian form generated by p: reduce (h(s)p(t) - h(t)p(s)) / (s - t).

    p is reduced modulo h first; the division then lands directly in the
    span of s^i t^j with i, j < d, so no bidegree reduction is needed.
    """
    if p.nvars != ctx.nvars:
        raise DimensionMismatch("polynomial and context variable counts differ")
    if not p.is_homogeneous:
        raise ValueError("generator must be homogeneous")
    d = ctx.d
    p_red = reduce_mod_h(ctx, p)
    zero = ctx.zero_r()
    pc = list(p_red.coeffs) + [zero]
    hc = list(ctx.h_coeffs)
    # Numerator table N[i][j] = h_i p_j - h_j p_i over the coefficient ring.
    num = [[hc[i] * pc[j] - hc[j] * pc[i] for j in range(d + 1)] for i in range(d + 1)]
    entries = tuple(tuple(row) for row in _divide_by_s_minus_t(num, d))
    return BezoutianForm(entries, d - 1 + p_red.homogeneous_degree())


def delta_bezoutian(ctx: QuotientContext) -> BezoutianForm:
    """The distinguished Bézoutian from (h(s) - h(t)) / (s - t)."""
    return bezoutian_of(ctx, Poly.one(ctx.nvars))
