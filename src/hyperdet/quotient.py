"""The quotient module S/(h) and Bézoutian forms on it.

For a homogeneous h of degree d with nonzero x0^d coefficient, the quotient
of the full polynomial ring by (h) is free of rank d over the subring in
x1..xn, with basis 1, x0bar, ..., x0bar^{d-1}.  This module provides the
one division by h, whose remainder is the reduction to that basis and whose
quotient is the cofactor of a certificate, and the d x d polynomial matrices
("Bézoutian forms") obtained from difference quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .poly import Monomial, Poly


class QuotientContext:
    """Degree-d quotient of the polynomial ring by a single homogeneous h.

    The stored h is rescaled to be monic in x0, so division by h is
    companion style and exact.
    """

    __slots__ = ("h", "d", "n", "h_coeffs")

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
        object.__setattr__(self, "h_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientContext is immutable")

    @property
    def nvars(self) -> int:
        return self.n + 1

    def __repr__(self) -> str:
        return f"QuotientContext(h={self.h!s}, d={self.d}, n={self.n})"


def divide_by_h(ctx: QuotientContext, p: Poly) -> tuple[Poly, tuple[Poly, ...]]:
    """(q, r) with p = q * h_monic + sum_j r_j x0^j, every r_j free of x0.

    r_0..r_(d-1) are the coordinates of p's class over 1, x0bar, ...,
    x0bar^(d-1), and q is the x0-quotient; p is a multiple of h_monic
    exactly when every r_j is zero.
    """
    if p.nvars != ctx.nvars:
        raise DimensionMismatch("polynomial and context variable counts differ")
    d = ctx.d
    parts = p.x0_coefficients()
    quotient: dict[Monomial, Fraction] = {}
    # Rewrite x0^k for k >= d via x0^d = -sum_{j<d} c_j x0^j, top down; the
    # coefficient popped at x0^k is that of x0^(k-d) in q.
    while len(parts) > d:
        top = parts.pop()
        k = len(parts)  # top was the coefficient of x0^k
        if top.is_zero:
            continue
        quotient.update(((k - d,) + mono[1:], c) for mono, c in top.terms())
        for j in range(d):
            parts[k - d + j] = parts[k - d + j] - ctx.h_coeffs[j] * top
    parts += [Poly.zero(ctx.nvars)] * (d - len(parts))
    return Poly(ctx.nvars, quotient), tuple(parts)


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

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i][j]

    def to_json_rows(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.entries]


def bezoutian_of(ctx: QuotientContext, p: Poly) -> BezoutianForm:
    """Bézoutian form generated by p: reduce (h(s)p(t) - h(t)p(s)) / (s - t).

    p is reduced modulo h first (the remainder of divide_by_h); the division
    then lands directly in the span of s^i t^j with i, j < d, so no bidegree
    reduction is needed.
    """
    if p.nvars != ctx.nvars:
        raise DimensionMismatch("polynomial and context variable counts differ")
    if not p.is_homogeneous:
        raise ValueError("generator must be homogeneous")
    d = ctx.d
    _, reduced = divide_by_h(ctx, p)
    pc = reduced + (Poly.zero(ctx.nvars),)
    hc = ctx.h_coeffs
    # Numerator table N[i][j] = h_i p_j - h_j p_i over the coefficient ring.
    num = [[hc[i] * pc[j] - hc[j] * pc[i] for j in range(d + 1)] for i in range(d + 1)]
    return BezoutianForm(tuple(tuple(row) for row in _divide_by_s_minus_t(num, d)))


def delta_bezoutian(ctx: QuotientContext) -> BezoutianForm:
    """The distinguished Bézoutian from (h(s) - h(t)) / (s - t)."""
    return bezoutian_of(ctx, Poly.one(ctx.nvars))
