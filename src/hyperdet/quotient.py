"""The quotient module S/(h) and Bézoutian forms on it.

For a homogeneous h of degree d with nonzero x0^d coefficient, the quotient
of the full polynomial ring by (h) is free of rank d over the subring in
x1..xn, with basis 1, x0bar, ..., x0bar^{d-1}.  This module provides the
one division by h, whose remainder is the reduction to that basis and whose
quotient is the cofactor of a certificate, the d x d polynomial matrices
("Bézoutian forms") of difference quotients (README step 2), and h_monic's x0
coefficients compiled for evaluation at integer points (line_forms).  All
run on integers: a polynomial is held as integer x0-coefficient forms in
x1..xn over one denominator, each monomial packed into one int
(packed_forms), and divide_packed divides such forms by den*h_monic with
every step exact.  bezoutian_of forms one Fraction per coefficient of the
entries it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionMismatch
from .poly import Monomial, Poly


class QuotientContext:
    """Degree-d quotient of the polynomial ring by a single homogeneous h.

    The stored h is rescaled to be monic in x0, so division by h is
    companion style and exact.
    """

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
        object.__setattr__(self, "h", monic)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", h.nvars - 1)
        object.__setattr__(self, "h_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientContext is immutable")

    @property
    def nvars(self) -> int:
        return self.n + 1

    @cached_property
    def line_forms(self) -> tuple[LineForms, int]:
        """integer_forms(h), compiled on first use: the sampled checks and
        verify's lattice check evaluate h_monic through it."""
        return integer_forms(self.h)

    def __repr__(self) -> str:
        return f"QuotientContext(h={self.h!s}, d={self.d}, n={self.n})"


@dataclass(frozen=True)
class LineForms:
    """The x0 coefficients c_0, c_1, ... of den*p, integer forms in x1..xn,
    compiled for evaluation at integer points u.

    coeffs holds every term's integer coefficient, c_0's terms first, then
    c_1's, and lengths the number of terms of each c_j.  Each (variable,
    exponent) pair some term uses is one power slot: slot k >= 1 holds
    u[variables[k-1]] ** exponents[k-1], and slot 0 holds 1.  Term t is
    coeffs[t] * slot[factors[0][t]] * slot[factors[1][t]] * ..., a term with
    fewer variables than len(factors) padded with slot 0.
    """

    coeffs: tuple[int, ...]
    lengths: tuple[int, ...]
    variables: tuple[int, ...]
    exponents: tuple[int, ...]
    factors: tuple[tuple[int, ...], ...]


def integer_forms(p: Poly) -> tuple[LineForms, int]:
    """(forms, den): the x0 coefficients c_0, c_1, ... of den*p, lowest power
    first, as LineForms in x1..xn; den > 0 is the lcm of p's denominators."""
    den = lcm(*(c.denominator for _, c in p.terms()))
    slots: dict[tuple[int, int], int] = {}
    coeffs: list[int] = []
    lengths: list[int] = []
    rows: list[list[int]] = []
    for form in p.x0_coefficients():
        terms = list(form.terms())
        lengths.append(len(terms))
        for mono, c in terms:
            coeffs.append(c.numerator * (den // c.denominator))
            rows.append([slots.setdefault((i, e), len(slots) + 1)
                         for i, e in enumerate(mono[1:]) if e])
    width = max(map(len, rows), default=0)
    factors = tuple(zip(*(row + [0] * (width - len(row)) for row in rows)))
    return LineForms(tuple(coeffs), tuple(lengths), tuple(i for i, _ in slots),
                     tuple(e for _, e in slots), factors), den


def restriction(forms: LineForms, u: Sequence[int]) -> list[int]:
    """[c_j(u)] lowest first, for the forms of integer_forms(p): the
    coefficients of den*q^d*p(s/q, w) when u = q*w and p has degree d.

    Only the powers u_i^e that some term uses are computed, each once per
    line; each c_j(u) is one sum over a chain of C-level maps.
    """
    slot = [1]
    slot += map(pow, map(u.__getitem__, forms.variables), forms.exponents)
    values = iter(forms.coeffs)
    for column in forms.factors:
        values = map(mul, values, map(slot.__getitem__, column))
    return [sum(islice(values, length)) for length in forms.lengths]


def packed_forms(p: Poly, base: int) -> tuple[list[dict[int, int]], int]:
    """(forms, den): den*p = sum_k forms[k] x0^k over the integers.

    den > 0 is the lcm of p's denominators, and forms[k] is the integer form
    in x1..xn of x0^k, with x1^e1..xn^en packed as the int sum
    e_s * base^(s-1), so that multiplying monomials adds keys while no
    exponent reaches base.
    """
    den = lcm(*(c.denominator for _, c in p.terms()))
    forms: list[dict[int, int]] = [{} for _ in range(p.degree_in(0) + 1)]
    for mono, c in p.terms():
        key = sum(e * base**s for s, e in enumerate(mono[1:]))
        forms[mono[0]][key] = c.numerator * (den // c.denominator)
    return forms, den


def unpacked_poly(forms: Sequence[dict[int, int]], den: int, base: int, nvars: int) -> Poly:
    """sum_k forms[k] x0^k / den as a Poly in nvars variables, forms packed as in
    packed_forms: one Fraction per coefficient."""
    terms: dict[Monomial, Fraction] = {}
    for k, form in enumerate(forms):
        for key, c in form.items():
            exps = [k]
            for _ in range(nvars - 1):
                key, e = divmod(key, base)
                exps.append(e)
            terms[tuple(exps)] = Fraction(c, den)
    return Poly(nvars, terms)


def packed_dot(fs: Sequence[dict[int, int]], gs: Sequence[dict[int, int]]) -> dict[int, int]:
    """sum_i fs[i] * gs[i] for integer forms packed as in packed_forms."""
    acc: dict[int, int] = {}
    for f, g in zip(fs, gs):
        for kf, cf in f.items():
            for kg, cg in g.items():
                acc[kf + kg] = acc.get(kf + kg, 0) + cf * cg
    return {key: c for key, c in acc.items() if c}


def divide_packed(
    ctx: QuotientContext, forms: Sequence[dict[int, int]], base: int
) -> tuple[list[dict[int, int]], int, list[dict[int, int]], int]:
    """(quotient, q_den, remainder, r_den) with
    sum_k forms[k] x0^k = (quotient / q_den) * h_monic + remainder / r_den.

    The one division by h: forms are packed as in packed_forms, base above
    every exponent of the dividend and of h, quotient lists the forms of
    x0^0, x0^1, ... and remainder those of x0^0..x0^(d-1), all integer.
    With den*h_monic = sum_j H_j x0^j (den the lcm of h_monic's
    denominators, so H_d = den) and K the dividend's x0-degree, the dividend
    is scaled by den^(K-d+1) once.  Then x0^k for k = K..d is rewritten top
    down by x0^d = -sum_{j<d} (H_j / den) x0^j: the top form, divided by den,
    is the quotient's form of x0^(k-d), and that division is exact because
    the forms still to be rewritten keep a factor den^(k-d+1).
    """
    d = ctx.d
    h_forms, den = packed_forms(ctx.h, base)
    steps = max(len(forms) - d, 0)
    scale = den**steps
    parts = [{key: c * scale for key, c in form.items()} for form in forms]
    parts += [{} for _ in range(d - len(parts))]
    quotient: list[dict[int, int]] = [{} for _ in range(steps)]
    for k in range(len(parts) - 1, d - 1, -1):
        top = {key: c // den for key, c in parts.pop().items() if c}
        quotient[k - d] = top
        for j, h_form in enumerate(h_forms[:d]):
            target = parts[k - d + j]
            for kh, ch in h_form.items():
                for kt, ct in top.items():
                    target[kh + kt] = target.get(kh + kt, 0) - ch * ct
    remainder = [{key: c for key, c in part.items() if c} for part in parts]
    return quotient, den ** (steps - 1) if steps else 1, remainder, scale


def bezoutian_of(ctx: QuotientContext, p: Poly) -> tuple[tuple[Poly, ...], ...]:
    """Bézoutian form generated by p: (h(s)p(t) - h(t)p(s)) / (s - t) with p
    reduced modulo h, as its d x d rows of x0-free polynomials.

    The form is symmetric and commutes with multiplication by x0
    (F B = B F^T); for p of degree D the (i, j) entry is zero or homogeneous
    of degree D + d - 1 - i - j, and p = 1 gives the distinguished Bézoutian
    (h(s) - h(t)) / (s - t).  Entry (i, j), i <= j, is README step 2's
    closed-form sum over the x0 forms H of den*h_monic and R of p's
    remainder under divide_packed: one packed_dot over the denominator
    h_den * r_den * p_den.
    """
    if p.nvars != ctx.nvars:
        raise DimensionMismatch("polynomial and context variable counts differ")
    if not p.is_homogeneous:
        raise ValueError("generator must be homogeneous")
    d = ctx.d
    base = p.degree + d + 1
    forms, p_den = packed_forms(p, base)
    _, _, reduced, r_den = divide_packed(ctx, forms, base)
    h_forms, h_den = packed_forms(ctx.h, base)
    r = reduced + [{}]
    neg = [{key: -c for key, c in form.items()} for form in r]
    den = h_den * r_den * p_den
    rows = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            ks = range(min(j, d - 1 - i) + 1)
            entry = packed_dot([h_forms[i + 1 + k] for k in ks] + [h_forms[j - k] for k in ks],
                               [r[j - k] for k in ks] + [neg[i + 1 + k] for k in ks])
            rows[i][j] = rows[j][i] = unpacked_poly([entry], den, base, ctx.nvars)
    return tuple(map(tuple, rows))
