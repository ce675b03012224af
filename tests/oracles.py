"""Exact oracles that only the tests need.

Each one recomputes a quantity the package works with by a route of its own:
scalar determinants by Bareiss elimination, definiteness by Sylvester's
criterion, univariate Bézout matrices by expanding the difference quotient
monomial by monomial, and the commutation test of a Bézoutian form with the
multiplication-by-x0 matrix.
"""

from __future__ import annotations

from fractions import Fraction

from hyperdet.errors import ZeroPolynomial
from hyperdet.hyperbolicity import _distinct_real_roots, sturm_chain
from hyperdet.poly import Poly, UniPoly
from hyperdet.quotient import QuotientContext, QuotientElement


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def bareiss_determinant(matrix) -> Fraction:
    """Fraction-free determinant by Bareiss elimination with row swaps."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in row] for row in matrix]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leading_principal_minors(matrix) -> list[Fraction]:
    """Determinants of the leading k x k blocks, k = 1..n."""
    return [bareiss_determinant([row[: k + 1] for row in matrix[: k + 1]])
            for k in range(len(matrix))]


def is_positive_definite(matrix) -> bool:
    """Sylvester's criterion for a symmetric matrix: every leading minor > 0."""
    return all(minor > 0 for minor in leading_principal_minors(matrix))


def count_real_roots(f: UniPoly) -> int:
    """Number of distinct real roots, exact."""
    if f.is_zero:
        raise ZeroPolynomial("cannot count roots of the zero polynomial")
    return _distinct_real_roots(sturm_chain(f))


def is_homogeneous_of_degree(p: Poly, k: int) -> bool:
    return all(sum(mono) == k for mono, _ in p.terms())


def element_to_poly(ctx: QuotientContext, elem: QuotientElement) -> Poly:
    """The polynomial sum_i coeffs[i] * x0^i that the element represents."""
    x0 = Poly.variable(ctx.nvars, 0)
    total = Poly.zero(ctx.nvars)
    power = Poly.one(ctx.nvars)
    for c in elem.coeffs:
        total = total + c * power
        power = power * x0
    return total


def bezout_matrix_univariate(f: UniPoly, g: UniPoly) -> list[list[Fraction]]:
    """Symmetric d x d matrix from (f(s)g(t) - f(t)g(s)) / (s - t).

    Entry (i, j) (0-indexed) is the coefficient of s^i t^j in the quotient.
    Requires deg g < deg f = d >= 1; g may be zero.  Each pair of terms
    f_a g_c with a > c contributes (s^a t^c - s^c t^a) / (s - t) =
    sum_{k < a-c} s^(c+k) t^(a-1-k); a pair with a < c the negated mirror.
    """
    d = f.degree
    if d < 1:
        raise ValueError("f must have degree at least 1")
    if g.degree >= d:
        raise ValueError("g must have degree strictly below deg f")
    out = [[Fraction(0)] * d for _ in range(d)]
    for a, fa in enumerate(f.coeffs):
        for c, gc in enumerate(g.coeffs):
            low, high, sign = (c, a, 1) if a > c else (a, c, -1)
            for k in range(high - low):
                out[low + k][high - 1 - k] += sign * fa * gc
    return out


def mult_x0_matrix(ctx: QuotientContext) -> list[list[Poly]]:
    """Matrix of multiplication by x0bar in the basis 1, ..., x0bar^{d-1}.

    Companion style: ones on the subdiagonal, last column from the negated
    lower coefficients of h.
    """
    d = ctx.d
    mat = [[Poly.zero(ctx.nvars) for _ in range(d)] for _ in range(d)]
    for j in range(d - 1):
        mat[j + 1][j] = Poly.one(ctx.nvars)
    for i in range(d):
        mat[i][d - 1] = -ctx.h_coeffs[i]
    return mat


def is_bezoutian(ctx: QuotientContext, entries) -> bool:
    """True iff the matrix is symmetric and F B = B F^T for the x0 matrix."""
    d = ctx.d
    if len(entries) != d or any(len(row) != d for row in entries):
        return False
    for i in range(d):
        for j in range(i + 1, d):
            if entries[i][j] != entries[j][i]:
                return False
    f = mult_x0_matrix(ctx)
    for i in range(d):
        for j in range(d):
            lhs = Poly.zero(ctx.nvars)
            rhs = Poly.zero(ctx.nvars)
            for k in range(d):
                lhs = lhs + f[i][k] * entries[k][j]
                rhs = rhs + entries[i][k] * f[j][k]
            if lhs != rhs:
                return False
    return True
