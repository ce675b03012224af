"""Exact oracles that only the tests need.

UniPoly is a dense univariate polynomial over the rationals, the reference
form of a restriction to a line; the package itself reads a line as an
integer coefficient list.  Each other oracle recomputes a quantity the
package works with by a route of its own: scalar determinants by Bareiss
elimination, definiteness by Sylvester's criterion, univariate Bézout
matrices by expanding the difference quotient monomial by monomial, the
commutation test of a Bézoutian form with the multiplication-by-x0 matrix,
restrictions to a line by expanding h(t*e + v) in t, the entrywise value of
a Bézoutian form at a point, and the Sturm chain and its root counts by
Euclidean division over the rationals.  Twelve are former routes of rewrites
that must agree with them exactly: the sample stream drawn by
Random.randint, the polynomial text parser whose scanner tracks the line and
column at every character, the symmetric lift with the Gram matrix's
columns held as Polys, multiplied by x0 through Poly products and solved
over their rational coordinates, the lift solved in the scaled pencil
entries over the LDL rows and conjugated back to the monomial basis,
Gauss-Jordan elimination by rational pivots, the LDL^T by rational pivots,
Gram rounding by Fraction arithmetic, the Gram problem built by testing
every split of every monomial, exact polynomial division by grlex
leading terms, the division by h_monic and the Bézoutian form by Poly
products over Fraction coefficients, and the substitution x := A*y by the
multinomial theorem over Fraction coefficients, whose binomial case also
expands h(t*e + v).  Two are Poly views of package kernels
that no package path takes: divide_by_h over quotient.divide_packed, and
pencil_determinant over detrep._charpoly.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence, Union

from hyperdet.errors import (
    DimensionMismatch,
    NotPD,
    PolyParseError,
    ZeroPolynomial,
)
from hyperdet.detrep import _charpoly, basis_maps
from hyperdet.linalg import RatMatrix, is_symmetric, rat_matrix, solve_sparse_system
from hyperdet.poly import (
    _ONE,
    _ZERO,
    Monomial,
    Poly,
    RationalLike,
    _product,
    as_fraction,
    as_point,
)
from hyperdet.quotient import (
    QuotientContext,
    divide_packed,
    packed_forms,
    unpacked_poly,
)
from hyperdet.sos import SdpProblem, monomial_basis_Mk, power_sum_multiplier, r_monomials_of_degree


class UniPoly:
    """Dense univariate polynomial over the rationals (variable t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        out = list(self.coeffs) + [Fraction(0)] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other: Union["UniPoly", RationalLike]) -> "UniPoly":
        if isinstance(other, UniPoly):
            if not self.coeffs or not other.coeffs:
                return UniPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return UniPoly(out)
        scalar = as_fraction(other)
        return UniPoly([c * scalar for c in self.coeffs])

    def __rmul__(self, other: RationalLike) -> "UniPoly":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, x: RationalLike) -> Fraction:
        xv = as_fraction(x)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * xv + c
        return total

    def derivative(self) -> "UniPoly":
        return UniPoly([c * i for i, c in enumerate(self.coeffs)][1:])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}t" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self!s})"


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def exact_divide(f: Poly, g: Poly) -> Poly:
    """Return q with f = q*g, reducing against the single divisor g.

    Reduction repeatedly cancels the grlex-leading term of the remainder, so
    it either terminates at zero or proves that g does not divide f.
    """
    if f.nvars != g.nvars:
        raise DimensionMismatch("dividend and divisor use different variable counts")
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    g_mono, g_coeff = next(g.terms())
    quotient: dict = {}
    rem = f
    while not rem.is_zero:
        r_mono, r_coeff = next(rem.terms())
        diff = tuple(a - b for a, b in zip(r_mono, g_mono))
        if any(e < 0 for e in diff):
            raise ValueError(f"{g} does not divide {f}")
        factor = r_coeff / g_coeff
        quotient[diff] = quotient.get(diff, Fraction(0)) + factor
        rem = rem - Poly.monomial(diff, factor) * g
    return Poly(f.nvars, quotient)


def divide_by_h(ctx: QuotientContext, p: Poly) -> tuple[Poly, tuple[Poly, ...]]:
    """(q, r) with p = q * h_monic + sum_j r_j x0^j, every r_j free of x0.

    r_0..r_(d-1) are the coordinates of p's class over 1, x0bar, ...,
    x0bar^(d-1), and q is the x0-quotient; p is a multiple of h_monic
    exactly when every r_j is zero.  p is scaled to integer forms and
    divided by divide_packed.
    """
    if p.nvars != ctx.nvars:
        raise DimensionMismatch("polynomial and context variable counts differ")
    base = max(p.degree, ctx.d) + 1
    forms, den = packed_forms(p, base)
    quotient, q_den, remainder, r_den = divide_packed(ctx, forms, base)
    return (unpacked_poly(quotient, q_den * den, base, ctx.nvars),
            tuple(unpacked_poly([form], r_den * den, base, ctx.nvars) for form in remainder))


def pencil_determinant(pencil: Sequence[RatMatrix]) -> Poly:
    """det(x0*I - sum_s x_s G_s) as an exact homogeneous polynomial.

    Row a of every G_s is scaled to integers by rho_a, the lcm of its
    denominators over every G_s, and _charpoly takes the determinant of
    the pencil with entries (rho_a G_s[a][b]) / rho_a.
    """
    rho = [math.lcm(*(x.denominator for g in pencil for x in g[a])) for a in range(len(pencil[0]))]
    forms, den = _charpoly([[[x.numerator * (r // x.denominator) for x in row] for row, r in zip(g, rho)]
                            for g in pencil], rho)
    return unpacked_poly(forms, den, len(rho) + 1, len(pencil) + 1)


def fraction_divide_by_h(ctx: QuotientContext, p: Poly) -> tuple[Poly, tuple[Poly, ...]]:
    """(q, r) with p = q * h_monic + sum_j r_j x0^j by Poly arithmetic.

    The former route of divide_by_h: x0^k for k >= d is rewritten
    top down by x0^d = -sum_j c_j x0^j on the x0-coefficient Polys, and the
    coefficient popped at x0^k is that of x0^(k-d) in q.
    """
    d = ctx.d
    parts = p.x0_coefficients()
    quotient: dict = {}
    while len(parts) > d:
        top = parts.pop()
        k = len(parts)
        if top.is_zero:
            continue
        quotient.update(((k - d,) + mono[1:], c) for mono, c in top.terms())
        for j in range(d):
            parts[k - d + j] = parts[k - d + j] - ctx.h_coeffs[j] * top
    parts += [Poly.zero(ctx.nvars)] * (d - len(parts))
    return Poly(ctx.nvars, quotient), tuple(parts)


def fraction_bezoutian_of(ctx: QuotientContext, p: Poly) -> tuple[tuple[Poly, ...], ...]:
    """The Bézoutian form of p by Poly arithmetic, the independent reference
    for quotient.bezoutian_of's closed-form sum: the table h_i p_j - h_j p_i
    of Poly products over p reduced by fraction_divide_by_h, synthetically
    divided by (s - t)."""
    d = ctx.d
    pc = fraction_divide_by_h(ctx, p)[1] + (Poly.zero(ctx.nvars),)
    hc = ctx.h_coeffs
    num = [[hc[i] * pc[j] - hc[j] * pc[i] for j in range(d + 1)] for i in range(d + 1)]
    quot = [None] * d
    carry = num[d]
    for i in range(d - 1, -1, -1):
        quot[i] = list(carry)
        carry = [num[i][0]] + [num[i][j] + quot[i][j - 1] for j in range(1, d + 1)]
    assert not any(carry) and not any(row[d] for row in quot)
    return tuple(tuple(row[:d]) for row in quot)


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
    return fraction_root_counts(f)[0]


def is_homogeneous_of_degree(p: Poly, k: int) -> bool:
    return all(sum(mono) == k for mono, _ in p.terms())


def element_to_poly(ctx: QuotientContext, coeffs) -> Poly:
    """The polynomial sum_i coeffs[i] * x0^i that a reduced element represents."""
    x0 = Poly.variable(ctx.nvars, 0)
    total = Poly.zero(ctx.nvars)
    power = Poly.one(ctx.nvars)
    for c in coeffs:
        total = total + c * power
        power = power * x0
    return total


def row_to_element(ctx: QuotientContext, basis, row) -> tuple[Poly, ...]:
    """The reduced element sum_a row[a] * basis[a], as its d coefficients."""
    terms = [dict() for _ in range(ctx.d)]
    for value, idx in zip(row, basis):
        if value:
            terms[idx.basis_power][idx.r_monomial] = value
    return tuple(Poly(ctx.nvars, t) for t in terms)


def mult_by_x0(ctx: QuotientContext, coeffs) -> tuple[Poly, ...]:
    """x0bar times a reduced element: shift the powers and reduce the overflow."""
    d = ctx.d
    top = coeffs[d - 1]
    out = [Poly.zero(ctx.nvars)] + list(coeffs[:d - 1])
    if not top.is_zero:
        for j in range(d):
            out[j] = out[j] - ctx.h_coeffs[j] * top
    return tuple(out)


def fraction_solve_sparse_system(rows, rhs, num_unknowns):
    """Gauss-Jordan elimination on sparse rows by rational pivots.

    Unknowns are eliminated in index order, the pivot of each new row in its
    first nonzero column, and every stored row is kept normalized with pivot
    1; free unknowns are zero.  None when some row reduces to 0 = c, c != 0.
    """
    pivots = {}
    for raw_row, raw_val in zip(rows, rhs):
        row = {c: Fraction(v) for c, v in raw_row.items()}
        val = Fraction(raw_val)
        for col in sorted(row):
            if col in pivots and row.get(col):
                coeff = row[col]
                prow, pval = pivots[col]
                for c2, v2 in prow.items():
                    nv = row.get(c2, Fraction(0)) - coeff * v2
                    if nv:
                        row[c2] = nv
                    else:
                        row.pop(c2, None)
                val -= coeff * pval
                row.pop(col, None)
        row = {c: v for c, v in row.items() if v}
        if not row:
            if val != 0:
                return None
            continue
        col = min(row)
        inv = 1 / row[col]
        row = {c: v * inv for c, v in row.items()}
        val *= inv
        for pcol, (prow, pval) in list(pivots.items()):
            if col in prow:
                f = prow[col]
                for c2, v2 in row.items():
                    nv = prow.get(c2, Fraction(0)) - f * v2
                    if nv:
                        prow[c2] = nv
                    else:
                        prow.pop(c2, None)
                pivots[pcol] = (prow, pval - f * val)
        pivots[col] = (row, val)
    values = [Fraction(0)] * num_unknowns
    for col, (_, val) in pivots.items():
        values[col] = val
    return values


def _fraction_inverse(matrix):
    """A^-1 from A X = I by fraction_solve_sparse_system; None when A is singular."""
    size = len(matrix)
    rows = [{k * size + j: matrix[i][k] for k in range(size) if matrix[i][k]}
            for i in range(size) for j in range(size)]
    rhs = [Fraction(i == j) for i in range(size) for j in range(size)]
    values = fraction_solve_sparse_system(rows, rhs, size * size)
    if values is None:
        return None
    return [values[k * size:(k + 1) * size] for k in range(size)]


def rational_lift(lift):
    """detrep.solve_symmetric_lift's (pencil, (basis_ints, basis_dens)) as
    (pencil, basis_pencil), the Gram-basis pencil P_s[a][b] =
    basis_ints[s][a][b] / basis_dens[a] as Fractions: the form poly_lift and
    z_system_lift return."""
    pencil, (ints, dens) = lift
    return pencil, [[[Fraction(x, den) for x in row] for row, den in zip(p, dens)] for p in ints]


def poly_lift(ctx: QuotientContext, dec):
    """The symmetric lift with the Gram matrix's columns held as d Polys.

    Column c of W = dec.gram becomes its reduced element (row_to_element),
    x0bar times it is formed by mult_by_x0 and x_s times each basis element
    by a Poly product, and their coordinates over the degree-(k+1) basis
    are read back term by term.  The unknowns are the upper-triangle
    entries of the symmetric S_s with X_0 W = sum_s X_s S_s, numbered as in
    detrep.solve_symmetric_lift, and fraction_solve_sparse_system solves
    them.  Returns (pencil, basis_pencil): G_s = D^-1 R^-T S_s R^-1 and
    P_s = W^-1 S_s, with R^-1 and W^-1 by rational elimination and the
    products by mat_mul.  None when the system is inconsistent or R or W
    is singular.
    """
    m = len(dec.rows)
    n = ctx.n
    basis_up = monomial_basis_Mk(ctx, dec.k + 1)
    up_index = {(g.basis_power, g.r_monomial): r for r, g in enumerate(basis_up)}

    def coords_up(coeffs) -> dict[int, Fraction]:
        return {up_index[(power, mono)]: c
                for power, poly in enumerate(coeffs) for mono, c in poly.terms()}

    units = [row_to_element(ctx, dec.basis, [Fraction(a == b) for b in range(m)])
             for a in range(m)]
    shifted = [[coords_up(tuple(c * Poly.variable(ctx.nvars, s) for c in u)) for u in units]
               for s in range(1, n + 1)]
    targets = [coords_up(mult_by_x0(ctx, row_to_element(ctx, dec.basis, column)))
               for column in zip(*dec.gram)]
    per_s = m * (m + 1) // 2

    def unknown_id(s: int, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return s * per_s + (a * (2 * m - a - 1)) // 2 + b

    rows, rhs = [], []
    for c in range(m):
        per_row = [dict() for _ in basis_up]
        for s in range(n):
            for a in range(m):
                uid = unknown_id(s, a, c)
                for pos, coeff in shifted[s][a].items():
                    per_row[pos][uid] = per_row[pos].get(uid, Fraction(0)) + coeff
        for pos in range(len(basis_up)):
            if per_row[pos] or pos in targets[c]:
                rows.append(per_row[pos])
                rhs.append(targets[c].get(pos, Fraction(0)))
    values = fraction_solve_sparse_system(rows, rhs, n * per_s)
    r_inv, w_inv = _fraction_inverse(dec.rows), _fraction_inverse(dec.gram)
    if values is None or r_inv is None or w_inv is None:
        return None
    pencil, basis_pencil = [], []
    for s in range(n):
        sym = [[values[unknown_id(s, a, b)] for b in range(m)] for a in range(m)]
        conjugated = mat_mul(mat_mul([list(col) for col in zip(*r_inv)], sym), r_inv)
        pencil.append([[x / w for x in row] for row, w in zip(conjugated, dec.weights)])
        basis_pencil.append(mat_mul(w_inv, sym))
    return pencil, basis_pencil


def z_system_lift(ctx: QuotientContext, dec):
    """The lift solved in the scaled pencil entries, then conjugated by R.

    The former route of detrep.solve_symmetric_lift.  With delta_i the lcm of
    the denominators of LDL row i and v_i = delta_i * u_i, the unknowns are
    Z_s[i][j] = d_j * H_s[i][j] / (delta_i * delta_j) for the matrices H_s
    of the intertwining x0bar * u_j = sum_i H(x)_{ij} u_i, one per
    upper-triangle entry, and equation (j, pos) reads sum_{s,i} Z_s[i][j] *
    (x_s v_i)[pos] = (d_j / delta_j^2) * (x0 v_j)[pos].  G_s is the
    transpose of H_s, and P_s = R^-1 G_s R is one product G_s R followed by
    back substitution through the unit upper-triangular R.  Returns
    (pencil, basis_pencil), or None when the system is inconsistent.
    """
    m = len(dec.rows)
    n = ctx.n
    weights = dec.weights
    basis_up = monomial_basis_Mk(ctx, dec.k + 1)
    deltas = [math.lcm(*(v.denominator for v in row)) for row in dec.rows]
    sparse = [[(a, v.numerator * (delta // v.denominator)) for a, v in enumerate(row) if v]
              for row, delta in zip(dec.rows, deltas)]
    products = []
    for images in basis_maps(ctx, dec.basis, basis_up):
        products.append([])
        for row in sparse:
            acc = {}
            for a, v in row:
                for pos, c in images[a].items():
                    acc[pos] = acc.get(pos, 0) + v * c
            products[-1].append({pos: c for pos, c in acc.items() if c})
    *shifted, targets = products
    per_s = m * (m + 1) // 2

    def unknown_id(s: int, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return s * per_s + (a * (2 * m - a - 1)) // 2 + b

    rows, rhs = [], []
    for j in range(m):
        per_row = [dict() for _ in basis_up]
        for s in range(n):
            for i in range(m):
                uid = unknown_id(s, i, j)
                for pos, coeff in shifted[s][i].items():
                    per_row[pos][uid] = coeff
        scale = weights[j] / deltas[j] ** 2
        for pos in range(len(basis_up)):
            if per_row[pos] or pos in targets[j]:
                rows.append(per_row[pos])
                rhs.append(scale * targets[j].get(pos, 0))
    values = solve_sparse_system(rows, rhs, n * per_s)
    if values is None:
        return None
    pencil = []
    for s in range(n):
        g = [[Fraction(0)] * m for _ in range(m)]
        for a in range(m):
            for b in range(a, m):
                val = values[unknown_id(s, a, b)] * (deltas[a] * deltas[b]) / weights[b]
                g[b][a] = val
                g[a][b] = val * weights[b] / weights[a]
        pencil.append(g)
    basis_pencil = []
    sparse_rows = [{b: v for b, v in enumerate(row) if v} for row in dec.rows]
    for g in pencil:
        x = []
        for line in g:
            acc = {}
            for c, v in enumerate(line):
                if v:
                    for b, r in sparse_rows[c].items():
                        acc[b] = acc.get(b, Fraction(0)) + v * r
            x.append(acc)
        for i in range(m - 2, -1, -1):
            acc = x[i]
            for j, c in sparse_rows[i].items():
                if j > i:
                    for b, v in x[j].items():
                        acc[b] = acc.get(b, Fraction(0)) - c * v
        basis_pencil.append([[acc.get(b, Fraction(0)) for b in range(m)] for acc in x])
    return pencil, basis_pencil


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


def _linear_power(coeffs: Sequence[Fraction], k: int) -> dict[Monomial, Fraction]:
    """Terms of (c_0*y_0 + ... + c_m*y_m)^k, k >= 1, by the multinomial theorem.

    Each term is k!/(k_0!..k_m!) * prod c_j^k_j, built from powers of the
    coefficients' numerators and denominators and reduced once; no lower
    power of the form is expanded.  A variable whose coefficient is zero
    keeps exponent 0, so a form in r variables gives C(k+r-1, r-1) terms.
    """
    support = [(j, c.numerator, c.denominator) for j, c in enumerate(coeffs) if c]
    exps = [0] * len(coeffs)
    out: dict[Monomial, Fraction] = {}
    if not support:
        return out

    def expand(pos: int, rest: int, num: int, den: int) -> None:
        j, a, b = support[pos]
        if pos == len(support) - 1:
            exps[j] = rest
            out[tuple(exps)] = Fraction(num * a**rest, den * b**rest)
        else:
            binom = 1  # C(rest, e)
            for e in range(rest + 1):
                exps[j] = e
                expand(pos + 1, rest - e, num * binom * a**e, den * b**e)
                binom = binom * (rest - e) // (e + 1)
        exps[j] = 0

    expand(0, k, 1, 1)
    return out


def fraction_apply_linear(p: Poly, matrix: Sequence[Sequence[RationalLike]]) -> Poly:
    """Substitute x := A*y, i.e. return p(A*y) in the new coordinates y."""
    n = p.nvars
    rows = [as_point(row) for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("substitution matrix must be square of size nvars")

    @functools.cache
    def image_power(i: int, k: int) -> dict[Monomial, Fraction]:
        """(A*y)_i^k by the multinomial theorem, once per power p uses."""
        return _linear_power(rows[i], k)

    # Products and the sum stay term dicts; one Poly drops the zeros at the end.
    total: dict[Monomial, Fraction] = {}
    for mono, c in p._terms.items():
        term = {(0,) * n: c}
        for i, exp in enumerate(mono):
            if exp:
                term = _product(term, image_power(i, exp))
        for m, v in term.items():
            total[m] = total.get(m, _ZERO) + v
    return Poly(n, total)


def substitute_line(h: Poly, e, v) -> UniPoly:
    """Expand h(t*e + v) exactly as a univariate polynomial in t."""
    ev = as_point(e)
    vv = as_point(v)
    if len(ev) != h.nvars or len(vv) != h.nvars:
        raise DimensionMismatch("direction/offset length must match the variable count")

    @functools.cache
    def line_power(i: int, k: int) -> UniPoly:
        """(e_i*t + v_i)^k by the binomial theorem, once per power h uses."""
        coeffs = [Fraction(0)] * (k + 1)
        for (_, j), c in _linear_power((vv[i], ev[i]), k).items():
            coeffs[j] = c
        return UniPoly(coeffs)

    total = UniPoly()
    for mono, c in h.terms():
        term = UniPoly([c])
        for i, exp in enumerate(mono):
            if exp:
                term = term * line_power(i, exp)
        total = total + term
    return total


def evaluate_form(form: Sequence[Sequence[Poly]], v) -> list[list[Fraction]]:
    """Entrywise evaluation of a Bézoutian form's rows at a point of the
    coefficient ring (length n)."""
    point = as_point(v)
    if len(point) != form[0][0].nvars - 1:
        raise DimensionMismatch("evaluation point must have one entry per x1..xn")
    full = (Fraction(0),) + point
    return [[e.evaluate(full) for e in row] for row in form]


def uni_divmod(f: UniPoly, divisor: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Exact Euclidean division over the rationals; divisor must be nonzero."""
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(f.coeffs)
    dd = divisor.degree
    quot = [Fraction(0)] * max(0, len(rem) - dd)
    while rem and len(rem) - 1 >= dd:
        k = len(rem) - 1 - dd
        factor = rem[-1] / divisor.leading
        quot[k] = factor
        for i, c in enumerate(divisor.coeffs):
            rem[k + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(quot), UniPoly(rem)


def fraction_sturm_chain(f: UniPoly) -> list[UniPoly]:
    """Sturm chain f, f', -rem(f, f'), ... by Euclidean division, unscaled."""
    chain = [f]
    if f.degree > 0:
        chain.append(f.derivative())
        while chain[-1].degree > 0:
            rem = uni_divmod(chain[-2], chain[-1])[1]
            if rem.is_zero:
                break
            chain.append(-rem)
    return chain


def fraction_root_counts(f: UniPoly) -> tuple[int, int]:
    """(distinct real roots, distinct complex roots) of a nonzero f from the
    Euclidean chain: the sign changes at -oo less those at +oo, and
    deg f - deg gcd(f, f')."""
    chain = fraction_sturm_chain(f)
    at_plus = [p.leading > 0 for p in chain]
    at_minus = [s if p.degree % 2 == 0 else not s for s, p in zip(at_plus, chain)]
    variations = [sum(1 for a, b in zip(signs, signs[1:]) if a != b) for signs in (at_minus, at_plus)]
    return variations[0] - variations[1], f.degree - chain[-1].degree


def randint_sample_directions(dim: int, num_samples: int, seed: int):
    """The sample stream as Random.randint draws it: signed unit vectors,
    then for each coordinate randint(-10, 10) over randint(1, 10), as
    (u, q) with q the lcm of the denominators; all-zero draws skipped."""
    produced = 0
    for i in range(dim):
        for sign in (1, -1):
            if produced >= num_samples:
                return
            produced += 1
            yield tuple(sign if j == i else 0 for j in range(dim)), 1
    rng = random.Random(seed)
    while produced < num_samples:
        draws = [(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(dim)]
        if not any(num for num, _ in draws):
            continue
        q = math.lcm(*(den for _, den in draws))
        produced += 1
        yield tuple(num * (q // den) for num, den in draws), q


def fraction_ldl_decompose(matrix):
    """G = L^T diag(d) L by rational pivots; NotPD at the first pivot <= 0."""
    g = rat_matrix(matrix)
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("matrix must be square")
    if not is_symmetric(g):
        raise ValueError("matrix must be symmetric")
    lower = [[Fraction(i == j) for j in range(n)] for i in range(n)]
    d: list[Fraction] = []
    for j in range(n):
        pivot = g[j][j] - sum((lower[j][k] * lower[j][k] * d[k] for k in range(j)), Fraction(0))
        if pivot <= 0:
            raise NotPD(
                f"pivot at index {j} is {'zero' if pivot == 0 else 'negative'} "
                f"({pivot.numerator.bit_length()}-bit numerator, "
                f"{pivot.denominator.bit_length()}-bit denominator)"
            )
        d.append(pivot)
        for i in range(j + 1, n):
            val = g[i][j] - sum((lower[i][k] * lower[j][k] * d[k] for k in range(j)), Fraction(0))
            lower[i][j] = val / pivot
    return d, [list(col) for col in zip(*lower)]


def frobenius_representer(row) -> dict[tuple[int, int], Fraction]:
    """A_k of a row of split counts over both triangles: c at (a, a), c/2 at
    (a, b) and (b, a), so that <A_k, G> = sum c * G[a][b] for symmetric G."""
    rep: dict[tuple[int, int], Fraction] = {}
    for (a, b), c in row.items():
        rep[(a, b)] = rep[(b, a)] = Fraction(c) if a == b else Fraction(c, 2)
    return rep


def fraction_round_gram(problem: SdpProblem, g, denominator_bound: int):
    """Round to the grid 1/bound by round(Fraction), then project exactly.

    The projection adds defect_k / <A_k, A_k> times the Frobenius
    representer A_k of each row, expanded over both triangles in Fractions.
    """
    m = problem.m
    g_sym = 0.5 * (g + g.T)
    approx = [
        [Fraction(round(Fraction(float(g_sym[i, j])) * denominator_bound), denominator_bound)
         for j in range(m)]
        for i in range(m)
    ]
    for i in range(m):
        for j in range(i + 1, m):
            approx[j][i] = approx[i][j]
    reps = [(frobenius_representer(row), rhs) for row, rhs in problem.constraints]
    defects = [rhs - sum((w * approx[a][b] for (a, b), w in rep.items()), Fraction(0))
               for rep, rhs in reps]
    for (rep, _), defect in zip(reps, defects):
        if defect:
            lam = defect / sum((w * w for w in rep.values()), Fraction(0))
            for (a, b), w in rep.items():
                approx[a][b] += lam * w
    return approx


def pair_scan_gram_problem(ctx: QuotientContext, omega0: Sequence[Sequence[Poly]], ell: int):
    """The Gram SDP rows, found by testing every (mu, gamma) pair and
    counting each split at its upper-triangle position."""
    d = ctx.d
    k = d - 1 + ell
    basis = monomial_basis_Mk(ctx, k)
    index_of = {(g.basis_power, g.r_monomial): a for a, g in enumerate(basis)}
    multiplier = power_sum_multiplier(ctx, ell)
    monos_by_degree = {deg: r_monomials_of_degree(ctx.nvars, deg) for deg in range(2 * k + 1)}
    constraints = []
    for i in range(d):
        for j in range(i, d):
            entry = multiplier * omega0[i][j]
            for mu in monos_by_degree[2 * k - i - j]:
                row: dict[tuple[int, int], int] = {}
                for gamma in monos_by_degree[k - i]:
                    delta = tuple(a - b for a, b in zip(mu, gamma))
                    if any(e < 0 for e in delta):
                        continue
                    a = index_of[(i, gamma)]
                    b = index_of.get((j, delta))
                    if b is None:
                        continue
                    pos = (min(a, b), max(a, b))
                    row[pos] = row.get(pos, 0) + 1
                constraints.append((row, entry.coeff(mu)))
    return SdpProblem(len(basis), constraints), basis


class _Scanner:
    """Character scanner with line/column tracking for error reports."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> PolyParseError:
        return PolyParseError(message, self.line, self.col)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\r" or (ch == "\n" and self.text[self.pos - 2:self.pos - 1] != "\r"):
            self.line += 1
            self.col = 1
        elif ch != "\n":  # the \n of \r\n ends the line its \r ended
            self.col += 1
        return ch

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.advance()

    def read_int(self) -> int:
        if not self.peek().isdigit():
            raise self.error("expected a digit")
        line, col = self.line, self.col
        digits = []
        while self.peek().isdigit():
            digits.append(self.advance())
        try:
            return int("".join(digits))
        except ValueError:  # longer than the interpreter's int-string limit
            raise PolyParseError(f"integer literal of {len(digits)} digits is too long",
                                 line, col) from None


def scanner_parse_poly(text: str, nvars: int | None = None) -> Poly:
    """Parse the textual grammar: terms joined by +/-, factors joined by *.

    A term is `coeff`, `coeff*mono`, or `mono`; `mono` is one or more
    `xI^E` factors (E omitted means 1); coefficients are integers or `a/b`
    fractions.  Whitespace is insignificant.  When nvars is omitted it is
    inferred from the largest variable index.
    """
    sc = _Scanner(text)
    terms: list[tuple[dict[int, int], Fraction]] = []
    max_index = -1

    sc.skip_ws()
    if not sc.peek():
        raise sc.error("empty polynomial")
    sign = _ONE
    if sc.peek() in "+-":
        if sc.advance() == "-":
            sign = -_ONE
        sc.skip_ws()

    while True:
        exps: dict[int, int] = {}
        coeff = sign
        saw_coeff = False
        saw_var = False
        first_factor = True
        while True:
            sc.skip_ws()
            ch = sc.peek()
            if ch.isdigit():
                if not first_factor:
                    raise sc.error("numeric coefficient must come first in a term")
                num = sc.read_int()
                den = 1
                if sc.peek() == "/":
                    sc.advance()
                    sc.skip_ws()
                    den = sc.read_int()
                    if den == 0:
                        raise sc.error("zero denominator")
                coeff = coeff * Fraction(num, den)
                saw_coeff = True
            elif ch == "x":
                start = (sc.line, sc.col)
                sc.advance()
                index = sc.read_int()
                exp = 1
                if sc.peek() == "^":
                    sc.advance()
                    exp = sc.read_int()
                exps[index] = exps.get(index, 0) + exp
                if index > max_index:
                    max_index, max_at = index, start
                saw_var = True
            else:
                raise sc.error("expected a coefficient or a variable")
            first_factor = False
            sc.skip_ws()
            if sc.peek() == "*":
                sc.advance()
                continue
            break
        if not (saw_coeff or saw_var):
            raise sc.error("empty term")
        terms.append((exps, coeff))

        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            break
        if ch not in "+-":
            raise sc.error(f"unexpected character {ch!r}")
        sign = _ONE if sc.advance() == "+" else -_ONE
        sc.skip_ws()
        if not sc.peek():
            raise sc.error("dangling sign at end of input")

    width = max_index + 1 if nvars is None else nvars
    if width < 1:
        width = 1
    if max_index >= width:
        raise PolyParseError(
            f"variable x{max_index} exceeds the declared {width} variables", *max_at
        )
    acc: dict[Monomial, Fraction] = {}
    for exps, coeff in terms:
        mono = tuple(exps.get(i, 0) for i in range(width))
        acc[mono] = acc.get(mono, _ZERO) + coeff
    return Poly(width, acc)
