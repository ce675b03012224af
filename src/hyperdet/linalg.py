"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of Fraction, and sparse systems are rows
of {column: coefficient}.  Every elimination runs fraction-free: each scales
its input to integers once, keeps integer rows with exact divisions or gcd
reductions, and forms one Fraction per result entry at the end.  Everything
here is pure and deterministic: pivoting picks the first usable row, never
the numerically largest one.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import NotPD
from .poly import RationalLike, as_fraction

RatMatrix = list[list[Fraction]]

_ZERO = Fraction(0)


def rat_matrix(rows: Sequence[Sequence[RationalLike]]) -> RatMatrix:
    return [[as_fraction(x) for x in row] for row in rows]


def is_symmetric(m: RatMatrix) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def ldl_decompose(matrix: Sequence[Sequence[RationalLike]]) -> tuple[list[Fraction], RatMatrix]:
    """Exact factorization G = L^T * diag(d) * L with unit upper-triangular L.

    Row i of L is the i-th generating vector: entry 1 at position i and
    support only to the right.  Raises NotPD at the first pivot <= 0, which
    by Sylvester's criterion certifies the matrix is not positive definite;
    the message gives the pivot's sign, index and bit lengths.

    Fraction-free: symmetric Bareiss elimination (Math. Comp. 1968) on the
    integer matrix A = den*G, den the lcm of the denominators.  Its pivots
    are the leading principal minors Delta_j of A, so pivot j of G is
    Delta_{j+1} / (Delta_j * den), and every division is exact; entry (i, j)
    of the standard lower factor is the stage-j Bareiss entry over
    Delta_{j+1}.  Only the lower triangle is eliminated.
    """
    g = rat_matrix(matrix)
    n = len(g)
    if any(len(row) != n for row in g):
        raise ValueError("matrix must be square")
    if not is_symmetric(g):
        raise ValueError("matrix must be symmetric")
    den = lcm(*(x.denominator for row in g for x in row))
    rows = [[x.numerator * (den // x.denominator) for x in row[:i + 1]] for i, row in enumerate(g)]
    minors = [1]  # Delta_0 .. Delta_n
    columns = []  # column k of the stage-k block, its pivot first
    for k in range(n):
        pivot = rows[0][0]
        if pivot <= 0:
            # Bit lengths, not the pivot: it can be too long to format.
            reduced = Fraction(pivot, minors[k] * den)
            raise NotPD(
                f"pivot at index {k} is {'zero' if pivot == 0 else 'negative'} "
                f"({reduced.numerator.bit_length()}-bit numerator, "
                f"{reduced.denominator.bit_length()}-bit denominator)"
            )
        columns.append([row[0] for row in rows])
        rows = _bareiss_stage(rows, minors[k])
        minors.append(pivot)
    d = [Fraction(minors[j + 1], minors[j] * den) for j in range(n)]
    rows = [[Fraction(columns[j][i - j], minors[j + 1]) if i > j else Fraction(i == j)
             for i in range(n)] for j in range(n)]
    return d, rows


def _bareiss_stage(rows: list[list[int]], prev: int) -> list[list[int]]:
    """One symmetric Bareiss stage on rows[i] = entries (i, 0..i): the next block,
    (a_00 a_ij - a_i0 a_j0) / prev at (i, j), 0 < j <= i, an exact division."""
    pivot, column = rows[0][0], [row[0] for row in rows[1:]]
    return [[(pivot * x - c * y) // prev for x, y in zip(row[1:], column)]
            for row, c in zip(rows[1:], column)]


def bareiss_determinant(lower: Sequence[Sequence[int]]) -> int:
    """Determinant of the symmetric integer matrix with lower[i] = entries
    (i, 0..i), by symmetric Bareiss elimination (Math. Comp. 1968) on that
    triangle.  A zero pivot gives way to a congruence that keeps the
    determinant and the leading minors: a symmetric swap with the first later
    nonzero diagonal entry, else adding row and column r, the first row
    nonzero in column 0, to row and column 0 (new pivot 2 * a_r0), else the
    determinant is 0.  Stage entries stay bordered minors: divisions are exact.
    """
    rows = [list(row) for row in lower]
    if any(len(row) != i + 1 for i, row in enumerate(rows)):
        raise ValueError("row i of the lower triangle must have i + 1 entries")

    def at(i: int, j: int) -> int:
        return rows[max(i, j)][min(i, j)]

    prev = 1
    while len(rows) > 1:
        if not rows[0][0]:
            size = len(rows)
            r = next((r for r in range(1, size) if rows[r][r]), None)
            if r is not None:
                swap = {0: r, r: 0}
                rows = [[at(swap.get(i, i), swap.get(j, j)) for j in range(i + 1)] for i in range(size)]
            else:
                r = next((r for r in range(1, size) if rows[r][0]), None)
                if r is None:
                    return 0
                rows[0][0] = 2 * rows[r][0]
                for j in range(1, size):
                    rows[j][0] += at(r, j)
        prev, rows = rows[0][0], _bareiss_stage(rows, prev)
    return rows[0][0] if rows else 1


def solve_sparse_system(
    rows: Sequence[dict[int, int | Fraction]],
    rhs: Sequence[int | Fraction],
    num_unknowns: int,
) -> list[Fraction] | None:
    """Gauss-Jordan elimination on sparse rational rows, fraction-free.

    Unknowns are eliminated in index order, the pivot of each new row in its
    first nonzero column; free unknowns are fixed at zero, which makes the
    returned solution deterministic.  Returns None when the system is
    inconsistent: some equation reduces to 0 = c with c != 0.
    """
    pivots = _row_reduce(rows, rhs)
    if pivots is None:
        return None
    values = [_ZERO] * num_unknowns
    for col, (row, val) in pivots.items():
        # After full reduction the pivot row couples only free unknowns,
        # which are all zero, so the pivot value is immediate.
        values[col] = Fraction(val, row[col])
    return values


def nullspace(
    rows: Sequence[dict[int, int | Fraction]], num_unknowns: int
) -> list[tuple[Fraction, ...]]:
    """Basis of the solutions of the homogeneous sparse rows, one per free unknown.

    The basis is the reduced row echelon one: the vector of free unknown f
    is 1 at f, 0 at every other free unknown, and minus the pivot row's
    entry at f over its pivot entry at each pivot unknown.  Vectors come in
    increasing order of f, so the basis is unique and deterministic.
    """
    pivots = _row_reduce(rows, [0] * len(rows))
    basis = []
    for free in range(num_unknowns):
        if free in pivots:
            continue
        vec = [_ZERO] * num_unknowns
        vec[free] = Fraction(1)
        for col, (row, _) in pivots.items():
            if free in row:
                vec[col] = Fraction(-row[free], row[col])
        basis.append(tuple(vec))
    return basis


def _row_reduce(
    rows: Sequence[dict[int, int | Fraction]], rhs: Sequence[int | Fraction]
) -> dict[int, tuple[dict[int, int], int]] | None:
    """Integer reduced row echelon form of [rows | rhs], keyed by pivot column,
    or None when some equation reduces to 0 = c with c != 0.

    Each row, right-hand side included, is scaled to integers by the lcm of
    its denominators.  Eliminating column c of a row with entry a there by a
    pivot row with entry p forms (p/g)*row - (a/g)*pivot_row, g = gcd(a, p),
    and every row so formed is divided by its content.  The stored rows are
    integer multiples of the reduced row echelon form of the rows seen so
    far, which is unique, so each ratio of a stored row's entries is the
    one rational elimination gives.
    """
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for raw_row, raw_val in zip(rows, rhs):
        den = lcm(raw_val.denominator, *(v.denominator for v in raw_row.values()))
        row = {c: v.numerator * (den // v.denominator) for c, v in raw_row.items() if v}
        val = raw_val.numerator * (den // raw_val.denominator)
        # Reduce by existing pivots.  A stored row is zero in every other
        # pivot column, so each step leaves the row's other pivot entries
        # nonzero and adds none.
        for col in sorted(row.keys() & pivots.keys()):
            row, val = _eliminate(row, val, col, *pivots[col])
        if not row:
            if val:
                return None
            continue
        col = min(row)
        # Jordan step: clear the new pivot column from all stored rows.
        for pcol, (prow, pval) in list(pivots.items()):
            if col in prow:
                pivots[pcol] = _eliminate(prow, pval, col, row, val)
        pivots[col] = (row, val)
    return pivots


def _eliminate(
    row: dict[int, int], val: int, col: int, prow: dict[int, int], pval: int
) -> tuple[dict[int, int], int]:
    """Clear column col of an integer row by the pivot row prow, then make
    the result primitive: divide it by the gcd of its entries and value."""
    a, p = row[col], prow[col]
    g = gcd(a, p)
    s, t = p // g, a // g
    if s != 1:
        row = {c: s * v for c, v in row.items()}
    else:
        row = dict(row)
    for c, v in prow.items():
        nv = row.get(c, 0) - t * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    val = s * val - t * pval
    content = gcd(val, *row.values())
    if content > 1:
        row = {c: v // content for c, v in row.items()}
        val //= content
    return row, val

