"""Sum-of-squares multipliers for the derivative Bézoutian.

Searches for an exponent ell and an exact rational identity

    (x1^2 + ... + xn^2)^ell * omega0  =  sum_i d_i * u_i (x) u_i

where omega0 is the Bézoutian of dh/dx0, the weights d_i are positive
rationals and the u_i, coordinates over the monomial basis of the quotient's
degree k = d-1+ell piece, form a full-rank matrix (so they span that piece).
Each candidate level states the Gram problem once as sparse rows of integer
split counts over the upper triangle, and every candidate Gram matrix is the
exact projection of a grid point onto those rows (round_gram).  Where each
row fixes one Gram position and the rows cover them all (quadrics and linear
forms at ell = 0, binary forms at every level), the rows allow one matrix:
the projection of the zero matrix, with no SDP and no numpy.  Otherwise the
SDP runs on a float stack built from the rows, and its solution is rounded
onto each rational grid before the projection.  Each candidate is factored
once; that factorization is the positive-definiteness test, and the identity
then holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DegreeTooSmall, Exhausted, HyperdetError, NotPD
from .linalg import RatMatrix, ldl_decompose
from .poly import Monomial, Poly, grlex_key
from .quotient import QuotientContext, bezoutian_of

if TYPE_CHECKING:
    import numpy as np

    from .sdp import SdpSolution

DEFAULT_ELL_MAX = 4
# The rounding grids of each level, coarse first: the positive-definiteness
# margin usually absorbs the larger rounding error, and a small common
# denominator keeps the weights, the lift and the pencil determinant cheap
# downstream.
DENOMINATOR_BOUNDS = (2**8, 2**16, 2**32, 2**64)

_ZERO = Fraction(0)

# Constraint row: split counts by upper-triangle Gram position, and the
# right-hand side.
CountRow = tuple[dict[tuple[int, int], int], Fraction]


@dataclass
class SdpProblem:
    """Affine-constrained symmetric matrix feasibility data.

    Each constraint is a sparse row ({(a, b): c}, rhs) over upper-triangle
    positions a <= b, stating sum c * G[a][b] = rhs; c counts the splits
    gamma + delta = mu that land on G[a][b].  As a Frobenius pairing
    <A_k, G> = rhs, A_k holds c at (a, a) and c/2 at (a, b) and (b, a).
    The rows are checked once, here: nonempty, positive int counts inside
    the upper triangle, and no position in two rows.  They are the only
    statement of the constraints: the solver reads the float stack that
    solve_maxeig builds from them, and round_gram projects onto them.  As
    rows share no position, m(m+1)/2 rows hold one position each and cover
    every position: the affine space is a point, which round_gram returns
    from any iterate.
    """

    m: int
    constraints: list[CountRow]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("matrix size must be at least 1")
        if not self.constraints:
            raise ValueError("constraint list must be nonempty")
        seen: set[tuple[int, int]] = set()
        for row, _ in self.constraints:
            if not row or not seen.isdisjoint(row):
                raise ValueError("constraint rows must be nonempty and share no position")
            if not all(0 <= a <= b < self.m and type(c) is int and c > 0 for (a, b), c in row.items()):
                raise ValueError(f"constraint rows must hold positive int counts in the "
                                 f"upper triangle of {self.m}x{self.m}")
            seen.update(row)


@dataclass(frozen=True)
class GramIndex:
    """Basis label for the Gram matrix: x^gamma * x0bar^power.

    The monomial gamma is stored with a zero exponent in slot 0; for an
    index of degree k, power + |gamma| = k.
    """

    basis_power: int
    r_monomial: Monomial


@dataclass
class SosDecomposition:
    """Exact certificate that multiplier * omega0 splits into weighted squares.

    The generators u_i are the rows of the unit upper-triangular factor R
    of gram = R^T diag(weights) R from the search's one LDL^T: row i holds
    u_i over basis, the monomial basis of the degree-k piece that gram is
    stated in, and the rows span that piece.  The lift solves its system
    in that basis over gram and reaches the generators through R.

    Invariant (holds by construction in the search): multiplier * omega0 =
    sum_i weights[i] * u_i (x) u_i entrywise in exact arithmetic, because
    gram meets every affine constraint exactly and weights/rows are its
    exact LDL^T factors, whose positive pivots are the only PD test it
    passed.  It is not replayed here: the certificate replay in
    verify_certificate is the soundness gate.
    """

    ell: int
    k: int
    multiplier: Poly
    weights: list[Fraction]
    basis: list[GramIndex]
    gram: RatMatrix
    rows: RatMatrix


def r_monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All x0-free monomials of the given total degree, descending grlex."""
    n = nvars - 1
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        exps = [0] * nvars
        for idx in combo:
            exps[idx + 1] += 1
        out.append(tuple(exps))
    out.sort(key=grlex_key, reverse=True)
    return out


def monomial_basis_Mk(ctx: QuotientContext, k: int) -> list[GramIndex]:
    """Monomial basis of the degree-k graded piece of the quotient module.

    Pairs (i, gamma) with 0 <= i < d and |gamma| = k - i, in canonical order
    (basis power ascending, monomials descending grlex).  Requires k >= d-1:
    below that the degree-k piece cannot generate everything above it.
    """
    if k < ctx.d - 1:
        raise DegreeTooSmall(f"need k >= d-1 = {ctx.d - 1}, got {k}")
    basis: list[GramIndex] = []
    for power in range(ctx.d):
        for mono in r_monomials_of_degree(ctx.nvars, k - power):
            basis.append(GramIndex(power, mono))
    return basis


def power_sum_multiplier(ctx: QuotientContext, ell: int) -> Poly:
    """(x1^2 + ... + xn^2)^ell as a polynomial in all n+1 variables."""
    total = Poly.zero(ctx.nvars)
    for i in range(1, ctx.nvars):
        total = total + Poly.variable(ctx.nvars, i) ** 2
    return total**ell


def gram_problem(
    ctx: QuotientContext, omega0: Sequence[Sequence[Poly]], ell: int, multiplier: Poly
) -> tuple[SdpProblem, list[GramIndex]]:
    """Assemble the Gram-matrix SDP for multiplier exponent ell.

    The Gram variable is indexed by monomial_basis_Mk(ctx, d-1+ell); there is
    one affine constraint per (form entry (i,j), monomial mu of its degree):
    the gram entries over all splits gamma + delta = mu must sum to the
    coefficient of x^mu in (multiplier * omega0)_{ij}, omega0 the rows of
    bezoutian_of(ctx, dh/dx0).  Each constraint is one row of split counts
    (see SdpProblem); the solver and the rounding stage both read these rows,
    and no two rows share a Gram position.  multiplier is
    power_sum_multiplier(ctx, ell), which the caller builds level by level.
    """
    d = ctx.d
    k = d - 1 + ell
    basis = monomial_basis_Mk(ctx, k)
    by_power: list[list[tuple[int, Monomial]]] = [[] for _ in range(d)]
    for a, g in enumerate(basis):
        by_power[g.basis_power].append((a, g.r_monomial))

    constraints: list[CountRow] = []
    for i in range(d):
        for j in range(i, d):
            # Each pair of indices is counted in the row of gamma + delta, at
            # its upper-triangle position, in basis order of gamma: one pass
            # over the (i, j) block.  In a diagonal block (a, b) and (b, a)
            # are both splits of mu, so an off-diagonal position counts 2.
            rows: dict[Monomial, dict[tuple[int, int], int]] = {}
            for a, gamma in by_power[i]:
                for b, delta in by_power[j]:
                    row = rows.setdefault(tuple(x + y for x, y in zip(gamma, delta)), {})
                    pos = (a, b) if a <= b else (b, a)
                    row[pos] = row.get(pos, 0) + 1
            entry = multiplier * omega0[i][j]
            for mu in r_monomials_of_degree(ctx.nvars, 2 * k - i - j):
                constraints.append((rows[mu], entry.coeff(mu)))
    return SdpProblem(len(basis), constraints), basis


def round_gram(
    problem: SdpProblem,
    g: np.ndarray | Sequence[Sequence[float]],
    denominator_bound: int,
) -> RatMatrix:
    """Round the float Gram matrix to rationals satisfying every constraint.

    Every entry is rounded to the nearest point of one grid, k / bound with
    bound = denominator_bound (Peyrl & Parrilo, TCS 2008), then projected
    exactly and orthogonally (Frobenius) onto the affine constraint subspace
    of problem.constraints; entries whose constraints hold on the grid keep
    a denominator dividing bound.  One common denominator keeps the LDL
    pivots, the lift and the pencil determinant downstream far narrower than
    one denominator per entry.  No two rows share a position (SdpProblem
    checks it), so the projection is one division per constraint and meets
    every constraint exactly by algebra.  The result is symmetric but need
    not be positive definite: the caller's one LDL^T factorization decides
    that, whatever the solver status of the iterate g was.
    """
    m = problem.m
    bound = denominator_bound
    # Grid numerators, upper triangle: q[i][j] / bound is the symmetric part
    # of g at (i, j) rounded to the nearest grid point, ties to even as
    # round(Fraction) does.
    q = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            top, bottom = ((g[i][j] + g[j][i]) / 2).as_integer_ratio()
            near, rem = divmod(top * bound, bottom)
            if 2 * rem > bottom or (2 * rem == bottom and near & 1):
                near += 1
            q[i][j] = near

    # Row k's defect is dnum / (rhs.denominator * bound), and 2*A_k holds
    # t = c*(1 + [a == b]) at (a, b): the normal equations are diagonal, and
    # lam_k = defect_k / |A_k|^2 moves G[a][b] by dnum * t / (rhs.denominator
    # * bound * sum(c*t)).  One common denominator takes every such step.
    steps = []
    for row, rhs in problem.constraints:
        dot = sum(c * q[a][b] for (a, b), c in row.items())
        dnum = rhs.numerator * bound - rhs.denominator * dot
        if dnum:
            norm = sum(c * c * (1 + (a == b)) for (a, b), c in row.items())
            steps.append((row, dnum, rhs.denominator * norm))
    scale = lcm(*(step_den for *_, step_den in steps))
    num = [[x * scale for x in line] for line in q]  # entry (a, b) is num[a][b] / (bound * scale)
    for row, dnum, step_den in steps:
        factor = dnum * (scale // step_den)
        for (a, b), c in row.items():
            num[a][b] += factor * c * (1 + (a == b))
    approx = [[_ZERO] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            approx[i][j] = approx[j][i] = Fraction(num[i][j], bound * scale)
    return approx


def solve_maxeig(problem: SdpProblem) -> SdpSolution:
    """sdp.solve_maxeig on the problem's float stack: A_k holds c at (a, a)
    and c/2 at (a, b) and (b, a) for each count c of row k, and b_k is
    float(rhs).  sdp is imported at the first solve: numpy, which the
    solver needs, loads only when an SDP runs, so check, verify and
    bezoutian never import it, nor does certify on levels whose rows fix
    every Gram position.  Without numpy the solve is refused with a
    HyperdetError that names it, not an ImportError."""
    try:
        from . import sdp
    except ImportError as exc:
        raise HyperdetError(
            f"numpy is needed to solve this input's SDP and could not be imported ({exc})") from None
    # numpy is loaded by now, by sdp: importing it here first left the first
    # solve's peak RSS 0.7 MB higher, on small-mix's first HV cubic.
    import numpy as np

    m, rows = problem.m, problem.constraints
    a_stack = np.zeros((len(rows), m, m))
    for k, (row, _) in enumerate(rows):
        for (a, b), c in row.items():
            a_stack[k, a, b] = a_stack[k, b, a] = c if a == b else c / 2
    return sdp.solve_maxeig(a_stack, np.array([float(rhs) for _, rhs in rows]))


def find_sos_decomposition(
    ctx: QuotientContext, ell_max: int = DEFAULT_ELL_MAX
) -> SosDecomposition:
    """Escalate the multiplier exponent until an exact decomposition exists.

    For each ell = 0..ell_max: assemble the Gram problem for the Bézoutian of
    dh/dx0.  When its rows fix every entry, the level's only candidate is
    round_gram's projection of the zero matrix, with no SDP.  Otherwise solve
    the SDP.  A level whose iterate has no positive eigenvalue margin t is skipped
    with one recorded failure: rounding could only make a PD matrix by luck,
    so this is a cost filter, not a soundness check.  Else, for each bound of
    DENOMINATOR_BOUNDS, coarse first, round the iterate (whatever its solver
    status) to rationals that satisfy every constraint exactly.  Each
    candidate is factored LDL^T once.  That factorization is the PD test: a
    non-positive pivot (NotPD) is recorded as the candidate's failure and the
    next candidate is tried.  Per-level failures escalate; Exhausted is raised
    only when every level fails.  A returned decomposition satisfies the
    identity exactly by construction (see SosDecomposition) and its rows
    always span (unit-triangular coefficient matrix).
    """
    omega0 = bezoutian_of(ctx, ctx.h.derivative(0))
    failures: list[str] = []
    # (x1^2 + ... + xn^2)^ell, one product per level.
    square_sum = power_sum_multiplier(ctx, 1)
    multiplier = Poly.one(ctx.nvars)
    for ell in range(ell_max + 1):
        if ell:
            multiplier = multiplier * square_sum
        problem, basis = gram_problem(ctx, omega0, ell, multiplier)
        for gram in _candidates(problem, ell, failures):
            try:
                weights, rows = ldl_decompose(gram)
            except NotPD as exc:
                failures.append(f"ell={ell}: projected rational matrix is not PD: {exc}")
            else:
                return SosDecomposition(
                    ell=ell,
                    k=ctx.d - 1 + ell,
                    multiplier=multiplier,
                    weights=weights,
                    basis=basis,
                    gram=gram,
                    rows=rows,
                )
    # Every level records at least one failure, so the list is never empty.
    raise Exhausted(ell_max, f"no exact decomposition up to ell={ell_max} ({'; '.join(failures)})")


def _candidates(problem: SdpProblem, ell: int, failures: list[str]) -> Iterator[RatMatrix]:
    """A level's rational Gram matrices, in the order the PD test tries them.

    Each is round_gram's projection onto the rows.  Rows that fix every
    position project the zero matrix on grid 1: each is one position with
    count c, and the projection lands on rhs / c from any start.  Else the
    SDP iterate is rounded onto each grid of DENOMINATOR_BOUNDS.  A level
    without margin is recorded in failures and yields nothing.
    """
    m = problem.m
    if len(problem.constraints) == m * (m + 1) // 2:
        yield round_gram(problem, [[0.0] * m] * m, 1)
        return
    sol = solve_maxeig(problem)
    if not sol.t > 0:
        failures.append(f"ell={ell}: no positive-definiteness margin to absorb rounding")
        return
    iterate = sol.G.tolist()
    for bound in DENOMINATOR_BOUNDS:
        yield round_gram(problem, iterate, bound)
