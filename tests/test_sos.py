"""Gram-matrix search, exact rounding, LDL^T and the decomposition gate."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdet.sdp
import hyperdet.sos
from hyperdet import (
    CertifyOptions,
    DegreeTooSmall,
    Exhausted,
    NotPD,
    Poly,
    certify,
    parse_poly,
)
from hyperdet.linalg import ldl_decompose, solve_sparse_system
from hyperdet.quotient import QuotientContext, bezoutian_of
from hyperdet.sdp import (
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    STALL_WINDOW,
    SdpSolution,
)
from hyperdet.sos import (
    SdpProblem,
    find_sos_decomposition,
    gram_problem,
    monomial_basis_Mk,
    power_sum_multiplier,
    round_gram,
    sole_gram,
    solve_maxeig,
)

from conftest import all_monomials, rational_rank, random_pencil_determinant
from oracles import (
    fraction_round_gram,
    frobenius_representer,
    is_bezoutian,
    pair_scan_gram_problem,
    row_to_element,
)


def P(text, nvars=None):
    return parse_poly(text, nvars)


LORENTZ = P("x0^2 - x1^2 - x2^2")
# The golden cubic: its rows leave Gram entries free at ell=0 and ell=1,
# (m, p) = (6, 18) and (9, 30), so the search runs the SDP on both levels.
CUBIC = P("x0^3 - x0*x1^2 - x0*x2^2")
# Its Gram matrix at ell=0, the one in its golden certificate.
CUBIC_GRAM = [
    [1, 0, Fraction(53, 128), 0, 0, -1],
    [0, Fraction(75, 64), 0, 0, 0, 0],
    [Fraction(53, 128), 0, 1, 0, 0, -1],
    [0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 2, 0],
    [-1, 0, -1, 0, 0, 3],
]


# -- monomial basis -----------------------------------------------------------

def test_basis_lorentz_level0():
    ctx = QuotientContext(LORENTZ)
    basis = monomial_basis_Mk(ctx, 1)
    assert [(g.basis_power, g.r_monomial) for g in basis] == [
        (0, (0, 1, 0)),
        (0, (0, 0, 1)),
        (1, (0, 0, 0)),
    ]


def test_basis_rank_one_module():
    ctx = QuotientContext(P("x0 - x1"))
    basis = monomial_basis_Mk(ctx, 0)
    assert [(g.basis_power, g.r_monomial) for g in basis] == [(0, (0, 0))]


def test_basis_degree_too_small():
    ctx = QuotientContext(LORENTZ)
    with pytest.raises(DegreeTooSmall):
        monomial_basis_Mk(ctx, 0)


def test_basis_size_formula():
    from math import comb

    rng = random.Random(3)
    for _ in range(10):
        nvars = rng.randint(2, 4)
        d = rng.randint(1, 4)
        h = random_pencil_determinant(rng, nvars, d)
        ctx = QuotientContext(h)
        for ell in range(3):
            k = d - 1 + ell
            n = nvars - 1
            expected = sum(comb(k - i + n - 1, n - 1) for i in range(d) if k - i >= 0)
            assert len(monomial_basis_Mk(ctx, k)) == expected


# -- gram_problem -------------------------------------------------------------

def test_gram_problem_lorentz_forces_diagonal():
    ctx = QuotientContext(LORENTZ)
    omega = bezoutian_of(ctx, LORENTZ.derivative(0))
    problem, basis = gram_problem(ctx, omega, 0, power_sum_multiplier(ctx, 0))
    assert problem.m == 3
    assert len(problem.constraints) == 6
    sol = solve_maxeig(problem)
    assert sol.status == OPTIMAL
    gram = round_gram(problem, sol.G, 2**32)
    expected = [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]
    assert gram == expected


def test_gram_problem_linear_case():
    ctx = QuotientContext(P("x0 - x1"))
    omega = bezoutian_of(ctx, ctx.h.derivative(0))
    problem, basis = gram_problem(ctx, omega, 0, power_sum_multiplier(ctx, 0))
    assert problem.m == 1
    sol = solve_maxeig(problem)
    gram = round_gram(problem, sol.G, 2**32)
    assert gram == [[Fraction(1)]]


def test_gram_problem_index_growth():
    ctx = QuotientContext(LORENTZ)
    omega = bezoutian_of(ctx, LORENTZ.derivative(0))
    p0, basis0 = gram_problem(ctx, omega, 0, power_sum_multiplier(ctx, 0))
    p1, basis1 = gram_problem(ctx, omega, 1, power_sum_multiplier(ctx, 1))
    assert len(basis1) > len(basis0)
    # k=2 with d=2: power 0 carries |gamma|=2 (3 monomials), power 1 |gamma|=1 (2)
    assert len(basis1) == 3 + 2


@pytest.mark.parametrize("h,ell_max", [
    (LORENTZ, 2),
    (P("x0^3 - x0*x1^2 - x0*x2^2"), 2),
    (random_pencil_determinant(random.Random(3), 3, 3), 2),
    (random_pencil_determinant(random.Random(7), 4, 3), 1),
    (random_pencil_determinant(random.Random(1), 4, 2), 2),
])
def test_gram_problem_matches_the_pair_scan(h, ell_max):
    # The bucketed builder states the same rows, in the same order and with
    # the same key order, as testing every (mu, gamma) pair.
    ctx = QuotientContext(h)
    omega = bezoutian_of(ctx, ctx.h.derivative(0))
    for ell in range(ell_max + 1):
        problem, basis = gram_problem(ctx, omega, ell, power_sum_multiplier(ctx, ell))
        expected, expected_basis = pair_scan_gram_problem(ctx, omega, ell)
        assert basis == expected_basis
        assert problem.m == expected.m
        assert problem.constraints == expected.constraints
        assert [list(row) for row, _ in problem.constraints] == \
            [list(row) for row, _ in expected.constraints]


# -- round_gram ---------------------------------------------------------------

def _diag_problem():
    m = 3
    cons = []
    for i in range(m):
        cons.append(({(i, i): 1}, Fraction(2)))
    for i in range(m):
        for j in range(i + 1, m):
            cons.append(({(i, j): 1}, Fraction(0)))
    return SdpProblem(m, cons)


def test_round_gram_projects_float_noise():
    problem = _diag_problem()
    g = np.diag([2 + 1e-9, 2 - 1e-9, 2.0])
    gram = round_gram(problem, g, 2**32)
    assert gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


def test_round_gram_fixed_point_on_exact_input():
    problem = _diag_problem()
    gram = round_gram(problem, np.diag([2.0, 2.0, 2.0]), 2**32)
    assert gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("bound", [2**8, 2**16, 10**6])
def test_round_gram_rounds_onto_one_grid(bound):
    # 0.7 and 1.3 land on grid points that sum to 2, so the trace constraint
    # has zero defect and the projection leaves every entry on the grid.
    problem = SdpProblem(2, [({(0, 0): 1, (1, 1): 1}, Fraction(2))])
    g = np.array([[0.7, 0.3], [0.3, 1.3]])
    gram = round_gram(problem, g, bound)
    assert gram[0][0] + gram[1][1] == 2
    assert all(bound % x.denominator == 0 for row in gram for x in row)
    assert gram[0][1] == gram[1][0] == Fraction(round(Fraction(0.3) * bound), bound)


def test_round_gram_refuses_overlapping_supports():
    # G00 + G11 = 2 and G00 = 1 share the position (0, 0).  The one-division
    # projection is only orthogonal for disjoint supports; here it would miss
    # the trace constraint, so the problem is refused when it is stated,
    # before any rounding.  So is a row with no position, which no
    # projection can satisfy unless its right-hand side is zero.
    for cons in (
        [({(0, 0): 1, (1, 1): 1}, Fraction(2)), ({(0, 0): 1}, Fraction(1)),
         ({(0, 1): 1}, Fraction(0))],
        [({(0, 1): 1}, Fraction(0)), ({(0, 0): 1, (0, 1): 2}, Fraction(1))],
        [({(0, 0): 1}, Fraction(1)), ({}, Fraction(1))],
        [({}, Fraction(0))],
    ):
        with pytest.raises(ValueError):
            SdpProblem(2, cons)


_BOUNDS = (2**8, 2**64, 1000)


@st.composite
def rounding_cases(draw):
    """A float matrix and a problem whose rows split the upper-triangle Gram
    positions into random groups, with positive int split counts, under one
    grid bound.

    Some entries lie exactly halfway between two grid points: odd multiples
    of 1 / (2 * 2^a) for a bound 2^a * c with c odd, which times the bound
    is c/2 times an odd number.
    """
    bound = draw(st.sampled_from(_BOUNDS))
    m = draw(st.integers(1, 5))
    tie_step = 1 / (2 * (bound & -bound))
    value = st.one_of(
        st.floats(-50, 50, allow_nan=False),
        st.integers(-2**20, 2**20).map(lambda j: (2 * j + 1) * tie_step),
    )
    upper = [(i, j) for i in range(m) for j in range(i, m)]
    g = np.zeros((m, m))
    for i, j in upper:
        g[i, j] = g[j, i] = draw(value)
    if draw(st.booleans()):
        # An asymmetric iterate: round_gram rounds its symmetric part.
        g[0, -1] = draw(value)
    groups = draw(st.lists(st.integers(0, len(upper) - 1), min_size=len(upper),
                           max_size=len(upper)))
    constraints = []
    for label in sorted(set(groups)):
        row = {upper[index]: draw(st.integers(1, 4))
               for index, group in enumerate(groups) if group == label}
        constraints.append((row, draw(st.fractions(-20, 20, max_denominator=9))))
    return SdpProblem(m, constraints), g, bound


@settings(max_examples=300, deadline=None)
@given(rounding_cases())
def test_round_gram_matches_the_fraction_rounding(case):
    # Integer rounding with ties to even and the projection over one common
    # denominator give the Fraction route's matrix, which projects with the
    # Frobenius representers of the rows; it is symmetric and meets every
    # row exactly.
    problem, g, bound = case
    gram = round_gram(problem, g, bound)
    assert gram == fraction_round_gram(problem, g, bound)
    assert all(gram[a][b] == gram[b][a] for a in range(problem.m) for b in range(a))
    for row, rhs in problem.constraints:
        assert sum(w * gram[a][b] for (a, b), w in frobenius_representer(row).items()) == rhs
        assert sum(c * gram[a][b] for (a, b), c in row.items()) == rhs


@pytest.mark.parametrize("bound", _BOUNDS)
def test_round_gram_rounds_ties_to_even(bound):
    # Without constraints that move them, entries halfway between grid
    # points go to the even neighbour, as round(Fraction) does.
    step = 1 / (2 * (bound & -bound))
    values = [step, 3 * step, -step, -3 * step]
    problem = SdpProblem(4, [({(i, j): 2}, Fraction(0)) for i in range(4) for j in range(i + 1, 4)])
    gram = round_gram(problem, np.diag(values), bound)
    halves = [Fraction(v) * bound for v in values]
    assert all(h.denominator == 2 for h in halves)
    assert [gram[i][i] * bound for i in range(4)] == [round(h) for h in halves]
    assert all((gram[i][i] * bound).numerator % 2 == 0 for i in range(4))


def test_round_gram_returns_projection_without_pd_test():
    # Positive definiteness is decided by the one LDL^T in
    # find_sos_decomposition, not by round_gram.
    problem = SdpProblem(1, [({(0, 0): 1}, Fraction(-1))])
    gram = round_gram(problem, np.array([[1.0]]), 2**32)
    assert gram == [[Fraction(-1)]]
    with pytest.raises(NotPD):
        ldl_decompose(gram)


# -- ldl ----------------------------------------------------------------------

def test_ldl_diagonal():
    d, rows = ldl_decompose([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert d == [Fraction(2)] * 3
    assert rows == [[Fraction(i == j) for j in range(3)] for i in range(3)]


def test_ldl_generic_two_by_two():
    d, rows = ldl_decompose([[5, -3], [-3, 2]])
    assert d == [Fraction(5), Fraction(1, 5)]
    assert rows == [[Fraction(1), Fraction(-3, 5)], [Fraction(0), Fraction(1)]]


def test_ldl_rejects_zero_pivot():
    with pytest.raises(NotPD):
        ldl_decompose([[0, 1], [1, 0]])


def test_ldl_reconstructs():
    rng = random.Random(9)
    for _ in range(10):
        m = rng.randint(1, 5)
        r = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)] for _ in range(m)]
        g = [[sum(r[k][i] * r[k][j] for k in range(m)) + Fraction(i == j) for j in range(m)]
             for i in range(m)]
        d, rows = ldl_decompose(g)
        assert all(p > 0 for p in d)
        rebuilt = [[sum(d[k] * rows[k][i] * rows[k][j] for k in range(m)) for j in range(m)]
                   for i in range(m)]
        assert rebuilt == g


# -- find_sos_decomposition -----------------------------------------------------

def test_lorentz_decomposition_pinned():
    ctx = QuotientContext(LORENTZ)
    dec = find_sos_decomposition(ctx)
    assert dec.ell == 0 and dec.k == 1
    assert dec.multiplier == Poly.one(3)
    assert dec.weights == [Fraction(2), Fraction(2), Fraction(2)]
    expected = [
        (P("x1", 3), Poly.zero(3)),
        (P("x2", 3), Poly.zero(3)),
        (Poly.zero(3), Poly.one(3)),
    ]
    assert dec.basis == monomial_basis_Mk(ctx, 1)
    assert [row_to_element(ctx, dec.basis, row) for row in dec.rows] == expected
    assert dec.gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("status", [MAX_ITERATIONS, INFEASIBLE])
def test_positive_margin_iterate_is_accepted_whatever_its_status(monkeypatch, status):
    # The solver status does not gate rounding: a positive-margin iterate is
    # rounded, and the one exact LDL^T accepts its PD projection at ell=0,
    # the Gram matrix of the golden cubic's certificate.
    def solve(problem):
        return dataclasses.replace(solve_maxeig(problem), status=status)

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    dec = find_sos_decomposition(QuotientContext(CUBIC))
    assert dec.ell == 0
    assert dec.gram == CUBIC_GRAM


def test_positive_margin_iterate_with_non_pd_projection_is_refused(monkeypatch):
    # x0*(x0^2 + x1^2 + x2^2) is not hyperbolic, so no matrix its rows allow
    # at ell=0 is PD; a positive margin claimed by the solver does not get
    # the projection past the LDL on any of the four grids.
    def solve(problem):
        return SdpSolution(G=np.eye(problem.m), t=1.0, residual=0.0, status=MAX_ITERATIONS)

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    with pytest.raises(Exhausted) as info:
        find_sos_decomposition(QuotientContext(P("x0^3 + x0*x1^2 + x0*x2^2")), ell_max=0)
    assert str(info.value).count("ell=0: projected rational matrix is not PD") == 4


def test_sole_gram_that_is_not_pd_is_recorded_once(monkeypatch):
    # The rows of x0^2 + x1^2 at ell=0 fix every entry of a Gram matrix that
    # is not PD: one failure for the one matrix, and no solve.
    def solve(problem):
        raise AssertionError("the SDP ran on a level with one Gram matrix")

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    with pytest.raises(Exhausted) as info:
        find_sos_decomposition(QuotientContext(P("x0^2 + x1^2")), ell_max=0)
    assert str(info.value).count("ell=0: projected rational matrix is not PD") == 1
    assert str(info.value).startswith("no exact decomposition up to ell=0 (ell=0: projected")


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_level_without_margin_is_recorded_once_and_not_rounded(monkeypatch, t):
    rounded = []

    def solve(problem):
        return SdpSolution(G=np.eye(problem.m), t=t, residual=0.0, status=OPTIMAL)

    def counted(*args):
        rounded.append(args)
        return round_gram(*args)

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    monkeypatch.setattr(hyperdet.sos, "round_gram", counted)
    with pytest.raises(Exhausted) as info:
        find_sos_decomposition(QuotientContext(CUBIC), ell_max=1)
    failures = "; ".join(f"ell={ell}: no positive-definiteness margin to absorb rounding"
                         for ell in (0, 1))
    assert str(info.value) == f"no exact decomposition up to ell=1 ({failures})"
    assert rounded == []


def test_rounded_gram_is_factored_once(monkeypatch):
    calls = []

    def counted(gram):
        calls.append(gram)
        return ldl_decompose(gram)

    monkeypatch.setattr(hyperdet.sos, "ldl_decompose", counted)
    dec = find_sos_decomposition(QuotientContext(LORENTZ))
    assert calls == [dec.gram]


def _lorentz(nvars):
    return P(" - ".join(f"x{i}^2" for i in range(nvars)))


# Inputs whose rows fix every Gram entry at ell=0, and which certify there.
_ONE_POINT_INPUTS = (
    [pytest.param(_lorentz(n + 1), id=f"lorentz-n{n}") for n in range(1, 6)]
    + [pytest.param(random_pencil_determinant(random.Random(seed), nvars, 2), id=f"hv{nvars}d2-{seed}")
       for nvars in (2, 3) for seed in (1, 2, 3, 4)]
    + [pytest.param(random_pencil_determinant(random.Random(1), 2, 5), id="binary-d5")]
)


@pytest.mark.parametrize("h", _ONE_POINT_INPUTS)
def test_level_with_one_gram_matrix_runs_no_sdp_and_no_rounding(monkeypatch, h):
    calls = {"solve_maxeig": [], "round_gram": [], "ldl_decompose": []}

    def spy(name, function):
        def called(*args):
            calls[name].append(args)
            return function(*args)
        return called

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", spy("solve_maxeig", solve_maxeig))
    monkeypatch.setattr(hyperdet.sos, "round_gram", spy("round_gram", round_gram))
    monkeypatch.setattr(hyperdet.sos, "ldl_decompose", spy("ldl_decompose", ldl_decompose))
    dec = find_sos_decomposition(QuotientContext(h))
    assert dec.ell == 0
    assert calls == {"solve_maxeig": [], "round_gram": [], "ldl_decompose": [(dec.gram,)]}


@st.composite
def one_point_problems(draw):
    """A random quadric in 2-5 variables at ell=0, or a random binary form of
    degree 1-5 at ell 0-2, monic in x0."""
    if draw(st.booleans()):
        nvars, degree, ell = draw(st.integers(2, 5)), 2, 0
    else:
        nvars, degree, ell = 2, draw(st.integers(1, 5)), draw(st.integers(0, 2))
    coefficient = st.fractions(-4, 4, max_denominator=3)
    terms = {mono: draw(coefficient) for mono in all_monomials(nvars, degree)}
    terms[(degree,) + (0,) * (nvars - 1)] = Fraction(1)
    ctx = QuotientContext(Poly(nvars, terms))
    omega = bezoutian_of(ctx, ctx.h.derivative(0))
    problem, _ = gram_problem(ctx, omega, ell, power_sum_multiplier(ctx, ell))
    return problem


@settings(max_examples=80, deadline=None)
@given(one_point_problems())
def test_rows_of_quadrics_and_binary_forms_fix_every_gram_position(problem):
    # Each row's support is one upper-triangle position, and the rows cover
    # every position once, so the rows allow one matrix: the one that
    # round_gram's projection returns from any iterate.
    m = problem.m
    supports = [set(row) for row, _ in problem.constraints]
    assert all(len(support) == 1 for support in supports)
    assert sorted(pos for (pos,) in supports) == [(a, b) for a in range(m) for b in range(a, m)]
    assert sole_gram(problem) == round_gram(problem, np.eye(m), 2**8)


def test_sole_gram_leaves_free_entries_to_the_sdp():
    ctx = QuotientContext(CUBIC)
    omega = bezoutian_of(ctx, CUBIC.derivative(0))
    for ell in (0, 1):
        problem, _ = gram_problem(ctx, omega, ell, power_sum_multiplier(ctx, ell))
        assert sole_gram(problem) is None
    # A row on two positions leaves the matrix free; two rows on one position,
    # which would leave another position free, are refused when stated.
    assert sole_gram(SdpProblem(2, [({(0, 0): 1, (1, 1): 1}, Fraction(2)),
                                    ({(0, 1): 1}, Fraction(0))])) is None
    with pytest.raises(ValueError):
        SdpProblem(2, [({(0, 0): 1}, Fraction(1))] * 3)


def test_linear_decomposition():
    ctx = QuotientContext(P("x0 - x1"))
    dec = find_sos_decomposition(ctx)
    assert dec.ell == 0 and dec.k == 0
    assert dec.weights == [Fraction(1)]
    assert dec.basis == monomial_basis_Mk(ctx, 0)
    assert [row_to_element(ctx, dec.basis, row) for row in dec.rows] == [(Poly.one(2),)]


def test_stalled_level_is_left_with_the_same_refusal(monkeypatch):
    # The seed-7 4-variable cubic: at ell=1 the best iterate comes at
    # iteration 12, and the solver used to run on to the 200-iteration cap.
    # It now leaves the level STALL_WINDOW iterations after its best iterate,
    # and the refusal text is the one pinned before the stall exit.
    solves = []
    steps = [0]
    apply_step = hyperdet.sdp._apply_step

    def counting_step(*args):
        steps[0] += 1  # twice per iteration: the primal and the dual step
        return apply_step(*args)

    def recording_solve(problem, **kwargs):
        steps[0] = 0
        sol = solve_maxeig(problem, **kwargs)
        solves.append((sol, steps[0] // 2))
        return sol

    monkeypatch.setattr(hyperdet.sdp, "_apply_step", counting_step)
    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", recording_solve)
    h = random_pencil_determinant(random.Random(7), 4, 3)
    with pytest.raises(Exhausted) as exc:
        certify(h, [1, 0, 0, 0], CertifyOptions(lmax=1))
    assert str(exc.value) == (
        "no exact decomposition up to ell=1 (ell=0: no positive-definiteness margin "
        "to absorb rounding; ell=1: no positive-definiteness margin to absorb rounding)")
    sol, iterations = solves[1]
    assert sol.iterations == 12
    assert iterations <= sol.iterations + STALL_WINDOW + 1
    assert "stalled" in sol.detail and str(STALL_WINDOW) in sol.detail


def test_definite_quadric_exhausts():
    ctx = QuotientContext(P("x0^2 + x1^2"))
    with pytest.raises(Exhausted):
        find_sos_decomposition(ctx, ell_max=1)


def test_exactness_gate_and_rank():
    rng = random.Random(15)
    for _ in range(4):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 3)
        h = random_pencil_determinant(rng, nvars, d)
        ctx = QuotientContext(h)
        omega = bezoutian_of(ctx, ctx.h.derivative(0))
        dec = find_sos_decomposition(ctx)
        vectors = [row_to_element(ctx, dec.basis, row) for row in dec.rows]
        # Exact replay of multiplier * omega0 = sum_i d_i u_i (x) u_i.
        for a in range(ctx.d):
            for b in range(ctx.d):
                acc = Poly.zero(ctx.nvars)
                for w, u in zip(dec.weights, vectors):
                    acc = acc + u[a] * u[b] * w
                assert acc == dec.multiplier * omega[a][b]
        basis = monomial_basis_Mk(ctx, dec.k)
        assert dec.basis == basis
        assert rational_rank(dec.rows) == len(basis)
        assert is_bezoutian(ctx, tuple(tuple(dec.multiplier * e for e in row) for row in omega))


def test_generation_of_next_graded_piece():
    # Every degree-(k+1) monomial x^gamma x0bar^i is x_s times an element of
    # the degree-k piece, which the vectors span; verify the expansion exactly.
    rng = random.Random(21)
    for _ in range(3):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 2)
        h = random_pencil_determinant(rng, nvars, d)
        ctx = QuotientContext(h)
        dec = find_sos_decomposition(ctx)
        basis = monomial_basis_Mk(ctx, dec.k)
        assert dec.basis == basis
        index = {(g.basis_power, g.r_monomial): col for col, g in enumerate(basis)}
        # Column i of coords is row i of the LDL factor: u_i over the basis.
        coords = [list(col) for col in zip(*dec.rows)]
        vectors = [row_to_element(ctx, basis, row) for row in dec.rows]
        for g_up in monomial_basis_Mk(ctx, dec.k + 1):
            mono = g_up.r_monomial
            s = next(i for i in range(1, nvars) if mono[i] > 0)
            lowered = tuple(e - (1 if i == s else 0) for i, e in enumerate(mono))
            target = [Fraction(0)] * len(basis)
            target[index[(g_up.basis_power, lowered)]] = Fraction(1)
            combo = solve_sparse_system(
                [{col: c for col, c in enumerate(row) if c} for row in coords],
                target,
                len(dec.rows),
            )
            assert combo is not None
            rebuilt = [Poly.zero(nvars) for _ in range(ctx.d)]
            xs = Poly.variable(nvars, s)
            for coeff, u in zip(combo, vectors):
                if coeff:
                    for power in range(ctx.d):
                        rebuilt[power] = rebuilt[power] + u[power] * coeff * xs
            expected = [Poly.zero(nvars) for _ in range(ctx.d)]
            expected[g_up.basis_power] = Poly.monomial(mono, 1)
            assert rebuilt == expected


def test_power_sum_multiplier():
    ctx = QuotientContext(LORENTZ)
    assert power_sum_multiplier(ctx, 0) == Poly.one(3)
    assert power_sum_multiplier(ctx, 1) == P("x1^2 + x2^2", 3)
    assert power_sum_multiplier(ctx, 2) == P("x1^4 + 2*x1^2*x2^2 + x2^4", 3)


def test_multiplier_is_built_once_per_search(monkeypatch):
    # One sum of squares per search and one product per level: every Gram
    # problem and the returned decomposition carry that level's power.
    ctx = QuotientContext(CUBIC)
    powers, multipliers = [], []

    def counted_power(ctx_, ell):
        powers.append(ell)
        return power_sum_multiplier(ctx_, ell)

    def recorded_problem(ctx_, omega0, ell, multiplier):
        multipliers.append((ell, multiplier))
        return gram_problem(ctx_, omega0, ell, multiplier)

    def solve(problem):
        # No margin at ell=0 (m = 6), so the search goes on to ell=1.
        sol = solve_maxeig(problem)
        return sol if problem.m > 6 else dataclasses.replace(sol, t=-1.0)

    monkeypatch.setattr(hyperdet.sos, "power_sum_multiplier", counted_power)
    monkeypatch.setattr(hyperdet.sos, "gram_problem", recorded_problem)
    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    dec = find_sos_decomposition(ctx, ell_max=2)
    assert dec.ell == 1
    assert dec.multiplier == P("x1^2 + x2^2", 3)
    assert powers == [1]
    assert multipliers == [(ell, power_sum_multiplier(ctx, ell)) for ell in (0, 1)]
