"""Gram-matrix search, exact rounding, LDL^T and the decomposition gate."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import hyperdet.sos
from hyperdet import (
    DegreeTooSmall,
    Exhausted,
    NotPD,
    Poly,
    RoundingFailed,
    parse_poly,
)
from hyperdet.linalg import ldl_decompose, solve_sparse_system
from hyperdet.quotient import QuotientContext, bezoutian_of
from hyperdet.sdp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL, SdpProblem, SdpSolution, solve_maxeig
from hyperdet.sos import (
    find_sos_decomposition,
    gram_problem,
    monomial_basis_Mk,
    power_sum_multiplier,
    round_gram,
)

from conftest import rational_rank, random_pencil_determinant
from oracles import is_bezoutian


def P(text, nvars=None):
    return parse_poly(text, nvars)


LORENTZ = P("x0^2 - x1^2 - x2^2")


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
    problem, basis = gram_problem(ctx, omega, 0)
    assert problem.m == 3
    assert len(problem.constraints) == 6
    sol = solve_maxeig(problem)
    assert sol.status == OPTIMAL
    gram = round_gram(problem, sol.G)
    expected = [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]
    assert gram == expected


def test_gram_problem_linear_case():
    ctx = QuotientContext(P("x0 - x1"))
    omega = bezoutian_of(ctx, ctx.h.derivative(0))
    problem, basis = gram_problem(ctx, omega, 0)
    assert problem.m == 1
    sol = solve_maxeig(problem)
    gram = round_gram(problem, sol.G)
    assert gram == [[Fraction(1)]]


def test_gram_problem_index_growth():
    ctx = QuotientContext(LORENTZ)
    omega = bezoutian_of(ctx, LORENTZ.derivative(0))
    p0, basis0 = gram_problem(ctx, omega, 0)
    p1, basis1 = gram_problem(ctx, omega, 1)
    assert len(basis1) > len(basis0)
    # k=2 with d=2: power 0 carries |gamma|=2 (3 monomials), power 1 |gamma|=1 (2)
    assert len(basis1) == 3 + 2


# -- round_gram ---------------------------------------------------------------

def _diag_problem():
    m = 3
    cons = []
    for i in range(m):
        cons.append(({(i, i): Fraction(1)}, Fraction(2)))
    for i in range(m):
        for j in range(i + 1, m):
            cons.append(({(i, j): Fraction(1, 2), (j, i): Fraction(1, 2)}, Fraction(0)))
    return SdpProblem(m, cons)


def test_round_gram_projects_float_noise():
    problem = _diag_problem()
    g = np.diag([2 + 1e-9, 2 - 1e-9, 2.0])
    gram = round_gram(problem, g)
    assert gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


def test_round_gram_fixed_point_on_exact_input():
    problem = _diag_problem()
    gram = round_gram(problem, np.diag([2.0, 2.0, 2.0]))
    assert gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("bound", [2**8, 2**16, 10**6])
def test_round_gram_rounds_onto_one_grid(bound):
    # 0.7 and 1.3 land on grid points that sum to 2, so the trace constraint
    # has zero defect and the projection leaves every entry on the grid.
    problem = SdpProblem(2, [({(0, 0): Fraction(1), (1, 1): Fraction(1)}, Fraction(2))])
    g = np.array([[0.7, 0.3], [0.3, 1.3]])
    gram = round_gram(problem, g, bound)
    assert gram[0][0] + gram[1][1] == 2
    assert all(bound % x.denominator == 0 for row in gram for x in row)
    assert gram[0][1] == gram[1][0] == Fraction(round(Fraction(0.3) * bound), bound)


def test_round_gram_refuses_overlapping_supports():
    # G00 + G11 = 2 and G00 = 1 share the position (0, 0).  The one-division
    # projection is only orthogonal for disjoint supports; here it misses the
    # trace constraint, and the exact re-check must refuse, not return it.
    cons = [
        ({(0, 0): Fraction(1), (1, 1): Fraction(1)}, Fraction(2)),
        ({(0, 0): Fraction(1)}, Fraction(1)),
        ({(0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}, Fraction(0)),
    ]
    problem = SdpProblem(2, cons)
    with pytest.raises(RoundingFailed):
        round_gram(problem, np.diag([1.25, 0.875]))


def test_round_gram_returns_projection_without_pd_test():
    # Positive definiteness is decided by the one LDL^T in
    # find_sos_decomposition, not by round_gram.
    problem = SdpProblem(1, [({(0, 0): Fraction(1)}, Fraction(-1))])
    gram = round_gram(problem, np.array([[1.0]]))
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
    assert [(v.coeffs[0], v.coeffs[1]) for v in dec.vectors] == expected
    assert dec.gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("status", [MAX_ITERATIONS, INFEASIBLE])
def test_positive_margin_iterate_is_accepted_whatever_its_status(monkeypatch, status):
    # The solver status does not gate rounding: a positive-margin iterate is
    # rounded, and the one exact LDL^T accepts its PD projection at ell=0.
    def solve(problem, tol):
        return dataclasses.replace(solve_maxeig(problem, tol=tol), status=status)

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    dec = find_sos_decomposition(QuotientContext(LORENTZ))
    assert dec.ell == 0
    assert dec.gram == [[Fraction(2 * (i == j)) for j in range(3)] for i in range(3)]


def test_positive_margin_iterate_with_non_pd_projection_is_refused(monkeypatch):
    # The rows of x0^2 + x1^2 at ell=0 force a Gram matrix that is not PD;
    # a positive margin claimed by the solver does not get it past the LDL.
    def solve(problem, tol):
        return SdpSolution(G=np.eye(problem.m), t=1.0, residual=0.0, status=MAX_ITERATIONS)

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    with pytest.raises(Exhausted) as info:
        find_sos_decomposition(QuotientContext(P("x0^2 + x1^2")), ell_max=0)
    assert str(info.value).count("ell=0: projected rational matrix is not PD") == 4


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
def test_level_without_margin_is_recorded_once_and_not_rounded(monkeypatch, t):
    rounded = []

    def solve(problem, tol):
        return SdpSolution(G=np.eye(problem.m), t=t, residual=0.0, status=OPTIMAL)

    def counted(*args):
        rounded.append(args)
        return round_gram(*args)

    monkeypatch.setattr(hyperdet.sos, "solve_maxeig", solve)
    monkeypatch.setattr(hyperdet.sos, "round_gram", counted)
    with pytest.raises(Exhausted) as info:
        find_sos_decomposition(QuotientContext(LORENTZ), ell_max=1)
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


def test_linear_decomposition():
    ctx = QuotientContext(P("x0 - x1"))
    dec = find_sos_decomposition(ctx)
    assert dec.ell == 0 and dec.k == 0
    assert dec.weights == [Fraction(1)]
    assert dec.vectors[0].coeffs == (Poly.one(2),)


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
        # Exact replay of multiplier * omega0 = sum_i d_i u_i (x) u_i.
        for a in range(ctx.d):
            for b in range(ctx.d):
                acc = Poly.zero(ctx.nvars)
                for w, u in zip(dec.weights, dec.vectors):
                    acc = acc + u.coeffs[a] * u.coeffs[b] * w
                assert acc == dec.multiplier * omega.entry(a, b)
        basis = monomial_basis_Mk(ctx, dec.k)
        index = {(g.basis_power, g.r_monomial): col for col, g in enumerate(basis)}
        rows = []
        for u in dec.vectors:
            row = [Fraction(0)] * len(basis)
            for power, coeff_poly in enumerate(u.coeffs):
                for mono, c in coeff_poly.terms():
                    row[index[(power, mono)]] = c
            rows.append(row)
        assert rational_rank(rows) == len(basis)
        assert is_bezoutian(ctx, omega.scaled(dec.multiplier).entries)


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
        index = {(g.basis_power, g.r_monomial): col for col, g in enumerate(basis)}
        coords = [[Fraction(0)] * len(dec.vectors) for _ in range(len(basis))]
        for col, u in enumerate(dec.vectors):
            for power, coeff_poly in enumerate(u.coeffs):
                for mono, c in coeff_poly.terms():
                    coords[index[(power, mono)]][col] = c
        for g_up in monomial_basis_Mk(ctx, dec.k + 1):
            mono = g_up.r_monomial
            s = next(i for i in range(1, nvars) if mono[i] > 0)
            lowered = tuple(e - (1 if i == s else 0) for i, e in enumerate(mono))
            target = [Fraction(0)] * len(basis)
            target[index[(g_up.basis_power, lowered)]] = Fraction(1)
            combo = solve_sparse_system(
                [{col: c for col, c in enumerate(row) if c} for row in coords],
                target,
                len(dec.vectors),
            )
            assert combo is not None
            rebuilt = [Poly.zero(nvars) for _ in range(ctx.d)]
            xs = Poly.variable(nvars, s)
            for coeff, u in zip(combo, dec.vectors):
                if coeff:
                    for power in range(ctx.d):
                        rebuilt[power] = rebuilt[power] + u.coeffs[power] * coeff * xs
            expected = [Poly.zero(nvars) for _ in range(ctx.d)]
            expected[g_up.basis_power] = Poly.monomial(mono, 1)
            assert rebuilt == expected


def test_power_sum_multiplier():
    ctx = QuotientContext(LORENTZ)
    assert power_sum_multiplier(ctx, 0) == Poly.one(3)
    assert power_sum_multiplier(ctx, 1) == P("x1^2 + x2^2", 3)
    assert power_sum_multiplier(ctx, 2) == P("x1^4 + 2*x1^2*x2^2 + x2^4", 3)
