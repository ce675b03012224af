"""Dense max-min-eigenvalue SDP solver."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperdet.quotient import QuotientContext, bezoutian_of
from hyperdet.sdp import (
    INFEASIBLE,
    MAX_ITERATIONS,
    OPTIMAL,
    _max_step,
    _schur_matrix,
    solve_maxeig,
)
from hyperdet.sos import SdpProblem, gram_problem, power_sum_multiplier

from conftest import random_pencil_determinant
from oracles import frobenius_representer


def pinned(m, *pins):
    """The constraints G_ij = G_ji = value of pins (i, j, value), as the
    solver's float stack and right-hand side: 1/2 at (i, j) and at (j, i)."""
    a_stack = np.zeros((len(pins), m, m))
    for k, (i, j, _) in enumerate(pins):
        a_stack[k, i, j] += 0.5
        a_stack[k, j, i] += 0.5
    return a_stack, np.array([float(value) for *_, value in pins])


def test_single_entry_forced():
    sol = solve_maxeig(np.ones((1, 1, 1)), np.array([5.0]))
    assert sol.status == OPTIMAL
    assert abs(sol.G[0, 0] - 5.0) <= 1e-7
    assert abs(sol.t - 5.0) <= 1e-6


def test_fully_determined_identity():
    sol = solve_maxeig(*pinned(2, (0, 0, 1), (1, 1, 1), (0, 1, 0)))
    assert sol.status == OPTIMAL
    assert np.max(np.abs(sol.G - np.eye(2))) <= 1e-7
    assert abs(sol.t - 1.0) <= 1e-6


def test_free_offdiagonal_maximized_at_zero():
    sol = solve_maxeig(*pinned(2, (0, 0, 1), (1, 1, 1)))
    assert sol.status == OPTIMAL
    assert abs(sol.t - 1.0) <= 1e-6
    assert abs(sol.G[0, 1]) <= 1e-6


def test_optimal_solutions_satisfy_invariants():
    rng = np.random.default_rng(12)
    for _ in range(8):
        m = int(rng.integers(2, 16))
        r_mat = rng.standard_normal((m, m))
        gstar = r_mat.T @ r_mat + np.eye(m)
        mats, rhs = [np.eye(m)], [np.trace(gstar)]
        for _ in range(int(rng.integers(1, m + 1))):
            a = rng.standard_normal((m, m))
            a = 0.5 * (a + a.T)
            mats.append(a)
            rhs.append(np.sum(a * gstar))
        sol = solve_maxeig(np.array(mats), np.array(rhs))
        assert sol.status == OPTIMAL
        assert sol.residual <= 1e-8
        assert sol.t >= 1 - 1e-6
        assert np.linalg.eigvalsh(sol.G)[0] >= sol.t - 1e-8


def test_deterministic_iterates():
    pins = [(0, 0, 2), (1, 1, 3), (2, 2, 4), (0, 1, 1)]
    a = solve_maxeig(*pinned(3, *pins))
    b = solve_maxeig(*pinned(3, *pins))
    assert a.status == b.status == OPTIMAL
    assert np.array_equal(a.G, b.G)
    assert a.t == b.t
    assert a.iterations == b.iterations


def test_infeasible_diverges():
    # G_00 = 1 and G_00 = 2 cannot both hold.
    sol = solve_maxeig(*pinned(2, (0, 0, 1), (0, 0, 2)))
    assert sol.status in (INFEASIBLE, MAX_ITERATIONS)
    assert sol.status != OPTIMAL


def test_traceless_constraints_reported_unbounded():
    sol = solve_maxeig(np.array([[[0.0, 1.0], [1.0, 0.0]]]), np.array([0.0]))
    assert sol.status == MAX_ITERATIONS
    assert "unbounded" in sol.detail


_BAD_PROBLEMS = [
    (2, []),
    (0, [({(0, 0): 1}, Fraction(1))]),
    # A position below the diagonal, or outside the matrix.
    (2, [({(1, 0): 1}, Fraction(1))]),
    (2, [({(0, 2): 1}, Fraction(1))]),
    (2, [({(-1, 0): 1}, Fraction(1))]),
    # Counts that are not positive ints.
    (2, [({(0, 1): 0}, Fraction(1))]),
    (2, [({(0, 1): -1}, Fraction(1))]),
    (2, [({(0, 1): Fraction(1, 2)}, Fraction(1))]),
    (2, [({(0, 1): Fraction(1)}, Fraction(1))]),
    (2, [({(0, 1): 1.0}, Fraction(1))]),
    (2, [({(0, 1): True}, Fraction(1))]),
    # An empty row, and two rows on one position.
    (2, [({}, Fraction(0))]),
    (2, [({(0, 0): 1}, Fraction(1)), ({}, Fraction(0))]),
    (2, [({(0, 0): 1, (1, 1): 1}, Fraction(2)), ({(0, 0): 1}, Fraction(1))]),
    (2, [({(0, 1): 1}, Fraction(0)), ({(0, 1): 2}, Fraction(0))]),
]


def test_rejects_bad_inputs():
    for m, constraints in _BAD_PROBLEMS:
        with pytest.raises(ValueError):
            SdpProblem(m, constraints)


# -- per-iteration linear algebra ---------------------------------------------

def test_schur_matrix_is_the_scaled_constraint_pairing():
    # S_kl = <A_k, W A_l W>, summed over the exact sparse rows of a Gram problem.
    h = random_pencil_determinant(random.Random(3001), 3, 3)
    ctx = QuotientContext(h)
    omega = bezoutian_of(ctx, h.derivative(0))
    problem, _ = gram_problem(ctx, omega, 1, power_sum_multiplier(ctx, 1))
    m, p = problem.m, len(problem.constraints)
    reps = [frobenius_representer(row) for row, _ in problem.constraints]
    a_stack = np.zeros((p, m, m))
    for k, rep in enumerate(reps):
        for (a, b), weight in rep.items():
            a_stack[k, a, b] = float(weight)
    g = np.random.default_rng(5).standard_normal((m, m)) + m * np.eye(m)
    w = g @ g.T
    expected = np.array([[sum(float(wk) * float(wl) * w[a, c] * w[d, b]
                              for (a, b), wk in rep_k.items() for (c, d), wl in rep_l.items())
                          for rep_l in reps]
                         for rep_k in reps])
    schur = _schur_matrix(a_stack, g)
    assert np.array_equal(schur, schur.T)
    assert np.max(np.abs(schur - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_max_step_from_the_inverse_cholesky_factor():
    rng = np.random.default_rng(8)
    for m in (1, 2, 5, 9):
        r = rng.standard_normal((m, m))
        mat = r @ r.T + 0.1 * np.eye(m)
        inv_chol = np.linalg.inv(np.linalg.cholesky(mat))
        delta = rng.standard_normal((m, m))
        delta = delta + delta.T - 3.0 * np.eye(m)
        lam_min = float(np.min(np.linalg.eigvals(np.linalg.solve(mat, delta)).real))
        assert lam_min < 0
        assert _max_step(inv_chol, delta) == pytest.approx(-1.0 / lam_min, rel=1e-9)
        assert _max_step(inv_chol, r @ r.T) == math.inf


def test_each_matrix_is_factored_once_per_iteration(monkeypatch):
    # m = 5 and p = 8, so the p x p Schur matrix is told apart from the
    # m x m iterates by its shape.
    rng = np.random.default_rng(21)
    m = 5
    r_mat = rng.standard_normal((m, m))
    gstar = r_mat.T @ r_mat + np.eye(m)
    mats, rhs = [np.eye(m)], [np.trace(gstar)]
    for _ in range(7):
        a = rng.standard_normal((m, m))
        a = 0.5 * (a + a.T)
        mats.append(a)
        rhs.append(np.sum(a * gstar))
    p = len(mats)
    calls = {"cholesky": [], "inv": [], "solve": []}
    for name, record in calls.items():
        original = getattr(np.linalg, name)

        def spy(mat, *rest, original=original, record=record):
            record.append(np.shape(mat))
            return original(mat, *rest)
        monkeypatch.setattr(np.linalg, name, spy)
    sol = solve_maxeig(np.array(mats), np.array(rhs))
    assert sol.status == OPTIMAL and sol.iterations > 5
    assert (p, p) not in calls["solve"]
    # One Cholesky factor and its inverse per iteration, plus one of each
    # for the constraint Gram matrix that polishes primal feasibility.
    assert calls["cholesky"].count((p, p)) == sol.iterations + 1
    assert calls["inv"].count((p, p)) == sol.iterations + 1
    # x and s are factored once each, when their step is accepted.
    assert calls["cholesky"].count((m, m)) == 2 * sol.iterations
