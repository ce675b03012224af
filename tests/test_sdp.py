"""Dense max-min-eigenvalue SDP solver."""

from fractions import Fraction

import numpy as np
import pytest

from hyperdet.sdp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL, SdpProblem, solve_maxeig

from conftest import exact_row


def pin(i, j, value):
    """The constraint G_ij = G_ji = value as an exact row."""
    if i == j:
        return {(i, i): Fraction(1)}, Fraction(value)
    return {(i, j): Fraction(1, 2), (j, i): Fraction(1, 2)}, Fraction(value)


def test_single_entry_forced():
    sol = solve_maxeig(SdpProblem(1, [({(0, 0): Fraction(1)}, Fraction(5))]))
    assert sol.status == OPTIMAL
    assert abs(sol.G[0, 0] - 5.0) <= 1e-7
    assert abs(sol.t - 5.0) <= 1e-6


def test_fully_determined_identity():
    cons = [pin(0, 0, 1), pin(1, 1, 1), pin(0, 1, 0)]
    sol = solve_maxeig(SdpProblem(2, cons))
    assert sol.status == OPTIMAL
    assert np.max(np.abs(sol.G - np.eye(2))) <= 1e-7
    assert abs(sol.t - 1.0) <= 1e-6


def test_free_offdiagonal_maximized_at_zero():
    cons = [pin(0, 0, 1), pin(1, 1, 1)]
    sol = solve_maxeig(SdpProblem(2, cons))
    assert sol.status == OPTIMAL
    assert abs(sol.t - 1.0) <= 1e-6
    assert abs(sol.G[0, 1]) <= 1e-6


def test_optimal_solutions_satisfy_invariants():
    rng = np.random.default_rng(12)
    for _ in range(8):
        m = int(rng.integers(2, 16))
        r_mat = rng.standard_normal((m, m))
        gstar = r_mat.T @ r_mat + np.eye(m)
        cons = [exact_row(np.eye(m), np.trace(gstar))]
        for _ in range(int(rng.integers(1, m + 1))):
            a = rng.standard_normal((m, m))
            a = 0.5 * (a + a.T)
            cons.append(exact_row(a, np.sum(a * gstar)))
        sol = solve_maxeig(SdpProblem(m, cons))
        assert sol.status == OPTIMAL
        assert sol.residual <= 1e-8
        assert sol.t >= 1 - 1e-6
        assert np.linalg.eigvalsh(sol.G)[0] >= sol.t - 1e-8


def test_deterministic_iterates():
    cons = [pin(0, 0, 2), pin(1, 1, 3), pin(2, 2, 4), pin(0, 1, 1)]
    a = solve_maxeig(SdpProblem(3, cons))
    b = solve_maxeig(SdpProblem(3, cons))
    assert a.status == b.status == OPTIMAL
    assert np.array_equal(a.G, b.G)
    assert a.t == b.t
    assert a.iterations == b.iterations


def test_infeasible_diverges():
    # G_00 = 1 and G_00 = 2 cannot both hold.
    cons = [pin(0, 0, 1), pin(0, 0, 2)]
    sol = solve_maxeig(SdpProblem(2, cons), max_iter=100)
    assert sol.status in (INFEASIBLE, MAX_ITERATIONS)
    assert sol.status != OPTIMAL


def test_traceless_constraints_reported_unbounded():
    sol = solve_maxeig(SdpProblem(2, [({(0, 1): Fraction(1), (1, 0): Fraction(1)}, Fraction(0))]))
    assert sol.status == MAX_ITERATIONS
    assert "unbounded" in sol.detail


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        SdpProblem(2, [])
    with pytest.raises(ValueError):
        SdpProblem(2, [({(0, 1): Fraction(1)}, Fraction(1))])
    with pytest.raises(ValueError):
        SdpProblem(2, [({(0, 2): Fraction(1), (2, 0): Fraction(1)}, Fraction(1))])
    with pytest.raises(ValueError):
        solve_maxeig(SdpProblem(1, [({(0, 0): Fraction(1)}, Fraction(1))]), tol=0.0)
