"""Exact rational linear algebra kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdet import linalg
from hyperdet.errors import NotPD
from hyperdet.linalg import ldl_decompose, nullspace, solve_sparse_system

from conftest import rational_rank
from oracles import (
    bareiss_determinant,
    fraction_ldl_decompose,
    fraction_solve_sparse_system,
    is_positive_definite,
    leading_principal_minors,
)


def F(x, y=1):
    return Fraction(x, y)


def random_matrix(rng, rows, cols):
    return [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]


def naive_determinant(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += sign * mat[0][j] * naive_determinant(minor)
        sign = -sign
    return total


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        assert bareiss_determinant(mat) == naive_determinant(mat)


def test_bareiss_zero_column():
    assert bareiss_determinant([[0, 1], [0, 2]]) == 0


@pytest.mark.parametrize("matrix, det", [
    ([], 1),
    ([[-7]], -7),
    ([[0, 1], [1, 0]], -1),  # a zero diagonal: the congruence, new pivot 2
    ([[0, 1, 2], [1, 0, 3], [2, 3, -8]], 20),  # the first nonzero diagonal entry is two down
    ([[-1, 1, 1], [1, -1, 0], [1, 0, 5]], 1),  # the stage-1 pivot vanishes: a later swap
    ([[1, 2], [2, 4]], 0),
    ([[1, 2, 3], [2, 5, 7], [3, 7, 10]], 0),  # singular: only the last entry vanishes
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], 0),  # a zero diagonal and a zero column
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], 12),  # a zero diagonal: the congruence
    ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], -1),  # the congruence at stage 1
])
def test_integer_bareiss_on_swaps_and_singular_matrices(matrix, det):
    assert all(row == list(col) for row, col in zip(matrix, zip(*matrix)))
    assert linalg.bareiss_determinant(_lower(matrix)) == det == bareiss_determinant(matrix)


def _lower(matrix):
    return [row[:i + 1] for i, row in enumerate(matrix)]


def _symmetric(n, entries):
    """The n x n symmetric matrix whose lower triangle is read row by row from entries."""
    rows = [entries[i * (i + 1) // 2:(i + 1) * (i + 2) // 2] for i in range(n)]
    return [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 2**70]),
    min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(lambda entries: _symmetric(n, entries))))
def test_integer_bareiss_matches_the_oracle(matrix):
    # Zeros are drawn often, so many matrices need a symmetric swap or the
    # congruence, or are singular.
    assert linalg.bareiss_determinant(_lower(matrix)) == bareiss_determinant(matrix)


def test_integer_bareiss_requires_a_square_matrix():
    # The kernel reads the lower triangle of a square matrix: row i has
    # i + 1 entries.
    for malformed in ([[1, 2], [3, 4], [5, 6]], [[1], [2]], [[1, 2], [3, 4]]):
        with pytest.raises(ValueError):
            linalg.bareiss_determinant(malformed)


def test_leading_principal_minors():
    mat = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    assert leading_principal_minors(mat) == [F(2), F(3), F(4)]


def test_sparse_solver_matches_substitution_on_square_systems():
    rng = random.Random(3)
    done = 0
    while done < 10:
        n = rng.randint(1, 5)
        mat = random_matrix(rng, n, n)
        if bareiss_determinant(mat) == 0:
            continue
        x_true = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        b = [sum(mat[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        rows = [{j: c for j, c in enumerate(row) if c} for row in mat]
        values = solve_sparse_system(rows, b, n)
        assert values is not None
        assert values == x_true
        done += 1


def test_sparse_solver_satisfies_equations():
    rng = random.Random(4)
    for _ in range(20):
        unknowns = rng.randint(2, 8)
        n_rows = rng.randint(1, 10)
        x_true = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(unknowns)]
        rows = []
        rhs = []
        for _ in range(n_rows):
            row = {
                j: F(rng.randint(-3, 3))
                for j in rng.sample(range(unknowns), rng.randint(1, unknowns))
            }
            row = {j: c for j, c in row.items() if c}
            rows.append(row)
            rhs.append(sum(c * x_true[j] for j, c in row.items()))
        values = solve_sparse_system(rows, rhs, unknowns)
        assert values is not None
        for row, target in zip(rows, rhs):
            assert sum(c * values[j] for j, c in row.items()) == target


def test_sparse_solver_zeroes_free_unknowns():
    # One equation in three unknowns: x0 + x1 + x2 = 6; x1, x2 free -> 0.
    values = solve_sparse_system([{0: F(1), 1: F(1), 2: F(1)}], [F(6)], 3)
    assert values is not None
    assert values == [F(6), F(0), F(0)]


def test_sparse_solver_detects_inconsistency():
    rows = [{0: F(1), 1: F(1)}, {0: F(2), 1: F(2)}]
    values = solve_sparse_system(rows, [F(1), F(3)], 2)
    assert values is None


_ENTRIES = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def sparse_systems(draw):
    """Sparse rows with int or Fraction entries, explicit zeros and empty
    rows among them; some rows combine earlier ones, so the rank may fall
    short, and the right-hand side is A*x for a drawn x, or drawn itself,
    which makes most overdetermined systems inconsistent."""
    unknowns = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            ca, cb = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append({c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in {*a, *b}})
        else:
            rows.append(draw(st.dictionaries(st.integers(0, unknowns - 1), _ENTRIES,
                                             max_size=unknowns)))
    if draw(st.booleans()):
        x = draw(st.lists(_ENTRIES, min_size=unknowns, max_size=unknowns))
        rhs = [sum((v * x[c] for c, v in row.items()), 0) for row in rows]
    else:
        rhs = draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
    return rows, rhs, unknowns


@settings(max_examples=400, deadline=None)
@given(sparse_systems())
def test_sparse_solver_matches_the_fraction_solver(system):
    # Integer elimination returns the rational elimination's solution, free
    # unknowns at zero, or None for the same inconsistent systems.
    assert solve_sparse_system(*system) == fraction_solve_sparse_system(*system)


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_sparse_solver_ignores_the_row_order(system, rng):
    rows, rhs, unknowns = system
    order = list(range(len(rows)))
    rng.shuffle(order)
    permuted = solve_sparse_system([rows[i] for i in order], [rhs[i] for i in order], unknowns)
    assert permuted == solve_sparse_system(rows, rhs, unknowns)


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.data())
def test_sparse_solver_scaling_a_column_divides_its_unknown(system, data):
    # The lift relies on this: positive column scalings keep the pivot
    # columns, so the solution with free unknowns at zero scales with them.
    rows, rhs, unknowns = system
    col = data.draw(st.integers(0, unknowns - 1))
    sigma = data.draw(st.fractions(min_value=Fraction(1, 9), max_value=9)
                      .filter(lambda f: f > 0))
    scaled = [{c: v * sigma if c == col else v for c, v in row.items()} for row in rows]
    values = solve_sparse_system(rows, rhs, unknowns)
    expected = None if values is None else [v / sigma if c == col else v
                                            for c, v in enumerate(values)]
    assert solve_sparse_system(scaled, rhs, unknowns) == expected


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_nullspace_is_the_reduced_echelon_kernel(system, rng):
    # Every vector solves the homogeneous rows, there are unknowns - rank of
    # them, and vector k is 1 at its own free unknown and 0 at the others',
    # which makes the basis independent and unique; the row order is moot.
    rows, _, unknowns = system
    basis = nullspace(rows, unknowns)
    for v in basis:
        assert len(v) == unknowns
        assert all(sum((c * v[j] for j, c in row.items()), Fraction(0)) == 0 for row in rows)
    dense = [[Fraction(row.get(j, 0)) for j in range(unknowns)] for row in rows]
    assert len(basis) == unknowns - rational_rank(dense)
    # An unknown is free when its column adds nothing to the rank of the
    # columns before it.
    free = [j for j in range(unknowns)
            if rational_rank([r[:j + 1] for r in dense]) == rational_rank([r[:j] for r in dense])]
    assert [[v[f] for f in free] for v in basis] == [
        [F(k == i) for k in range(len(free))] for i in range(len(free))]
    order = list(range(len(rows)))
    rng.shuffle(order)
    assert nullspace([rows[i] for i in order], unknowns) == basis


def test_nullspace_of_one_equation():
    # x0 + 2*x1 - x2 = 0: x1 and x2 are free.
    assert nullspace([{0: 1, 1: 2, 2: -1}], 3) == [(F(-2), F(1), F(0)), (F(1), F(0), F(1))]
    assert nullspace([], 2) == [(F(1), F(0)), (F(0), F(1))]
    assert nullspace([{0: F(1, 3)}, {1: 5}], 2) == []


def test_ldl_requires_symmetry_and_squareness():
    with pytest.raises(ValueError):
        ldl_decompose([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        ldl_decompose([[1, 0]])


def test_is_positive_definite():
    assert is_positive_definite([[2, 1], [1, 2]])
    assert not is_positive_definite([[1, 2], [2, 1]])
    assert not is_positive_definite([[0, 0], [0, 1]])


def test_ldl_rejects_indefinite():
    with pytest.raises(NotPD):
        ldl_decompose([[1, 2], [2, 1]])


_FRACTIONS = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@st.composite
def symmetric_rational_matrices(draw):
    """B^T diag(s) B for an r x n rational B and signs s: positive definite
    when r = n, B is invertible and every sign is +1, singular when r < n,
    indefinite when a sign is -1; denominators are mixed."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(0, n))
    signs = draw(st.lists(st.sampled_from([1, 1, 1, -1]), min_size=rank, max_size=rank))
    b = draw(st.lists(st.lists(_FRACTIONS, min_size=n, max_size=n), min_size=rank, max_size=rank))
    return [[sum((s * row[i] * row[j] for s, row in zip(signs, b)), Fraction(0)) for j in range(n)]
            for i in range(n)]


@st.composite
def symmetric_entries(draw):
    n = draw(st.integers(1, 5))
    upper = {(i, j): draw(_FRACTIONS) for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


def _ldl_outcome(decompose, matrix):
    try:
        return decompose(matrix)
    except NotPD as exc:
        return f"NotPD: {exc}"


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_rational_matrices(), symmetric_entries()))
def test_ldl_matches_the_fraction_ldl(matrix):
    # The fraction-free factorization gives the rational one's weights and
    # rows, or refuses at the same pivot with the same message.
    assert _ldl_outcome(ldl_decompose, matrix) == _ldl_outcome(fraction_ldl_decompose, matrix)


def test_ldl_matches_the_fraction_ldl_on_each_outcome():
    pd = [[Fraction(4), Fraction(1, 2), Fraction(1, 3)],
          [Fraction(1, 2), Fraction(3), Fraction(-1, 5)],
          [Fraction(1, 3), Fraction(-1, 5), Fraction(2)]]
    singular = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]]
    indefinite = [[Fraction(1, 3), Fraction(1)], [Fraction(1), Fraction(1, 7)]]
    d, rows = ldl_decompose(pd)
    assert (d, rows) == fraction_ldl_decompose(pd)
    for matrix, text in ((singular, "pivot at index 1 is zero"),
                         (indefinite, "pivot at index 1 is negative")):
        with pytest.raises(NotPD, match=text) as exc:
            ldl_decompose(matrix)
        assert _ldl_outcome(fraction_ldl_decompose, matrix) == f"NotPD: {exc.value}"
