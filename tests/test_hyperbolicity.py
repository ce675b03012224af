"""Sturm counting, sampled hyperbolicity verdicts, PD witness checks."""

import random
from fractions import Fraction
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperdet import (
    DirectionVanishes,
    InputError,
    ZeroPolynomial,
    check_hyperbolic_sampled,
    hyperbolicity,
    parse_poly,
)
from hyperdet.hyperbolicity import (
    HYPERBOLIC_SAMPLED,
    NOT_HYPERBOLIC,
    _sturm_walk,
    is_real_rooted,
    lineality_space,
    pd_witness_check,
    root_counts,
    sample_directions,
)
from hyperdet.poly import Poly, apply_linear, normalize_direction
from hyperdet.quotient import QuotientContext, bezoutian_of, integer_forms, restriction

from conftest import random_fraction, random_homogeneous, random_pencil_determinant, renegar_derivative
from oracles import (
    UniPoly,
    bareiss_determinant,
    count_real_roots,
    evaluate_form,
    fraction_root_counts,
    fraction_sturm_chain,
    is_positive_definite,
    randint_sample_directions,
    substitute_line,
)


def P(text, nvars=None):
    return parse_poly(text, nvars)


def rational_samples(dim, count, seed):
    """The sample stream as rational points u/q."""
    return [tuple(Fraction(c, q) for c in u) for u, q in sample_directions(dim, count, seed)]


def integer_sample(v):
    """A rational point v as the (u, q) pair sample_directions yields."""
    q = lcm(*(Fraction(c).denominator for c in v))
    return tuple(int(Fraction(c) * q) for c in v), q


# -- count_real_roots ----------------------------------------------------------

def test_count_two_real():
    assert count_real_roots(UniPoly([-1, 0, 1])) == 2


def test_count_complex_pair():
    assert count_real_roots(UniPoly([1, 0, 1])) == 0


def test_count_three_real():
    assert count_real_roots(UniPoly([0, -1, 0, 1])) == 3


def test_count_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        count_real_roots(UniPoly([]))


def test_count_distinct_roots_of_random_products():
    rng = random.Random(13)
    pool = sorted({Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3)})
    for _ in range(30):
        k = rng.randint(1, 6)
        roots = rng.sample(pool, k)
        f = UniPoly([1])
        for r in roots:
            f = f * UniPoly([-r, 1])
        assert count_real_roots(f) == k


# -- is_real_rooted -------------------------------------------------------------

def test_real_rooted_with_multiplicity():
    # (t-1)^2 (t+2)
    f = UniPoly([-1, 1]) * UniPoly([-1, 1]) * UniPoly([2, 1])
    assert is_real_rooted(f.coeffs)


def test_not_real_rooted_complex():
    assert not is_real_rooted(UniPoly([1, 0, 1]).coeffs)


def test_quartic_mixed_roots():
    assert not is_real_rooted(UniPoly([-1, 0, 0, 0, 1]).coeffs)


def test_constant_is_real_rooted():
    assert is_real_rooted(UniPoly([5]).coeffs)


# -- check_hyperbolic_sampled ----------------------------------------------------

def test_lorentz_sampled_hyperbolic():
    verdict = check_hyperbolic_sampled(P("x0^2 - x1^2 - x2^2"), (1, 0, 0))
    assert verdict.status == HYPERBOLIC_SAMPLED
    assert verdict.witness is None
    assert verdict.samples_used == 64


def test_definite_quadric_refused_with_unit_witness():
    verdict = check_hyperbolic_sampled(P("x0^2 + x1^2"), (1, 0))
    assert verdict.status == NOT_HYPERBOLIC
    assert verdict.witness == (Fraction(0), Fraction(1))
    restriction = substitute_line(P("x0^2 + x1^2"), (1, 0), verdict.witness)
    assert not is_real_rooted(restriction.coeffs)


def test_product_of_coordinates_hyperbolic():
    verdict = check_hyperbolic_sampled(P("x0*x1"), (1, 1))
    assert verdict.status == HYPERBOLIC_SAMPLED


def test_direction_vanishes_rejected():
    with pytest.raises(DirectionVanishes):
        check_hyperbolic_sampled(P("x0^2", 2), (0, 1))


def test_pencil_determinants_never_refused():
    rng = random.Random(19)
    for _ in range(8):
        nvars = rng.randint(2, 4)
        d = rng.randint(1, 3)
        h = random_pencil_determinant(rng, nvars, d)
        e = (1,) + (0,) * (nvars - 1)
        verdict = check_hyperbolic_sampled(h, e, num_samples=32, seed=3)
        assert verdict.status == HYPERBOLIC_SAMPLED, str(h)


@pytest.mark.parametrize("num_samples,message", [
    (0, "num_samples must be positive, got 0"),
    (-3, "num_samples must be positive, got -3"),
    (2.5, "num_samples must be an int, got 2.5"),
    (True, "num_samples must be an int, got True"),
    ("4", "num_samples must be an int, got '4'"),
])
def test_sampled_checks_reject_a_sample_count_that_is_not_a_positive_int(num_samples, message):
    # With no line sampled, a definite form that fails at sample 3 and a
    # singular quadric that fails at sample 3 would both pass.
    with pytest.raises(InputError) as info:
        check_hyperbolic_sampled(P("x0^2 + x1^2"), (1, 0), num_samples=num_samples)
    assert str(info.value) == message
    with pytest.raises(InputError) as info:
        pd_witness_check(QuotientContext(P("x0^2 - x1^2", 3)), num_samples)
    assert str(info.value) == message


@pytest.mark.parametrize("num_samples", [10_001, 10**23])
def test_sampled_checks_refuse_a_sample_count_past_the_bound(num_samples):
    # Each sample costs one line's root count, so an unbounded count is an
    # unbounded run.  The bound itself is admitted: the definite form still
    # fails at sample 3, and the singular quadric at its lineality line.
    message = f"num_samples must be at most 10000, got {num_samples}"
    with pytest.raises(InputError, match=message):
        check_hyperbolic_sampled(P("x0^2 + x1^2"), (1, 0), num_samples=num_samples)
    with pytest.raises(InputError, match=message):
        pd_witness_check(QuotientContext(P("x0^2 - x1^2", 3)), num_samples)
    verdict = check_hyperbolic_sampled(P("x0^2 + x1^2"), (1, 0), num_samples=10_000)
    assert (verdict.status, verdict.samples_used) == (NOT_HYPERBOLIC, 3)
    report = pd_witness_check(QuotientContext(P("x0^2 - x1^2", 3)), 10_000)
    assert (report.ok, report.samples_used) == (False, 1)


def test_sample_stream_units_first_then_deterministic():
    first = rational_samples(2, 6, seed=9)
    again = rational_samples(2, 6, seed=9)
    assert first == again
    assert first[:4] == [
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    ]
    assert all(any(c != 0 for c in v) for v in first)


@pytest.mark.parametrize("dim", range(1, 7))
def test_sample_stream_is_the_randint_stream(dim):
    # getrandbits with randint's rejection rule draws randint's values, so
    # every random draw of the stream is pinned, not only its unit vectors.
    for seed in range(10):
        assert list(sample_directions(dim, 200, seed)) == list(randint_sample_directions(dim, 200, seed))


# -- pd_witness_check -------------------------------------------------------------

def test_pd_witness_lorentz():
    report = pd_witness_check(QuotientContext(P("x0^2 - x1^2 - x2^2")))
    assert report.ok and report.witness is None


def test_pd_witness_detects_singular_quadric():
    report = pd_witness_check(QuotientContext(P("x0^2 - x1^2", 3)))
    assert not report.ok
    assert report.witness == (Fraction(0), Fraction(1))


def test_pd_witness_linear():
    # A linear h is a cylinder, and its lineality line, tested before the 64
    # samples, has d = 1 distinct root: no refusal, and every sample runs.
    h = P("x0 - x1")
    assert lineality_space(h) == [(1, 1)]
    report = pd_witness_check(QuotientContext(h))
    assert report.ok and report.witness is None
    assert report.samples_used == 64 + 1


def test_cylinder_is_refused_at_its_lineality_line_before_any_sample():
    # The rank-deficient 4-variable quadric of the CLI's cylinder test:
    # one line, the exact lineality line, is restricted and read, and the
    # sample stream is never drawn from.
    h = P("x0^2 + x0*x1 + 1/2*x0*x2 - 3*x0*x3 - 3*x1^2 - 9/2*x1*x2 - 4*x2^2"
          " - 1/2*x2*x3 + 2*x3^2")
    ctx = QuotientContext(normalize_direction(h, (1, 0, 0, 0))[0])
    lines = []

    def spy(forms, u):
        lines.append(tuple(u))
        return restriction(forms, u)

    def no_samples(*args):
        raise AssertionError("sample_directions was called")

    with patch.object(hyperbolicity, "restriction", spy), \
            patch.object(hyperbolicity, "sample_directions", no_samples):
        report = pd_witness_check(ctx)
    assert lines == [(4, -2, 11)]
    assert not report.ok
    assert report.witness == (Fraction(4, 11), Fraction(-2, 11), Fraction(1))
    assert report.samples_used == 1


def test_pd_witness_implies_real_rooted_restrictions():
    # Positive definiteness of the evaluated form at v certifies simple real
    # roots of the restriction; cross-check both paths.
    rng = random.Random(29)
    for _ in range(10):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 3)
        h = random_pencil_determinant(rng, nvars, d)
        ctx = QuotientContext(h)
        omega = bezoutian_of(ctx, ctx.h.derivative(0))
        e = (1,) + (0,) * (nvars - 1)
        for v in rational_samples(nvars - 1, 8, seed=5):
            if is_positive_definite(evaluate_form(omega, v)):
                restriction = substitute_line(ctx.h, e, (0,) + tuple(v))
                assert is_real_rooted(restriction.coeffs)
                assert count_real_roots(restriction) == restriction.degree  # simple roots


# -- lineality_space -------------------------------------------------------------

def _assert_lineality(h, basis, rng):
    # Each vector is a direction of constancy: sum_i v_i dh/dx_i is the zero
    # polynomial, and h(p + v) = h(p) at rational points p.
    for v in basis:
        directional = sum((h.derivative(i) * c for i, c in enumerate(v)), Poly.zero(h.nvars))
        assert directional == Poly.zero(h.nvars), (str(h), v)
        for _ in range(3):
            point = [random_fraction(rng) for _ in range(h.nvars)]
            assert h.evaluate([a + b for a, b in zip(point, v)]) == h.evaluate(point)


def _random_invertible(rng, size):
    while True:
        mat = [[random_fraction(rng) for _ in range(size)] for _ in range(size)]
        if bareiss_determinant(mat) != 0:
            return mat


def test_lineality_of_padded_variables_is_their_unit_vectors():
    h = P("x0^2 - x1^2 - x2^2", 5)
    basis = lineality_space(h)
    assert basis == [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
    _assert_lineality(h, basis, random.Random(3))


@pytest.mark.parametrize("text,kept", [("x0^2 - x1^2 - x2^2", 3), ("x0^2 - x1^2", 2)])
def test_lineality_follows_a_change_of_coordinates(text, kept):
    # h(y) = h0(A*y) is constant along v exactly when h0 is constant along
    # A*v, so A maps the basis into the span of h0's unused variables; a
    # 4-variable quadric with a 2-dimensional space is like hv4d2-11.
    rng = random.Random(17)
    h0 = P(text, 4)
    for _ in range(3):
        a = _random_invertible(rng, 4)
        h = apply_linear(h0, a)
        basis = lineality_space(h)
        assert len(basis) == 4 - kept
        _assert_lineality(h, basis, rng)
        for v in basis:
            image = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]
            assert image[:kept] == [0] * kept


def test_lineality_of_a_pencil_with_dependent_matrices():
    # I, B1..B4 are five vectors in the 3-dimensional space of symmetric
    # 2x2 matrices, so the space has dimension at least 2; for these draws,
    # exactly 2.
    rng = random.Random(8)
    h = random_pencil_determinant(rng, 5, 2)
    basis = lineality_space(h)
    assert len(basis) == 2
    _assert_lineality(h, basis, rng)


def test_random_hv_inputs_have_no_lineality():
    rng = random.Random(23)
    for d in (2, 2, 3, 3, 4):
        assert lineality_space(random_pencil_determinant(rng, 3, d)) == []


# -- the integer Sturm chain and the one restriction, against the oracles ------

def _sign(c):
    return (c > 0) - (c < 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                       st.integers(min_value=1, max_value=3)), min_size=1, max_size=4),
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=0, max_size=3),
    st.fractions(min_value=-50, max_value=50, max_denominator=9).filter(lambda c: c != 0),
)
def test_integer_chain_has_the_signs_of_the_rational_chain(roots, extra, scale):
    # Rational roots with multiplicities, times a factor with arbitrary
    # (possibly complex) roots: every integer chain entry is a positive
    # multiple of the Euclidean chain's entry, coefficient by coefficient.
    f = UniPoly([scale])
    for root, multiplicity in roots:
        for _ in range(multiplicity):
            f = f * UniPoly([-root, 1])
    f = f * UniPoly(list(extra) + [1])
    integer_chain = list(_sturm_walk(f.coeffs))
    rational_chain = fraction_sturm_chain(f)
    assert len(integer_chain) == len(rational_chain)
    for entry, oracle in zip(integer_chain, rational_chain):
        assert all(isinstance(c, int) for c in entry)
        assert [_sign(c) for c in entry] == [_sign(c) for c in oracle.coeffs]


_ROOT = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(_ROOT, st.integers(min_value=1, max_value=3)), max_size=4),
    st.lists(st.tuples(_ROOT, _ROOT.filter(lambda c: c > 0), st.integers(min_value=1, max_value=2)),
             max_size=2),
    st.fractions(min_value=-30, max_value=30, max_denominator=5).filter(lambda c: c != 0),
)
@example([], [], Fraction(-3))
@example([], [], Fraction(7, 2))
@example([(Fraction(2), 1)], [], Fraction(-1))
@example([(Fraction(-1, 3), 1)], [], Fraction(5))
@example([], [(Fraction(0), Fraction(1), 2)], Fraction(-2))
def test_one_pass_counts_are_the_euclidean_chain_counts(real, complex_pairs, lead):
    # f = lead * prod (t - r)^m * prod ((t - a)^2 + b^2)^m: real roots with
    # multiplicities, conjugate pairs (repeated too), a leading coefficient
    # of either sign, and degrees 0 and 1 among the examples.  The one-pass
    # counter gives the (distinct real, distinct complex) counts of the
    # rational Euclidean chain, which are those of the construction.
    f = UniPoly([lead])
    for root, multiplicity in real:
        for _ in range(multiplicity):
            f = f * UniPoly([-root, 1])
    for a, b, multiplicity in complex_pairs:
        for _ in range(multiplicity):
            f = f * UniPoly([a * a + b * b, -2 * a, 1])
    distinct_real = len({root for root, _ in real})
    expected = (distinct_real, distinct_real + 2 * len({(a, b) for a, b, _ in complex_pairs}))
    assert fraction_root_counts(f) == expected
    assert root_counts(f.coeffs) == expected
    assert is_real_rooted(f.coeffs) == (not complex_pairs)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-40, max_value=40), max_size=7),
       st.integers(min_value=-40, max_value=40).filter(lambda c: c != 0))
def test_one_pass_counts_of_arbitrary_integer_polynomials(lower, lead):
    # Any int coefficients below a nonzero leading one, read as ints.
    assert root_counts(lower + [lead]) == fraction_root_counts(UniPoly(lower + [lead]))


def test_root_counts_reject_the_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        root_counts([])


def _equivalence_corpus():
    """(h, e) pairs: HV, Renegar, definite and product inputs, on tilted
    directions too, so that the offset map v -> (T*v)[1:] is exercised."""
    rng = random.Random(41)
    return [
        (random_pencil_determinant(rng, 3, 3), (1, 0, 0)),
        (random_pencil_determinant(rng, 3, 4), (1, Fraction(1, 9), 0)),
        (random_pencil_determinant(rng, 4, 2), (1, 0, 0, 0)),
        (renegar_derivative(rng, 3, 4), (1, 0, 0)),
        (renegar_derivative(rng, 4, 5), (1, 0, 0, 0)),
        (P("x0^2 + 2*x1^2 + 1/3*x2^2"), (2, 1, 0)),
        (P("x0^2 + x1^2 + x2^2 + x3^2"), (1, -1, 2, 0)),
        (P("x0*x1*x2"), (1, 1, 1)),
        (P("3*x0*x1*x2*x3"), (2, 1, 3, 1)),
        (P("x0^2 - x1^2 - x2^2"), (2, 1, 0)),
        (P("x0^2 - x1^2 + x2^2"), (1, 0, 0)),
        (P("x0^2 - x1^2", 3), (3, 0, 1)),
    ]


def test_hyperbolicity_verdict_matches_the_expanded_line_at_every_sample():
    for h, e in _equivalence_corpus():
        lines = rational_samples(h.nvars, 24, seed=7)
        oracle = [is_real_rooted(substitute_line(h, e, v).coeffs) for v in lines]
        first_bad = next((i for i, ok in enumerate(oracle) if not ok), None)
        for count in range(1, len(lines) + 1):
            verdict = check_hyperbolic_sampled(h, e, num_samples=count, seed=7)
            if first_bad is not None and first_bad < count:
                assert verdict.status == NOT_HYPERBOLIC, (str(h), e, count)
                assert verdict.witness == lines[first_bad]
                assert verdict.samples_used == first_bad + 1
            else:
                assert verdict.status == HYPERBOLIC_SAMPLED, (str(h), e, count)
                assert verdict.samples_used == count


def test_pd_witness_matches_the_evaluated_bezoutian_at_every_sample():
    cylinders = []
    for index, (h, e) in enumerate(_equivalence_corpus()):
        ctx = QuotientContext(normalize_direction(h, e)[0])
        omega = bezoutian_of(ctx, ctx.h.derivative(0))
        points = rational_samples(ctx.n, 24, seed=7)
        oracle = [is_positive_definite(evaluate_form(omega, v)) for v in points]
        first_bad = next((i for i, ok in enumerate(oracle) if not ok), None)
        lineality = lineality_space(ctx.h)
        if lineality:
            cylinders.append(index)
        for count in range(1, len(points) + 1):
            report = pd_witness_check(ctx, num_samples=count, seed=7)
            if lineality:
                # The lineality line, tested before any sample, refuses the
                # cylinder at an exact witness.
                assert not report.ok, (str(h), e, count)
                assert report.witness == lineality[0][1:]
                assert not is_positive_definite(evaluate_form(omega, report.witness))
                assert report.samples_used == 1
            elif first_bad is not None and first_bad < count:
                assert not report.ok, (str(h), e, count)
                assert report.witness == points[first_bad]
                assert report.samples_used == first_bad + 1
            else:
                assert report.ok, (str(h), e, count)
                assert report.samples_used == count
    # The 4-variable HV quadric (I, B1, B2, B3 are four vectors in the
    # 3-dimensional space of symmetric 2x2 matrices, so they are dependent)
    # and x0^2 - x1^2 in three variables.
    assert cylinders == [2, 11]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["hv", "renegar", "cylinder"]),
    st.integers(min_value=0, max_value=10**6),
    st.tuples(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(lambda c: c != 0),
              st.fractions(min_value=-3, max_value=3, max_denominator=5),
              st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    st.lists(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                      min_size=4, max_size=4), min_size=1, max_size=3),
)
def test_integer_restriction_counts_roots_as_the_rational_oracle(kind, seed, tilt, drawn):
    # Along a tilted direction (T != I), every line of both sampled checks,
    # as the integer list the Sturm chain reads, has the distinct real and
    # complex root counts of the expanded rational restriction.  The lines
    # include w = 0 (an offset along e, restriction t^d) and, on a cylinder,
    # the lineality vector, whose restriction h(e)*t^d has a repeated root
    # at w != 0.
    rng = random.Random(seed)
    if kind == "hv":
        h = random_pencil_determinant(rng, 3, rng.randint(2, 4))
    elif kind == "renegar":
        h = renegar_derivative(rng, 3, rng.randint(3, 5))
    else:
        h = random_pencil_determinant(rng, 4, 2)
    e = (1,) + tilt[:h.nvars - 1] + (0,) * (h.nvars - 4)
    assume(h.evaluate(e) != 0)
    offsets = [tuple(v[:h.nvars]) for v in drawn] + [tuple(Fraction(c) * -2 for c in e)]
    offsets += [tuple(v) for v in lineality_space(h)]
    if kind == "cylinder":
        assert len(offsets) > len(drawn) + 1

    restrictions = []

    def spy(coeffs):
        restrictions.append(list(coeffs))
        return True

    samples = [integer_sample(v) for v in offsets]
    with patch.object(hyperbolicity, "sample_directions", lambda dim, count, seed: iter(samples)), \
            patch.object(hyperbolicity, "is_real_rooted", spy):
        verdict = check_hyperbolic_sampled(h, e, num_samples=len(offsets))
    assert verdict.status == HYPERBOLIC_SAMPLED and len(restrictions) == len(offsets)
    for v, coeffs in zip(offsets, restrictions):
        assert all(isinstance(c, int) for c in coeffs)
        oracle = substitute_line(h, e, v)
        assert root_counts(coeffs) == fraction_root_counts(oracle), (str(h), e, v)
        assert is_real_rooted(coeffs) == is_real_rooted(oracle.coeffs)
    assert restrictions[len(drawn)][:-1] == [0] * (len(restrictions[len(drawn)]) - 1)

    # The PD witness reads points w of x1..xn directly.
    ctx = QuotientContext(normalize_direction(h, e)[0])
    forms, _ = ctx.line_forms
    points = [tuple(v[1:h.nvars]) for v in drawn] + [(Fraction(0),) * ctx.n]
    points += [v[1:] for v in lineality_space(ctx.h)]
    for w in points:
        coeffs = restriction(forms, hyperbolicity._integer_point(w))
        oracle = substitute_line(ctx.h, (1,) + (0,) * ctx.n, (0,) + tuple(w))
        assert root_counts(coeffs) == fraction_root_counts(oracle), (str(ctx.h), w)


@pytest.mark.parametrize("seed", range(12))
def test_integer_forms_evaluate_as_the_polynomial(seed):
    # sum_j c_j(u) * a0^j == den * p(a0, u) at integer points, for random
    # forms in 3 and 4 variables, the zero polynomial and a form free of x0:
    # verify's lattice check reads cofactors of every one of these shapes.
    rng = random.Random(seed)
    nvars = 3 + seed % 2
    degree = rng.randint(0, 4)
    free_of_x0 = {(0,) + mono: c for mono, c in random_homogeneous(rng, nvars - 1, degree).terms()}
    shapes = [random_homogeneous(rng, nvars, degree, max_terms=8), Poly.zero(nvars),
              Poly(nvars, free_of_x0)]
    for p in shapes:
        forms, den = integer_forms(p)
        assert den > 0 and all(isinstance(c, int) for c in forms.coeffs)
        for _ in range(8):
            a0, *u = (rng.randint(-5, 5) for _ in range(nvars))
            value = sum(c * a0**j for j, c in enumerate(restriction(forms, u)))
            assert value == den * p.evaluate((a0, *u)), (str(p), a0, u)
