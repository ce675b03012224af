"""Quotient-module reduction, Bézout matrices and Bézoutian forms."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdet import Poly, parse_poly
from hyperdet.detrep import basis_maps
from hyperdet.cli import main
from hyperdet.poly import normalize_direction
from hyperdet.quotient import QuotientContext, bezoutian_of
from hyperdet.sos import monomial_basis_Mk

from conftest import all_monomials, random_homogeneous, random_pencil_determinant, renegar_derivative
from oracles import (
    UniPoly,
    bezout_matrix_univariate,
    divide_by_h,
    element_to_poly,
    evaluate_form,
    exact_divide,
    fraction_bezoutian_of,
    fraction_divide_by_h,
    is_bezoutian,
    is_homogeneous_of_degree,
    leading_principal_minors,
    mult_by_x0,
    mult_x0_matrix,
    substitute_line,
)


def P(text, nvars=None):
    return parse_poly(text, nvars)


LORENTZ = P("x0^2 - x1^2 - x2^2")


# -- divide_by_h: the remainder is the reduction ------------------------------

def test_reduce_x0_squared():
    ctx = QuotientContext(LORENTZ)
    coeffs = divide_by_h(ctx, P("x0^2", 3))[1]
    assert len(coeffs) == 2
    assert coeffs[0] == P("x1^2 + x2^2", 3)
    assert coeffs[1].is_zero


def test_reduce_already_reduced():
    ctx = QuotientContext(LORENTZ)
    coeffs = divide_by_h(ctx, P("x1", 3))[1]
    assert len(coeffs) == 2
    assert coeffs[0] == P("x1", 3)
    assert coeffs[1].is_zero


def test_reduce_x0_cubed():
    ctx = QuotientContext(LORENTZ)
    coeffs = divide_by_h(ctx, P("x0^3", 3))[1]
    assert len(coeffs) == 2
    assert coeffs[0].is_zero
    assert coeffs[1] == P("x1^2 + x2^2", 3)


def test_mult_by_x0_agrees_with_reduction():
    # The lift's x0 map sends each basis element x0bar^p x^gamma of degree k
    # to a sparse combination of the degree-(k+1) basis; it must be the
    # reduction of x0 * x0bar^p x^gamma, as must the Poly oracle's x0bar
    # product of any reduced element.  The x_s map must be the bare product.
    rng = random.Random(53)
    for _ in range(10):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        h = random_homogeneous(rng, nvars, degree, monic_in_x0=True)
        ctx = QuotientContext(h)
        p = random_homogeneous(rng, nvars, rng.randint(0, degree + 1))
        coeffs = divide_by_h(ctx, p)[1]
        x0 = Poly.variable(nvars, 0)
        direct = mult_by_x0(ctx, coeffs)
        via_reduction = divide_by_h(ctx, element_to_poly(ctx, coeffs) * x0)[1]
        assert direct == via_reduction

        k = ctx.d - 1 + rng.randint(0, 1)
        basis = monomial_basis_Mk(ctx, k)
        basis_up = monomial_basis_Mk(ctx, k + 1)
        *shift_maps, x0_images = basis_maps(ctx, basis, basis_up)

        def as_coeffs(image):
            coeffs = [Poly.zero(nvars) for _ in range(ctx.d)]
            for pos, c in image.items():
                g = basis_up[pos]
                coeffs[g.basis_power] = coeffs[g.basis_power] + Poly.monomial(g.r_monomial, c)
            return tuple(coeffs)

        for a, g in enumerate(basis):
            b = Poly.monomial(g.r_monomial, 1) * x0**g.basis_power
            assert all(x0_images[a].values())
            assert as_coeffs(x0_images[a]) == divide_by_h(ctx, x0 * b)[1]
            for s in range(1, nvars):
                xs = Poly.variable(nvars, s)
                assert as_coeffs(shift_maps[s - 1][a]) == divide_by_h(ctx, xs * b)[1]


def test_reduce_agrees_with_polynomial_identity():
    # p - representative must be divisible by h.
    rng = random.Random(23)
    for _ in range(10):
        h = random_homogeneous(rng, 3, 3, monic_in_x0=True)
        ctx = QuotientContext(h)
        p = random_homogeneous(rng, 3, rng.randint(3, 5))
        coeffs = divide_by_h(ctx, p)[1]
        assert len(coeffs) == ctx.d
        assert all(c.degree_in(0) == 0 for c in coeffs)
        rep = element_to_poly(ctx, coeffs)
        difference = p - rep
        if difference.is_zero:
            continue
        assert exact_divide(difference, ctx.h) * ctx.h == difference


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def form(draw, nvars, degree, x0_free=False):
    """A homogeneous polynomial of the given degree, free of x0 if asked."""
    monos = [m for m in all_monomials(nvars, degree) if not (x0_free and m[0])]
    if not monos:
        return Poly.zero(nvars)
    picked = draw(st.lists(st.sampled_from(monos), max_size=4, unique=True))
    return Poly(nvars, {m: draw(small_fractions) for m in picked})


@st.composite
def division_case(draw):
    """(h, q, r): h with a nonzero x0^d coefficient, q and x0-free r_j so that
    q * h_monic + sum_j r_j x0^j is homogeneous."""
    nvars = draw(st.integers(2, 4))
    d = draw(st.integers(1, 3))
    h = draw(form(nvars, d))
    top = (d,) + (0,) * (nvars - 1)
    h = h + Poly.monomial(top, draw(small_fractions.filter(bool)) - h.coeff(top))
    degree = draw(st.integers(0, 2))
    q = draw(form(nvars, degree))
    r = tuple(draw(form(nvars, degree + d - j, x0_free=True)) for j in range(d))
    return h, q, r


@settings(max_examples=80, deadline=None)
@given(division_case())
def test_divide_by_h_returns_quotient_and_remainder(case):
    h, q, r = case
    ctx = QuotientContext(h)
    x0 = Poly.variable(h.nvars, 0)
    p = q * ctx.h + sum((r_j * x0**j for j, r_j in enumerate(r)), Poly.zero(h.nvars))
    assert divide_by_h(ctx, p) == (q, r)
    if not any(r):
        assert q == exact_divide(p, ctx.h)


@st.composite
def oracle_case(draw):
    """(h, p): h of degree 1-4 with a nonzero, generally non-unit x0^d
    coefficient and wide fractions, and p homogeneous of degree 0-6 or, one
    time in three, the sum of two forms of different degrees."""
    nvars = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    wide = st.builds(Fraction, st.integers(-2**20, 2**20), st.integers(1, 2**20))
    top = (d,) + (0,) * (nvars - 1)
    h = draw(form(nvars, d))
    h = h + Poly.monomial(top, draw(wide.filter(bool)) - h.coeff(top))
    p = draw(form(nvars, draw(st.integers(0, 6))))
    if draw(st.integers(0, 2)) == 0:
        p = p + draw(form(nvars, draw(st.integers(0, 6))))
    return h, p * draw(wide.filter(bool))


@settings(max_examples=150, deadline=None)
@given(oracle_case())
def test_integer_division_equals_the_fraction_division(case):
    # divide_by_h runs the one integer kernel, divide_packed, on p scaled
    # to integer forms: its quotient and remainder are those of the
    # Fraction route it replaced, nonzero remainders included.
    h, p = case
    ctx = QuotientContext(h)
    assert divide_by_h(ctx, p) == fraction_divide_by_h(ctx, p)


@settings(max_examples=150, deadline=None)
@given(oracle_case())
def test_integer_bezoutian_equals_the_fraction_bezoutian(case):
    # bezoutian_of evaluates the closed-form sum on integer forms over one
    # denominator: the same entries as the Poly table divided by (s - t).
    h, p = case
    ctx = QuotientContext(h)
    if p.is_homogeneous:
        assert bezoutian_of(ctx, p) == fraction_bezoutian_of(ctx, p)
    else:
        with pytest.raises(ValueError):
            bezoutian_of(ctx, p)


@pytest.mark.parametrize("make_h", [
    lambda: random_pencil_determinant(random.Random(5001), 3, 5),
    lambda: random_pencil_determinant(random.Random(6001), 3, 6),
    lambda: random_pencil_determinant(random.Random(7001), 3, 7),
    lambda: renegar_derivative(random.Random(1), 5, 6),
], ids=["hv-d5", "hv-d6", "hv-d7", "renegar-5var-cubic"])
def test_closed_form_bezoutian_past_the_oracle_range(make_h):
    # oracle_case draws h of degree 1-4; the closed-form sum's index bounds
    # min(j, d-1-i) are exercised here up to d = 7 and in five variables,
    # with x0^(d+1)*x1 reduced by divide_packed before the sum.
    h = make_h()
    ctx = QuotientContext(h)
    x0, x1 = Poly.variable(h.nvars, 0), Poly.variable(h.nvars, 1)
    for p in (Poly.one(h.nvars), h.derivative(0), x0 ** (ctx.d + 1) * x1):
        assert bezoutian_of(ctx, p) == fraction_bezoutian_of(ctx, p), p


def test_context_rescales_to_monic():
    ctx = QuotientContext(P("3*x0^2 - 3*x1^2 - 6*x2^2"))
    assert ctx.h == P("x0^2 - x1^2 - 2*x2^2")
    assert ctx.d == 2 and ctx.n == 2


def test_context_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QuotientContext(P("x0^2 - x1", 2))  # not homogeneous
    with pytest.raises(ValueError):
        QuotientContext(P("x1^2", 2))  # vanishes at (1,0)
    with pytest.raises(ValueError):
        QuotientContext(Poly.zero(2))


# -- mult_x0_matrix ----------------------------------------------------------

def test_mult_x0_matrix_lorentz():
    ctx = QuotientContext(LORENTZ)
    f = mult_x0_matrix(ctx)
    q = P("x1^2 + x2^2", 3)
    assert f[0][0].is_zero and f[1][1].is_zero
    assert f[0][1] == q
    assert f[1][0] == Poly.one(3)


def test_mult_x0_matrix_linear():
    ctx = QuotientContext(P("x0 - x1"))
    f = mult_x0_matrix(ctx)
    assert len(f) == 1 and f[0][0] == P("x1", 2)


def test_mult_x0_matrix_nilpotent():
    ctx = QuotientContext(P("x0^2", 2))
    f = mult_x0_matrix(ctx)
    assert f[0][0].is_zero and f[0][1].is_zero and f[1][1].is_zero
    assert f[1][0] == Poly.one(2)


# -- bezout_matrix_univariate -------------------------------------------------

def test_bezout_matrix_real_pair():
    b = bezout_matrix_univariate(UniPoly([-1, 0, 1]), UniPoly([0, 2]))
    assert b == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_bezout_matrix_complex_pair():
    b = bezout_matrix_univariate(UniPoly([1, 0, 1]), UniPoly([0, 2]))
    assert b == [[Fraction(-2), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_bezout_matrix_generic_quadratic():
    b = bezout_matrix_univariate(UniPoly([2, -3, 1]), UniPoly([-3, 2]))
    assert b == [[Fraction(5), Fraction(-3)], [Fraction(-3), Fraction(2)]]


def test_bezout_matrix_degree_violation():
    with pytest.raises(ValueError):
        bezout_matrix_univariate(UniPoly([0, 2]), UniPoly([2, -3, 1]))
    with pytest.raises(ValueError):
        bezout_matrix_univariate(UniPoly([5]), UniPoly([]))


def test_bezout_matrix_against_bivariate_expansion():
    # Independent oracle: rebuild f(s)g(t) - f(t)g(s) = (s-t) * sum b_ij s^i t^j
    # with two-variable polynomial arithmetic.
    rng = random.Random(7)
    for _ in range(20):
        d = rng.randint(1, 5)
        f = UniPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] + [1])
        g = UniPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        b = bezout_matrix_univariate(f, g)

        def lift(u, var):
            return Poly(2, {((i, 0) if var == 0 else (0, i)): c
                            for i, c in enumerate(u.coeffs)})

        fs, ft = lift(f, 0), lift(f, 1)
        gs, gt = lift(g, 0), lift(g, 1)
        combo = Poly.zero(2)
        for i in range(d):
            for j in range(d):
                if b[i][j]:
                    combo = combo + Poly(2, {(i, j): b[i][j]})
        s_minus_t = Poly(2, {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
        assert fs * gt - ft * gs == s_minus_t * combo


# -- delta and general Bézoutians ---------------------------------------------

def test_delta_lorentz():
    ctx = QuotientContext(LORENTZ)
    delta = bezoutian_of(ctx, Poly.one(ctx.nvars))
    one = Poly.one(3)
    assert delta[0][0].is_zero and delta[1][1].is_zero
    assert delta[0][1] == one and delta[1][0] == one


def test_delta_pure_power_antidiagonal():
    ctx = QuotientContext(P("x0^3", 2))
    delta = bezoutian_of(ctx, Poly.one(ctx.nvars))
    one = Poly.one(2)
    for i in range(3):
        for j in range(3):
            expected = one if i + j == 2 else Poly.zero(2)
            assert delta[i][j] == expected


def test_delta_linear():
    ctx = QuotientContext(P("x0 - x1"))
    delta = bezoutian_of(ctx, Poly.one(ctx.nvars))
    assert delta == ((Poly.one(2),),)


def test_bezoutian_of_unit_is_delta(capsys):
    # The bezoutian command prints as delta the rows of the Bézoutian of 1.
    for direction in ((1, 0, 0), (2, 1, 0)):
        ctx = QuotientContext(normalize_direction(LORENTZ, direction)[0])
        code = main(["bezoutian", "--poly", str(LORENTZ), "--e", ",".join(map(str, direction))])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["delta"]
        assert rows == [[str(e) for e in row] for row in bezoutian_of(ctx, Poly.one(3))]


def test_bezoutian_of_derivative():
    ctx = QuotientContext(LORENTZ)
    omega = bezoutian_of(ctx, LORENTZ.derivative(0))
    assert omega[0][0] == P("2*x1^2 + 2*x2^2", 3)
    assert omega[0][1].is_zero and omega[1][0].is_zero
    assert omega[1][1] == Poly.constant(3, 2)


def test_bezoutian_of_x1_is_scaled_delta():
    ctx = QuotientContext(LORENTZ)
    omega = bezoutian_of(ctx, P("x1", 3))
    x1 = P("x1", 3)
    assert omega[0][1] == x1 and omega[1][0] == x1
    assert omega[0][0].is_zero and omega[1][1].is_zero


# -- is_bezoutian ------------------------------------------------------------

def test_is_bezoutian_accepts_delta():
    ctx = QuotientContext(LORENTZ)
    assert is_bezoutian(ctx, bezoutian_of(ctx, Poly.one(ctx.nvars)))


def test_is_bezoutian_rejects_corner_matrix():
    ctx = QuotientContext(LORENTZ)
    bad = ((Poly.one(3), Poly.zero(3)), (Poly.zero(3), Poly.zero(3)))
    assert not is_bezoutian(ctx, bad)


def test_is_bezoutian_rejects_asymmetric():
    ctx = QuotientContext(LORENTZ)
    bad = ((Poly.zero(3), Poly.one(3)), (Poly.zero(3), Poly.zero(3)))
    assert not is_bezoutian(ctx, bad)


# -- evaluate_form -----------------------------------------------------------

def test_evaluate_form_derivative_bezoutian():
    ctx = QuotientContext(LORENTZ)
    omega = bezoutian_of(ctx, LORENTZ.derivative(0))
    assert evaluate_form(omega, (1, 0)) == [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(2)]]
    assert evaluate_form(omega, (0, 0)) == [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_evaluate_form_constant_delta():
    ctx = QuotientContext(LORENTZ)
    delta = bezoutian_of(ctx, Poly.one(ctx.nvars))
    for v in [(0, 0), (3, -2), (Fraction(1, 7), 5)]:
        assert evaluate_form(delta, v) == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


# -- structural invariants ----------------------------------------------------

def _random_h_and_p(rng, nvars, degree):
    h = random_homogeneous(rng, nvars, degree, monic_in_x0=True)
    # p homogeneous with x0-degree below deg h
    while True:
        p_deg = rng.randint(0, degree - 1 + 2)
        monos = [m for m in all_monomials(nvars, p_deg) if m[0] < degree]
        if monos:
            break
    rng.shuffle(monos)
    terms = {m: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for m in monos[: rng.randint(1, 4)]}
    p = Poly(nvars, terms)
    if p.is_zero:
        p = Poly(nvars, {monos[0]: Fraction(1)})
    return h, p


def test_specialization_compatibility():
    # Evaluating the form at v matches the univariate Bézout matrix of the
    # line restrictions through (1,0,...,0).
    rng = random.Random(31)
    for _ in range(25):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        h, p = _random_h_and_p(rng, nvars, degree)
        ctx = QuotientContext(h)
        omega = bezoutian_of(ctx, p)
        e = (1,) + (0,) * (nvars - 1)
        for _ in range(4):
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars - 1))
            f_line = substitute_line(ctx.h, e, (0,) + v)
            g_line = substitute_line(p, e, (0,) + v)
            assert evaluate_form(omega, v) == bezout_matrix_univariate(f_line, g_line)


def test_principal_ideal_property():
    rng = random.Random(37)
    for _ in range(20):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        h, p = _random_h_and_p(rng, nvars, degree)
        ctx = QuotientContext(h)
        assert is_bezoutian(ctx, bezoutian_of(ctx, p))


def test_degree_pattern():
    rng = random.Random(41)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        degree = rng.randint(2, 4)
        h = random_homogeneous(rng, nvars, degree, monic_in_x0=True)
        ctx = QuotientContext(h)
        omega = bezoutian_of(ctx, ctx.h.derivative(0))
        for i in range(degree):
            for j in range(degree):
                assert is_homogeneous_of_degree(omega[i][j], 2 * (degree - 1) - i - j)


def test_bezout_criterion_real_simple_vs_complex():
    rng = random.Random(43)
    for _ in range(30):
        k = rng.randint(2, 5)
        roots = rng.sample(range(-8, 9), k)
        f = UniPoly([1])
        for r in roots:
            f = f * UniPoly([-r, 1])
        minors = leading_principal_minors(bezout_matrix_univariate(f, f.derivative()))
        assert all(m > 0 for m in minors)

        # attach an irreducible quadratic factor
        b, c = rng.randint(-3, 3), rng.randint(1, 9)
        while b * b - 4 * c >= 0:
            b, c = rng.randint(-3, 3), rng.randint(1, 9)
        g = f * UniPoly([c, b, 1])
        minors = leading_principal_minors(bezout_matrix_univariate(g, g.derivative()))
        assert any(m <= 0 for m in minors)


def test_commutation_identity():
    rng = random.Random(47)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        h = random_homogeneous(rng, nvars, degree, monic_in_x0=True)
        ctx = QuotientContext(h)
        delta = bezoutian_of(ctx, Poly.one(ctx.nvars))
        f = mult_x0_matrix(ctx)
        d = ctx.d
        for i in range(d):
            for j in range(d):
                lhs = Poly.zero(nvars)
                rhs = Poly.zero(nvars)
                for k in range(d):
                    lhs = lhs + f[i][k] * delta[k][j]
                    rhs = rhs + delta[i][k] * f[j][k]
                assert lhs == rhs
