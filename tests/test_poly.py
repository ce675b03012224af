"""Exact polynomial arithmetic: worked examples and algebraic invariants."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperdet import (
    DirectionVanishes,
    InputError,
    Poly,
    PolyParseError,
    parse_poly,
)
from hyperdet.poly import as_fraction, normalize_direction
from hyperdet.quotient import QuotientContext

from conftest import all_monomials, random_homogeneous
from oracles import (
    UniPoly,
    divide_by_h,
    fraction_apply_linear,
    is_homogeneous_of_degree,
    scanner_parse_poly,
    substitute_line,
    uni_divmod,
)


def P(text, nvars=None):
    return parse_poly(text, nvars)


# -- strategies --------------------------------------------------------------

small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def homogeneous(draw, nvars=None, degree=None):
    nv = nvars if nvars is not None else draw(st.integers(2, 4))
    deg = degree if degree is not None else draw(st.integers(0, 3))
    monos = all_monomials(nv, deg)
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=5, unique=True))
    coeffs = draw(st.lists(small_fractions, min_size=len(picked), max_size=len(picked)))
    terms = {m: c for m, c in zip(picked, coeffs)}
    return Poly(nv, terms)


# -- mul ---------------------------------------------------------------------

def test_mul_binomial():
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x0 + x1) * (x0 + x1) == P("x0^2 + 2*x0*x1 + x1^2")


def test_mul_absorbing_zero():
    p = P("x0^2 - x1^2 - 2/3*x1*x2")
    assert p * Poly.zero(3) == Poly.zero(3)


def test_mul_difference_of_squares():
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x0 - x1) * (x0 + x1) == P("x0^2 - x1^2")


@settings(max_examples=60, deadline=None)
@given(homogeneous(nvars=3), homogeneous(nvars=3))
def test_mul_preserves_homogeneity(a, b):
    product = a * b
    assert product.is_homogeneous
    if not a.is_zero and not b.is_zero:
        assert product.is_zero or product.degree == a.degree + b.degree


# -- exact division by h ---------------------------------------------------

def test_exact_divide_cofactor_roundtrip():
    f = P("x0^3 - x0*x1^2 - x0*x2^2")
    g = P("x0^2 - x1^2 - x2^2")
    q, r = divide_by_h(QuotientContext(g), f)
    assert not any(r)
    assert q * g == f


def test_exact_divide_self():
    h = P("x0^2 - x1^2 - x2^2")
    assert divide_by_h(QuotientContext(h), h) == (Poly.one(3), (Poly.zero(3),) * 2)


def test_exact_divide_remainder_rejected():
    _, r = divide_by_h(QuotientContext(P("x0 + x2", 3)), P("x0^2 - x1^2", 3))
    assert r == (P("x2^2 - x1^2", 3),)


@settings(max_examples=60, deadline=None)
@given(homogeneous(nvars=3, degree=2), homogeneous(nvars=3, degree=1))
def test_division_roundtrip(q, g):
    # h_monic is g over its x0 coefficient, so q * g is (lead * q) * h_monic.
    lead = g.coeff((1, 0, 0))
    if not lead:
        return
    assert divide_by_h(QuotientContext(g), q * g) == (q * lead, (Poly.zero(3),))


# -- substitute_line ---------------------------------------------------------

def test_substitute_line_lorentz_offset():
    h = P("x0^2 - x1^2 - x2^2")
    assert substitute_line(h, (1, 0, 0), (0, 3, 4)) == UniPoly([-25, 0, 1])


def test_substitute_line_zero_offset_is_homogeneity():
    rng = random.Random(5)
    for _ in range(10):
        h = random_homogeneous(rng, 3, 3)
        e = (1, Fraction(1, 2), -2)
        if h.evaluate(e) == 0:
            continue
        expected = UniPoly([0] * h.degree + [h.evaluate(e)])
        assert substitute_line(h, e, (0, 0, 0)) == expected


def test_substitute_line_shifted():
    h = P("x0^2 - x1^2 - x2^2")
    assert substitute_line(h, (1, 0, 0), (1, 1, 0)) == UniPoly([0, 2, 1])


@settings(max_examples=40, deadline=None)
@given(homogeneous(nvars=3, degree=2), homogeneous(nvars=3, degree=1))
def test_substitute_line_is_multiplicative(f, g):
    e = (1, 2, Fraction(1, 3))
    v = (0, -1, 2)
    lhs = substitute_line(f * g, e, v)
    rhs = substitute_line(f, e, v) * substitute_line(g, e, v)
    assert lhs == rhs


# -- partial derivative ------------------------------------------------------

def test_derivative_power_rule():
    assert P("x0^2 - x1^2").derivative(0) == P("2*x0", 2)


def test_derivative_product_of_variables():
    assert P("x0*x1*x2").derivative(1) == P("x0*x2")


def test_derivative_no_dependence():
    assert P("x1^2").derivative(0) == Poly.zero(2)


def test_euler_identity():
    rng = random.Random(11)
    for _ in range(15):
        nvars = rng.randint(2, 4)
        degree = rng.randint(1, 4)
        h = random_homogeneous(rng, nvars, degree)
        total = Poly.zero(nvars)
        for i in range(nvars):
            total = total + Poly.variable(nvars, i) * h.derivative(i)
        assert total == h * degree


# -- normalize_direction -----------------------------------------------------

def test_normalize_direction_identity_when_aligned():
    h = P("x0^2 - x1^2 - x2^2")
    transformed, t_mat = normalize_direction(h, (1, 0, 0))
    assert transformed == h
    assert t_mat == [[Fraction(i == j) for j in range(3)] for i in range(3)]


def test_normalize_direction_spec_substitution():
    # The explicit coordinate change x0 = y0+y1, x1 = y0-y1 turns x0*x1 into
    # a difference of squares; normalize_direction may pick a different T but
    # must satisfy the same contract.
    h = P("x0*x1")
    assert fraction_apply_linear(h, [[1, 1], [1, -1]]) == P("x0^2 - x1^2")
    transformed, t_mat = normalize_direction(h, (1, 1))
    e0_image = [sum(Fraction(t_mat[i][j]) * Fraction((1, 1)[j]) for j in range(2)) for i in range(2)]
    assert e0_image == [Fraction(1), Fraction(0)]
    assert transformed.evaluate((1, 0)) == h.evaluate((1, 1))


def inverse_transform(e):
    """T^{-1} as README step 1 states it: e as column 0, then the unit
    vectors of the coordinates other than the first nonzero one of e."""
    pivot = next(i for i, c in enumerate(e) if c)
    others = [j for j in range(len(e)) if j != pivot]
    return [[Fraction(c)] + [Fraction(i == j) for j in others] for i, c in enumerate(e)]


def assert_matches_the_fraction_substitution(h, e):
    """normalize_direction(h, e) is h(T^{-1} y), its T inverts T^{-1}, and
    a direction where h vanishes is refused."""
    if h.evaluate(e) == 0:
        with pytest.raises(DirectionVanishes):
            normalize_direction(h, e)
        return
    transformed, t_mat = normalize_direction(h, e)
    inv_t = inverse_transform(e)
    n = len(e)
    assert [[sum(t_mat[i][k] * inv_t[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[i == j for j in range(n)] for i in range(n)]
    assert list(transformed.terms()) == list(fraction_apply_linear(h, inv_t).terms())


def test_apply_linear_at_a_high_exponent():
    # The powers come from the binomial theorem, a loop over the exponent:
    # exponent 1500 is past the interpreter's recursion limit.  With
    # e = (2, 1), x0 = 2*y0 and x1 = y0 + y1 turn x0^1500*x1^2 - x0^1502
    # into 2^1500*(-3*y0^1502 + 2*y0^1501*y1 + y0^1500*y1^2).
    scale = Fraction(2**1500)
    expected = Poly(2, {(1502, 0): -3 * scale, (1501, 1): 2 * scale, (1500, 2): scale})
    assert normalize_direction(P("x0^1500*x1^2 - x0^1502"), (2, 1))[0] == expected
    # x1 = 3*y0 + y1 makes 1501 terms of x1^1500, and with the pivot at
    # x1, x0 = y1 and x1 = 3*y0.
    h = P("x0^2*x1^1498 - x1^1500")
    assert_matches_the_fraction_substitution(h, (1, 3))
    assert_matches_the_fraction_substitution(h, (0, 3))


wide_fractions = st.builds(Fraction, st.integers(-2**64, 2**64), st.integers(1, 2**64))


@st.composite
def directions(draw, max_degree=3, entries=wide_fractions.filter(bool)):
    """(h, e): h homogeneous with up to five terms in 2-4 variables, and e
    with some entries set to zero, the first of them too at times, so the
    pivot is not always x0."""
    n = draw(st.integers(2, 4))
    monos = st.sampled_from(all_monomials(n, draw(st.integers(1, max_degree))))
    h = Poly(n, draw(st.dictionaries(monos, entries, min_size=1, max_size=5)))
    zeros = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return h, tuple(0 if i in zeros else draw(entries) for i in range(n))


@settings(max_examples=300, deadline=None)
@given(directions())
def test_apply_linear_agrees_with_the_fraction_substitution(case):
    assert_matches_the_fraction_substitution(*case)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 1500), st.lists(small_fractions, min_size=2, max_size=2), small_fractions)
@example(1500, [Fraction(-5, 3), Fraction(7, 4)], Fraction(2, 9))
@example(200, [Fraction(2**64 - 1, 2**64), Fraction(-1, 2**63 + 1)], Fraction(1, 2**64))
@example(1500, [Fraction(0), Fraction(7, 4)], Fraction(2, 9))
def test_apply_linear_agrees_with_the_fraction_substitution_at_high_exponents(k, e, c):
    # With e = (a, b), a != 0: x0 := a*y0 and x1 := b*y0 + y1, so x1^k
    # gives k+1 terms; with a = 0 the pivot is x1.
    assume(any(e))
    assert_matches_the_fraction_substitution(Poly(2, {(k, 0): Fraction(-3, 7), (0, k): c}), e)


def test_substitute_line_at_a_high_exponent():
    # The line powers come from the binomial theorem: with e = (1, 0) and
    # v = (1, 2), x0^2*x1^1500 - x1^1502 restricts to 2^1500*((t+1)^2 - 4).
    scale = Fraction(2**1500)
    restricted = substitute_line(P("x0^2*x1^1500 - x1^1502"), (1, 0), (1, 2))
    assert restricted == UniPoly([-3 * scale, 2 * scale, scale])


def test_normalize_direction_vanishing_rejected():
    with pytest.raises(DirectionVanishes):
        normalize_direction(P("x0^2", 2), (0, 1))


@pytest.mark.parametrize("text, direction, admitted", [
    ("x0^2047 - x1^2047", (1, 0), True),  # C(2048, 1) = 2048 terms
    ("x0^2048 - x1^2048", (1, 0), False),
    ("x0^62 - x1^62 - x2^62", (1, 0, 0), True),  # C(64, 2) = 2016
    ("x0^63 - x1^63 - x2^63", (1, 0, 0), False),  # C(65, 2) = 2080
    ("x0^21 - x1^21 - x2^21 - x3^21", (1, 0, 0, 0), True),  # C(24, 3) = 2024
    ("x0^22 - x1^22 - x2^22 - x3^22", (1, 0, 0, 0), False),  # C(25, 3) = 2300
    ("x0 - x2999", (1,) + (0,) * 2999, False),  # C(3000, 1) = 3000
])
def test_normalize_direction_bounds_the_dense_term_count(text, direction, admitted):
    # h of degree d in n+1 variables becomes dense, C(d+n, n) terms, so the
    # gate refuses it past 2048 of them, before any substitution.
    h = P(text)
    if admitted:
        assert normalize_direction(h, direction)[0] == h
    else:
        with pytest.raises(InputError, match="polynomial too large"):
            normalize_direction(h, direction)


def test_normalize_direction_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        nvars = rng.randint(2, 4)
        h = random_homogeneous(rng, nvars, rng.randint(1, 3))
        e = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars))
        if all(c == 0 for c in e) or h.evaluate(e) == 0:
            continue
        transformed, t_mat = normalize_direction(h, e)
        assert fraction_apply_linear(transformed, t_mat) == h
        assert transformed.evaluate((1,) + (0,) * (nvars - 1)) == h.evaluate(e)


# -- evaluate ----------------------------------------------------------------

def test_evaluate_examples():
    assert P("x0^2 - x1^2").evaluate((3, 2)) == 5
    assert P("x0^3 - x0*x1^2").evaluate((0, 0)) == 0
    assert P("x1^2 + x2^2").evaluate((0, 3, 4)) == 25


# -- rational text -----------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("7", Fraction(7)), ("-3/4", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)), ("0/5", Fraction(0)),
])
def test_rational_text_forms(text, value):
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", ["1e1000000", "1.5", "1_000", " 3", "3/", "/3", "1/-2", "inf", "0x10", ""])
def test_other_rational_text_is_a_value_error(text):
    with pytest.raises(ValueError, match="is not an integer or an a/b fraction"):
        as_fraction(text)


def _int_text_error(text):
    """int's own message for text past the int-string limit; its wording
    differs between interpreters ("(4300)" on 3.10, "(4300 digits)" on 3.11)."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"int read {len(text)} digits; the interpreter sets no limit")


_DIGIT_LIMIT = _int_text_error("1" * 4301)


@pytest.mark.parametrize("value, expected", [
    ("-007", Fraction(-7)),
    ("+0003/0004", Fraction(3, 4)),
    ("-0/5", Fraction(0)),
    ("0/5", Fraction(0)),
    ("000", Fraction(0)),
    ("9" * 4300, Fraction(10**4300 - 1)),
    ("1/0", (ZeroDivisionError, "Fraction(1, 0)")),
    ("-01/00", (ZeroDivisionError, "Fraction(-1, 0)")),
    (" 3", (ValueError, "' 3' is not an integer or an a/b fraction")),
    ("3\n", (ValueError, "'3\\n' is not an integer or an a/b fraction")),
    ("\t-1/2", (ValueError, "'\\t-1/2' is not an integer or an a/b fraction")),
    ("1.5", (ValueError, "'1.5' is not an integer or an a/b fraction")),
    ("1e3", (ValueError, "'1e3' is not an integer or an a/b fraction")),
    ("1_000", (ValueError, "'1_000' is not an integer or an a/b fraction")),
    ("\u0663", (ValueError, "'\u0663' is not an integer or an a/b fraction")),
    ("1/\uff11", (ValueError, "'1/\uff11' is not an integer or an a/b fraction")),
    ("1" * 4301, (ValueError, _DIGIT_LIMIT)),
    ("-" + "1" * 4301, (ValueError, _DIGIT_LIMIT)),
    ("1/" + "1" * 4301, (ValueError, _DIGIT_LIMIT)),
    (True, (TypeError, "cannot interpret True as an exact rational")),
    (1.5, (TypeError, "cannot interpret 1.5 as an exact rational")),
], ids=lambda v: repr(v)[:12])
def test_as_fraction_table(value, expected):
    # Each value or exception type and message as Fraction(str) behind the
    # grammar check gave them, before a/b was read with one match: signs and
    # leading zeros, a zero denominator, whitespace, decimal, exponent and
    # underscore forms, non-ASCII digits, the 4300-digit int-string limit
    # and JSON's true.
    if isinstance(expected, Fraction):
        result = as_fraction(value)
        assert type(result) is Fraction and result == expected
    else:
        kind, message = expected
        with pytest.raises(kind) as info:
            as_fraction(value)
        assert type(info.value) is kind and str(info.value) == message


# -- text grammar ------------------------------------------------------------

def test_parse_grammar_example():
    p = P("x0^2 - x1^2 - 2/3*x1*x2")
    assert p.coeff((2, 0, 0)) == 1
    assert p.coeff((0, 2, 0)) == -1
    assert p.coeff((0, 1, 1)) == Fraction(-2, 3)


def test_parse_whitespace_insensitive():
    assert P("x0^2-x1^2") == P("  x0^2   -   x1^2 ")


def test_format_parse_roundtrip():
    rng = random.Random(17)
    for _ in range(25):
        nvars = rng.randint(1, 4)
        p = random_homogeneous(rng, nvars, rng.randint(0, 4))
        assert parse_poly(str(p), nvars) == p


def test_parse_error_reports_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x0^2 + @")
    assert err.value.line == 1
    assert err.value.column == 8


def test_parse_rejects_trailing_coefficient():
    with pytest.raises(PolyParseError):
        parse_poly("x0*2")


def test_parse_empty_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("   ")


def _parse_outcome(parse, text, nvars):
    """The Poly parsed, or the message, line and column of the parse error."""
    try:
        return parse(text, nvars)
    except PolyParseError as exc:
        return str(exc), exc.line, exc.column


_TOKENS = ["x0", "x1", "x2", "x3", "x12", "^", "^2", "*", "/", "+", "-", "0", "7",
           "1/2", "2/0", " ", "\t", "\n", "\r\n", "  \n ", "@"]
_TERMS = ["x0", "x1^2", "x12^3", "2*x0*x1", "7/3*x2^2", "5", "1/0", "x0*3", "x0^2*x3"]
_GAPS = ["", "", "", "", "", " ", "\n", "\t", "\r\n", "@", "*", "-"]


@st.composite
def _spaced_polynomials(draw, gap_choices=_GAPS):
    """Polynomial text with whitespace and stray characters between any two characters."""
    terms = draw(st.lists(st.tuples(st.sampled_from(["", "+", "-"]), st.sampled_from(_TERMS)),
                          min_size=1, max_size=4))
    text = "".join(sign + term for sign, term in terms)
    gaps = draw(st.lists(st.sampled_from(gap_choices), min_size=len(text) + 1, max_size=len(text) + 1))
    return gaps[0] + "".join(ch + gap for ch, gap in zip(text, gaps[1:]))


ascii_texts = st.one_of(
    st.lists(st.one_of(st.sampled_from(_TOKENS), st.characters(max_codepoint=127)),
             max_size=24).map("".join),
    _spaced_polynomials(),
)


@settings(max_examples=400, deadline=None)
@given(ascii_texts, st.sampled_from([None, 1, 2, 3]))
def test_parse_agrees_with_the_scanner_parser_on_ascii_text(text, nvars):
    assert _parse_outcome(parse_poly, text, nvars) == _parse_outcome(scanner_parse_poly, text, nvars)


# \x1c and every character str.isspace accepts outside ASCII: \x85, \xa0,
# \u2028 and \u3000 among them.
_UNICODE_GAPS = _GAPS + ["\x1c"] + [ch for ch in map(chr, range(128, 0x110000)) if ch.isspace()]


@settings(max_examples=200, deadline=None)
@given(_spaced_polynomials(_UNICODE_GAPS), st.sampled_from([None, 1, 2, 3]))
def test_parse_agrees_with_the_scanner_parser_on_unicode_whitespace(text, nvars):
    # The scanner skips what str.isspace accepts, and the parser's \s must
    # skip exactly those characters.
    assert _parse_outcome(parse_poly, text, nvars) == _parse_outcome(scanner_parse_poly, text, nvars)


_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("text, nvars, message, line, column", [
    ("", None, "empty polynomial", 1, 1),
    (" \n\t", None, "empty polynomial", 2, 2),
    ("x0^2 +\n  @ x1", None, "expected a coefficient or a variable", 2, 3),
    ("-", None, "expected a coefficient or a variable", 1, 2),
    ("x0^2 @", None, "unexpected character '@'", 1, 6),
    ("x0^2\n\n x1 x2", None, "unexpected character 'x'", 3, 2),
    ("x0^2\n  - x1^2 +\n", None, "dangling sign at end of input", 3, 1),
    ("x0^2 - x1^2 -", None, "dangling sign at end of input", 1, 14),
    ("x0^\n2", None, "expected a digit", 1, 4),
    ("x 0", None, "expected a digit", 1, 2),
    ("x0 + 1/\n x1", None, "expected a digit", 2, 2),
    ("x0^ 2", None, "expected a digit", 1, 4),
    ("x0 ^2", None, "unexpected character '^'", 1, 4),
    ("3 /2*x0", None, "unexpected character '/'", 1, 3),
    ("x0*\n 2*x1", None, "numeric coefficient must come first in a term", 2, 2),
    ("x0^2 -\r\n x1^2 * 3", None, "numeric coefficient must come first in a term", 2, 9),
    ("1/0*x0", None, "zero denominator", 1, 4),
    ("x0 + 1/\n 0", None, "zero denominator", 2, 3),
    ("x0^2 - x3^2", 2, "variable x3 exceeds the declared 2 variables", 1, 8),
    ("x0^2\n - x3^2", 2, "variable x3 exceeds the declared 2 variables", 2, 4),
    # \r\n and a lone \r end a line as \n does.
    ("x0^2\r - x1^2\r + @", None, "expected a coefficient or a variable", 3, 4),
    ("x0^2\r\n - x1^2\r\n + @", None, "expected a coefficient or a variable", 3, 4),
    ("x0^2\r  - x1^2 +\r", None, "dangling sign at end of input", 3, 1),
    ("x0^2\r\n  - x1^2 +\r\n", None, "dangling sign at end of input", 3, 1),
    ("x0^2\r\n\r - x3^2", 2, "variable x3 exceeds the declared 2 variables", 3, 4),
    pytest.param(
        "x0^2 -\n  " + "7" * (_INT_LIMIT + 1) + "*x1^2", None,
        f"integer literal of {_INT_LIMIT + 1} digits is too long", 2, 3,
        marks=pytest.mark.skipif(not _INT_LIMIT, reason="the interpreter has no int-string limit"),
        id="too-long"),
    # Digits are ASCII 0-9: other Unicode digits are not read as numbers.
    ("x0^\u00b2 - x1^2", None, "expected a digit", 1, 4),
    ("\u0663*x0^2 - x1^2", None, "expected a coefficient or a variable", 1, 1),
    ("x\u0662", None, "expected a digit", 1, 2),
])
def test_parse_error_message_and_position(text, nvars, message, line, column):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, nvars)
    assert (str(err.value), err.value.line, err.value.column) == (
        f"{message} (line {line}, column {column})", line, column)


# -- UniPoly ------------------------------------------------------------------

def test_unipoly_trims_leading_zeros():
    f = UniPoly([1, 2, 0, 0])
    assert f.degree == 1
    assert UniPoly([0, 0]).is_zero
    assert UniPoly([]).degree == -1


def test_unipoly_divmod_roundtrip():
    rng = random.Random(8)
    for _ in range(15):
        f = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
        g = UniPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))])
        if g.is_zero:
            continue
        q, r = uni_divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_zero_polynomial_is_homogeneous():
    zero = Poly.zero(3)
    assert zero.is_homogeneous
    assert is_homogeneous_of_degree(zero, 0)
    assert is_homogeneous_of_degree(zero, 7)
    assert str(zero) == "0"
