"""Sturm counting, sampled hyperbolicity verdicts, PD witness checks."""

import random
from fractions import Fraction

import pytest

from hyperdet import (
    DirectionVanishes,
    ZeroPolynomial,
    check_hyperbolic_sampled,
    parse_poly,
)
from hyperdet.hyperbolicity import (
    HYPERBOLIC_SAMPLED,
    NOT_HYPERBOLIC,
    is_real_rooted,
    pd_witness_check,
    sample_directions,
)
from hyperdet.poly import UniPoly, substitute_line
from hyperdet.quotient import QuotientContext

from conftest import random_pencil_determinant
from oracles import count_real_roots, is_positive_definite


def P(text, nvars=None):
    return parse_poly(text, nvars)


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
    assert is_real_rooted(f)


def test_not_real_rooted_complex():
    assert not is_real_rooted(UniPoly([1, 0, 1]))


def test_quartic_mixed_roots():
    assert not is_real_rooted(UniPoly([-1, 0, 0, 0, 1]))


def test_constant_is_real_rooted():
    assert is_real_rooted(UniPoly([5]))


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
    assert not is_real_rooted(restriction)


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


def test_sample_stream_units_first_then_deterministic():
    first = list(sample_directions(2, 6, seed=9))
    again = list(sample_directions(2, 6, seed=9))
    assert first == again
    assert first[:4] == [
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    ]
    assert all(any(c != 0 for c in v) for v in first)


# -- pd_witness_check -------------------------------------------------------------

def test_pd_witness_lorentz():
    report = pd_witness_check(QuotientContext(P("x0^2 - x1^2 - x2^2")))
    assert report.ok and report.witness is None


def test_pd_witness_detects_singular_quadric():
    report = pd_witness_check(QuotientContext(P("x0^2 - x1^2", 3)))
    assert not report.ok
    assert report.witness == (Fraction(0), Fraction(1))


def test_pd_witness_linear():
    report = pd_witness_check(QuotientContext(P("x0 - x1")))
    assert report.ok


def test_pd_witness_implies_real_rooted_restrictions():
    # Positive definiteness of the evaluated form at v certifies simple real
    # roots of the restriction; cross-check both paths.
    from hyperdet.quotient import bezoutian_of, evaluate_form

    rng = random.Random(29)
    for _ in range(10):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 3)
        h = random_pencil_determinant(rng, nvars, d)
        ctx = QuotientContext(h)
        omega = bezoutian_of(ctx, ctx.h.derivative(0))
        e = (1,) + (0,) * (nvars - 1)
        for v in sample_directions(nvars - 1, 8, seed=5):
            if is_positive_definite(evaluate_form(omega, v)):
                restriction = substitute_line(ctx.h, e, (0,) + tuple(v))
                assert is_real_rooted(restriction)
                assert count_real_roots(restriction) == restriction.degree  # simple roots
