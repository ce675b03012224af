"""Symmetric lift, pencil determinants, certification and verification."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdet.detrep
import hyperdet.quotient
from hyperdet import (
    CertifyError,
    CertifyOptions,
    DetRepCertificate,
    DirectionVanishes,
    InputError,
    NoSymmetricLift,
    Poly,
    certify,
    parse_poly,
    verify_certificate,
)
from hyperdet.detrep import (
    _berkowitz_check,
    _charpoly,
    _integer_pencil,
    _lattice_check,
    solve_symmetric_lift,
)
from hyperdet.linalg import solve_sparse_system
from hyperdet.poly import normalize_direction
from hyperdet.quotient import QuotientContext, unpacked_poly
from hyperdet.sos import (
    SosDecomposition,
    find_sos_decomposition,
    monomial_basis_Mk,
    r_monomials_of_degree,
)

from conftest import (
    leibniz_determinant,
    random_pencil_determinant,
    random_symmetric_rational,
    renegar_derivative,
)
from oracles import (
    bareiss_determinant,
    divide_by_h,
    mat_mul,
    pencil_determinant,
    poly_lift,
    rational_lift,
    row_to_element,
    z_system_lift,
)


def P(text, nvars=None):
    return parse_poly(text, nvars)


LORENTZ = P("x0^2 - x1^2 - x2^2")


def F(x):
    return Fraction(x)


# -- solve_symmetric_lift -------------------------------------------------------

def test_lift_lorentz_exact():
    ctx = QuotientContext(LORENTZ)
    dec = find_sos_decomposition(ctx)
    pencil, basis_pencil = rational_lift(solve_symmetric_lift(ctx, dec))
    assert dec.weights == [F(2), F(2), F(2)]
    assert pencil[0] == [[F(0), F(0), F(1)], [F(0), F(0), F(0)], [F(1), F(0), F(0)]]
    assert pencil[1] == [[F(0), F(0), F(0)], [F(0), F(0), F(1)], [F(0), F(1), F(0)]]
    # The LDL rows are the unit vectors, so R = I and P_s = G_s.
    assert basis_pencil == pencil


def test_lift_linear():
    ctx = QuotientContext(P("x0 - x1"))
    dec = find_sos_decomposition(ctx)
    pencil, basis_pencil = rational_lift(solve_symmetric_lift(ctx, dec))
    assert dec.weights == [F(1)]
    assert pencil == basis_pencil == [[[F(1)]]]


def test_lift_rejects_non_spanning_vectors():
    # Rows x1, 2*x1 and x0bar over the basis x1, x2, x0bar: rank 2 of 3.
    ctx = QuotientContext(LORENTZ)
    basis = monomial_basis_Mk(ctx, 1)
    fake = SosDecomposition(
        ell=0,
        k=1,
        multiplier=Poly.one(3),
        weights=[F(1), F(1), F(1)],
        basis=basis,
        gram=[[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]],
        rows=[[F(1), F(0), F(0)], [F(2), F(0), F(0)], [F(0), F(0), F(1)]],
    )
    assert [row_to_element(ctx, basis, row) for row in fake.rows] == [
        (P("x1", 3), Poly.zero(3)),
        (P("x1", 3) * 2, Poly.zero(3)),
        (Poly.zero(3), Poly.one(3)),
    ]
    with pytest.raises(NoSymmetricLift):
        solve_symmetric_lift(ctx, fake)
    assert poly_lift(ctx, fake) is None


def test_lift_rejects_an_inconsistent_system():
    # Unit rows span, but the Gram matrix diag(2, 2, 1) of the Lorentz cone's
    # degree-1 piece admits no symmetric S_s with X_0 W = sum_s X_s S_s.
    ctx = QuotientContext(LORENTZ)
    fake = SosDecomposition(
        ell=0,
        k=1,
        multiplier=Poly.one(3),
        weights=[F(2), F(2), F(1)],
        basis=monomial_basis_Mk(ctx, 1),
        gram=[[F(2), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(1)]],
        rows=[[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]],
    )
    with pytest.raises(NoSymmetricLift, match="no symmetric solution"):
        solve_symmetric_lift(ctx, fake)
    assert poly_lift(ctx, fake) is None


@pytest.mark.parametrize("h", [
    *(random_pencil_determinant(random.Random(seed), 3, d)
      for d in (1, 2, 3, 4) for seed in (1, 2)),
    renegar_derivative(random.Random(1), 4, 5),
    renegar_derivative(random.Random(1), 3, 5),
], ids=[*(f"hv-d{d}-seed{seed}" for d in (1, 2, 3, 4) for seed in (1, 2)),
        "renegar-cubic", "renegar-quartic"])
def test_lift_matches_the_poly_lift(h):
    # The lift reads the Gram matrix through the x_s and x0 basis maps; the
    # Poly oracle multiplies each of its columns as d Polys.  Same equations,
    # same unknowns, same elimination: the same pencil and basis pencil,
    # entry for entry, also where the system has free unknowns.
    ctx = QuotientContext(normalize_direction(h, [1] + [0] * (h.nvars - 1))[0])
    dec = find_sos_decomposition(ctx)
    assert rational_lift(solve_symmetric_lift(ctx, dec)) == poly_lift(ctx, dec)


def test_lift_states_its_system_with_integer_coefficients(monkeypatch):
    # The unknowns are the entries of S_s = W P_s, and each x_s sends a
    # basis element to one basis element, so every coefficient is 1 and an
    # equation has at most one unknown per x_s; only the right-hand side,
    # a column of X_0 W, carries the data.
    h = random_pencil_determinant(random.Random(1), 3, 4)
    ctx = QuotientContext(normalize_direction(h, [1, 0, 0])[0])
    dec = find_sos_decomposition(ctx)
    systems = []

    def recorded(rows, rhs, num_unknowns):
        systems.append(rows)
        return solve_sparse_system(rows, rhs, num_unknowns)

    monkeypatch.setattr(hyperdet.detrep, "solve_sparse_system", recorded)
    lifted = solve_symmetric_lift(ctx, dec)
    assert len(systems) == 1 and systems[0]
    assert all(c == 1 for row in systems[0] for c in row.values())
    assert max(len(row) for row in systems[0]) <= ctx.n
    assert rational_lift(lifted) == poly_lift(ctx, dec)


@pytest.mark.parametrize("h", [
    *(random_pencil_determinant(random.Random(1), 3, d) for d in (1, 2, 3, 4)),
    random_pencil_determinant(random.Random(5001), 3, 5),
    *(P(" - ".join(["x0^2"] + [f"x{i}^2" for i in range(1, n + 1)])) for n in range(2, 7)),
    renegar_derivative(random.Random(1), 3, 5),
], ids=[*(f"hv-d{d}" for d in (1, 2, 3, 4)), "hv-d5-seed5001",
        *(f"lorentz-n{n}" for n in range(2, 7)), "renegar-quartic"])
def test_lift_matches_the_z_system_where_both_are_unique(h):
    # Where the former system in the scaled entries Z_s = V^-T S_s V^-1 has
    # full column rank, so has the system in S_s (S = V^T Z V is a
    # bijection): the same pencil and basis pencil, entry for entry.
    ctx = QuotientContext(normalize_direction(h, [1] + [0] * (h.nvars - 1))[0])
    dec = find_sos_decomposition(ctx)
    assert rational_lift(solve_symmetric_lift(ctx, dec)) == z_system_lift(ctx, dec)


def _lift_bits(pencil):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for g in pencil for row in g for x in row)


def test_lift_with_free_unknowns_is_valid_and_no_wider():
    # The 4-variable Renegar cubic has free unknowns (159 pivots for 165
    # unknowns), which the lift now zeroes in S coordinates.  Both lifts are
    # D-symmetric, both basis pencils are R^-1 G_s R, and both determinants
    # leave zero remainder by h_monic; the new G is no wider (318 bits
    # against 767).
    h = renegar_derivative(random.Random(1), 4, 5)
    ctx = QuotientContext(normalize_direction(h, [1, 0, 0, 0])[0])
    dec = find_sos_decomposition(ctx)
    lifted = rational_lift(solve_symmetric_lift(ctx, dec))
    former = z_system_lift(ctx, dec)
    assert lifted != former
    rows = dec.rows
    for pencil, basis_pencil in (lifted, former):
        for g, p in zip(pencil, basis_pencil):
            assert all(dec.weights[a] * g[a][b] == dec.weights[b] * g[b][a]
                       for a in range(len(g)) for b in range(len(g)))
            assert mat_mul(rows, p) == mat_mul(g, rows)
        _, remainder = divide_by_h(ctx, pencil_determinant(basis_pencil))
        assert not any(remainder)
    assert _lift_bits(lifted[0]) <= _lift_bits(former[0])


def test_lift_weighted_symmetry_holds():
    rng = random.Random(8)
    for _ in range(4):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 3)
        h = random_pencil_determinant(rng, nvars, d)
        ctx = QuotientContext(h)
        dec = find_sos_decomposition(ctx)
        pencil, _ = solve_symmetric_lift(ctx, dec)
        weights = dec.weights
        m = len(weights)
        for g in pencil:
            for a in range(m):
                for b in range(m):
                    assert weights[a] * g[a][b] == weights[b] * g[b][a]


# -- pencil_determinant ----------------------------------------------------------

def test_pencil_determinant_lorentz():
    g1 = [[F(0), F(0), F(1)], [F(0), F(0), F(0)], [F(1), F(0), F(0)]]
    g2 = [[F(0), F(0), F(0)], [F(0), F(0), F(1)], [F(0), F(1), F(0)]]
    assert pencil_determinant([g1, g2]) == P("x0^3 - x0*x1^2 - x0*x2^2")


def test_pencil_determinant_scalar():
    assert pencil_determinant([[[F(1)]]]) == P("x0 - x1")


def test_pencil_determinant_zero_matrices():
    zero = [[F(0), F(0)], [F(0), F(0)]]
    assert pencil_determinant([zero]) == P("x0^2", 2)


def _pencil_matrix(pencil):
    """x0*I - sum_s x_s G_s as a matrix of Polys, for the Leibniz oracle."""
    n = len(pencil)
    size = len(pencil[0])
    mat = []
    for a in range(size):
        row = []
        for b in range(size):
            terms = {}
            if a == b:
                terms[(1,) + (0,) * n] = F(1)
            for s in range(n):
                if pencil[s][a][b]:
                    mono = tuple(1 if k == s + 1 else 0 for k in range(n + 1))
                    terms[mono] = terms.get(mono, F(0)) - pencil[s][a][b]
            row.append(Poly(n + 1, terms))
        mat.append(row)
    return mat


def test_pencil_determinant_matches_leibniz():
    rng = random.Random(77)
    for _ in range(12):
        size = rng.randint(1, 6)
        n = rng.randint(1, 4)
        pencil = [random_symmetric_rational(rng, size) for _ in range(n)]
        assert pencil_determinant(pencil) == leibniz_determinant(_pencil_matrix(pencil))


@st.composite
def conjugated_pencils(draw):
    """(pencil, diag(sigma) G_s diag(sigma)^-1 for every G_s), size 1-4."""
    size = draw(st.integers(1, 4))
    entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8))
    pencil = [[[draw(entries) for _ in range(size)] for _ in range(size)]
              for _ in range(draw(st.integers(1, 3)))]
    wide = st.builds(Fraction, st.integers(-2**40, 2**40).filter(bool), st.integers(1, 2**64))
    sigma = [draw(wide) for _ in range(size)]
    conjugated = [[[sigma[a] * g[a][b] / sigma[b] for b in range(size)] for a in range(size)]
                  for g in pencil]
    return pencil, conjugated


@settings(max_examples=60, deadline=None)
@given(conjugated_pencils())
def test_pencil_determinant_is_invariant_under_diagonal_similarity(drawn):
    # pencil_determinant scales each row by the lcm of its denominators; a
    # pencil conjugated by a diagonal with wide denominators, whose rows and
    # columns then carry unrelated factors, must still give the one
    # determinant, the Leibniz sum's.
    pencil, conjugated = drawn
    expected = leibniz_determinant(_pencil_matrix(pencil))
    assert pencil_determinant(pencil) == expected
    assert pencil_determinant(conjugated) == expected


def test_pencil_determinant_matches_scalar_bareiss_at_points():
    # At a rational point the polynomial determinant must equal the scalar
    # Bareiss determinant of the evaluated pencil x0*I - sum x_s G_s.
    rng = random.Random(12)
    for size in range(1, 13):
        n = rng.randint(1, 3)
        pencil = [random_symmetric_rational(rng, size, num=9, den=7) for _ in range(n)]
        det = pencil_determinant(pencil)
        for _ in range(2):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n + 1)]
            value = [[(point[0] if a == b else F(0))
                      - sum((point[s + 1] * pencil[s][a][b] for s in range(n)), F(0))
                      for b in range(size)] for a in range(size)]
            assert det.evaluate(point) == bareiss_determinant(value)


def test_block_diagonal_determinant_is_the_product_of_blocks():
    # Block-diagonal size-10 pencil: its determinant is the product of the
    # determinants of the two size-5 blocks, an independent oracle.
    rng = random.Random(5)
    blocks_a = [random_symmetric_rational(rng, 5) for _ in range(2)]
    blocks_b = [random_symmetric_rational(rng, 5) for _ in range(2)]

    def embed(top, bottom):
        g = [[F(0)] * 10 for _ in range(10)]
        for i in range(5):
            for j in range(5):
                g[i][j] = top[i][j]
                g[5 + i][5 + j] = bottom[i][j]
        return g

    pencil10 = [embed(a, b) for a, b in zip(blocks_a, blocks_b)]
    product = pencil_determinant(blocks_a) * pencil_determinant(blocks_b)
    assert pencil_determinant(pencil10) == product


# -- the cofactor: divide_by_h's quotient -------------------------------------------

def test_extract_cofactor_cubic():
    detp = P("x0^3 - x0*x1^2 - x0*x2^2")
    q, r = divide_by_h(QuotientContext(LORENTZ), detp)
    assert not any(r)
    assert q * LORENTZ == detp


def test_extract_cofactor_trivial():
    q, r = divide_by_h(QuotientContext(LORENTZ), LORENTZ)
    assert q == Poly.one(3) and not any(r)


def test_extract_cofactor_not_divisible():
    _, r = divide_by_h(QuotientContext(P("x0^2 - x1^2")), P("x0^2", 2))
    assert any(r)


# -- certify ------------------------------------------------------------------------

def test_certify_refuses_a_gram_basis_pencil_that_h_monic_does_not_divide(monkeypatch):
    # certify divides the determinant of the integer Gram-basis pencil by
    # h_monic and keeps the remainder check: a lift whose P has one entry
    # off by 1/dens[a] leaves a nonzero remainder, refused as "self_verify".
    lift = hyperdet.detrep.solve_symmetric_lift

    def corrupted(ctx, dec):
        pencil, (ints, dens) = lift(ctx, dec)
        ints[0][0][0] += 1
        return pencil, (ints, dens)

    monkeypatch.setattr(hyperdet.detrep, "solve_symmetric_lift", corrupted)
    for h in (LORENTZ, P("x0^2 - x1^2 - x2^2 - x3^2")):
        with pytest.raises(CertifyError, match="not a multiple of h_monic") as info:
            certify(h, (1,) + (0,) * (h.nvars - 1))
        assert info.value.stage == "self_verify"


def test_certify_lorentz_full():
    cert = certify(LORENTZ, (1, 0, 0))
    assert cert.size == 3
    assert cert.weights == [F(2), F(2), F(2)]
    assert cert.multiplier == Poly.one(3)
    assert cert.cofactor == P("x0", 3)
    assert pencil_determinant(cert.pencil) == P("x0^3 - x0*x1^2 - x0*x2^2")
    ok, diagnostics = verify_certificate(cert)
    assert ok and diagnostics == []


def test_certify_linear():
    cert = certify(P("x0 - x1"), (1, 0))
    assert cert.size == 1
    assert cert.cofactor == Poly.one(2)
    ok, _ = verify_certificate(cert)
    assert ok


def test_certify_rejects_definite_quadric():
    with pytest.raises(CertifyError) as err:
        certify(P("x0^2 + x1^2"), (1, 0))
    assert err.value.stage == "pd_witness"


def test_certify_rejects_vanishing_direction():
    with pytest.raises(DirectionVanishes):
        certify(P("x0^2", 2), (0, 1))


@pytest.mark.parametrize("h,e", [
    (P("x0^2 - x1", 2), (1, 0)),
    (P("3", 2), (1, 0)),
    (P("x0^2", 1), (1,)),
])
def test_certify_rejects_polynomials_outside_the_domain(h, e):
    # Inhomogeneous, constant and univariate inputs fail the input gate.
    with pytest.raises(InputError):
        certify(h, e)


@pytest.mark.parametrize("field,value", [
    ("lmax", -1),
    ("num_samples", -3),
    ("lmax", 1.5),
    ("lmax", True),
    ("num_samples", 2.5),
    ("seed", 0.5),
    ("num_samples", 10_001),
])
def test_certify_options_reject_out_of_range_values(field, value):
    with pytest.raises(InputError, match=field):
        CertifyOptions(**{field: value})


def test_certify_with_coordinate_change():
    cert = certify(LORENTZ, (2, 1, 0))
    ok, diagnostics = verify_certificate(cert)
    assert ok, diagnostics
    assert cert.e == (F(2), F(1), F(0))


def test_certify_two_variable_quadric_has_trivial_cofactor():
    # In two variables the quadric is realized exactly, no extra factor.
    cert = certify(P("x0^2 - x1^2"), (1, 0))
    assert cert.size == 2
    assert cert.cofactor == Poly.one(2)
    assert pencil_determinant(cert.pencil) == P("x0^2 - x1^2")


def test_certify_non_monic_input():
    # The certificate identity is stated for the monic rescaling; a scaled h
    # must still verify against its own recomputed h_monic.
    cert = certify(P("5*x0^2 - 5*x1^2 - 5*x2^2"), (1, 0, 0))
    assert verify_certificate(cert) == (True, [])
    assert pencil_determinant(cert.pencil) == cert.cofactor * P("x0^2 - x1^2 - x2^2")


def test_certify_random_three_variable_pencils():
    rng = random.Random(14)
    done = 0
    while done < 3:
        d = rng.randint(1, 3)
        h = random_pencil_determinant(rng, 3, d)
        cert = certify(h, (1, 0, 0))
        ok, diagnostics = verify_certificate(cert)
        assert ok, diagnostics
        assert cert.cofactor.degree == cert.size - d
        done += 1


def test_renegar_quartic_certifies_at_level_zero():
    # Known answer: the 3-variable Renegar quartic of seed 1, whose ell=0
    # SDP stops at MaxIterations with a positive margin; its rounding is PD.
    h = renegar_derivative(random.Random(1), 3, 5)
    assert h.degree == 4
    start = time.perf_counter()
    cert = certify(h, (1, 0, 0))
    assert time.perf_counter() - start < 10
    assert cert.multiplier == Poly.one(3)
    assert cert.size == 10
    assert verify_certificate(cert) == (True, [])


def test_renegar_four_variable_cubic_certifies_at_level_zero():
    # Known answer for a smooth 4-variable input that is not given as a
    # determinant: the Renegar cubic of seed 1 certifies at ell=0 with N=10.
    h = renegar_derivative(random.Random(1), 4, 5)
    assert h.degree == 3
    start = time.perf_counter()
    cert = certify(h, (1, 0, 0, 0))
    assert time.perf_counter() - start < 10
    assert cert.multiplier == Poly.one(4)
    assert cert.size == 10
    assert verify_certificate(cert) == (True, [])


def test_degree_five_pencil_determinant_certifies_in_seconds():
    # North-star gate: an HV quintic in 3 variables certifies at ell=0 with
    # N=15, and the full replay, whose check (c) runs on the 136 points of
    # the degree-15 principal lattice, confirms it within the same budget.
    h = random_pencil_determinant(random.Random(5001), 3, 5)
    start = time.perf_counter()
    cert = certify(h, (1, 0, 0))
    assert cert.multiplier == Poly.one(3)
    assert cert.size == 15
    assert verify_certificate(cert) == (True, [])
    assert time.perf_counter() - start < 10


def test_product_of_ten_real_lines_certifies_at_n_ten():
    # Known answer: prod_{a=1..10} (x0 - a*x1) = det(x0*I - x1*diag(1..10)).
    # Its Gram rows fix every entry at ell=0, so certify takes that one
    # matrix, the Bezoutian itself, with no SDP; a float solve there saw no
    # margin and the search used to end in Exhausted.
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    h = math.prod((x0 - x1 * a for a in range(1, 11)), start=Poly.one(2))
    start = time.perf_counter()
    cert = certify(h, (1, 0))
    assert cert.multiplier == Poly.one(2)
    assert cert.size == 10
    assert verify_certificate(cert) == (True, [])
    assert time.perf_counter() - start < 5


# certify returns the certificate it built; verify_certificate alone replays it.
_CERTIFY_CASES = [
    pytest.param(LORENTZ, (1, 0, 0), id="lorentz"),
    pytest.param(LORENTZ, (2, 1, 0), id="lorentz-tilted"),
    pytest.param(P("x0^3 - x0*x1^2 - x0*x2^2"), (1, 0, 0), id="lorentz-times-x0"),
    pytest.param(random_pencil_determinant(random.Random(3001), 3, 3), (1, 0, 0), id="hv3-3001"),
    pytest.param(LORENTZ, (3, 1, -1), id="lorentz-tilted-negative"),
] + [
    pytest.param(random_pencil_determinant(random.Random(seed), 3, 3), (1, 0, 0), id=f"hv3-{seed}")
    for seed in (1, 2, 3)
]


@pytest.mark.parametrize("h, e", _CERTIFY_CASES)
def test_certified_pencil_passes_every_replayed_check(h, e):
    # Checks (a), (b) and (d) hold by construction in certify, and (c) is
    # the identity certify divided out; the replay confirms all four.
    assert verify_certificate(certify(h, e)) == (True, [])


def test_certify_keeps_one_quotient_context_and_inverts_no_matrix(monkeypatch):
    # The context built at normalization serves the cofactor division too:
    # certify rebuilds no h_monic from T, which would need T's inverse.
    contexts = []
    init = QuotientContext.__init__

    def counting_init(self, h):
        contexts.append(h)
        init(self, h)

    monkeypatch.setattr(QuotientContext, "__init__", counting_init)
    certify(LORENTZ, (3, 1, -1))
    assert len(contexts) == 1


def test_verify_normalizes_once_and_keeps_one_quotient_context(monkeypatch):
    # verify takes h_monic and T from the one normalize_direction call that
    # certify makes too, and builds check (c)'s context from that h.
    cert = certify(LORENTZ, (3, 1, -1))
    calls, contexts = [], []
    init = QuotientContext.__init__

    def counting_normalize(h, e):
        calls.append((h, e))
        return normalize_direction(h, e)

    def counting_init(self, h):
        contexts.append(h)
        init(self, h)

    monkeypatch.setattr(hyperdet.detrep, "normalize_direction", counting_normalize)
    monkeypatch.setattr(QuotientContext, "__init__", counting_init)
    assert verify_certificate(cert) == (True, [])
    assert calls == [(cert.h, cert.e)]
    assert contexts == [normalize_direction(cert.h, cert.e)[0]]


def test_verify_refuses_a_transform_other_than_the_normalization_of_e():
    # Swapping rows 1 and 2 of T keeps T*e = (1,0,0) and the Lorentz cone
    # unchanged, so the pencil is still a valid one; T is not the one
    # normalize_direction gives for e, and check (d) compares T with it.
    data = certify(LORENTZ, (1, 0, 0)).to_json_dict()
    data["T"] = [data["T"][0], data["T"][2], data["T"][1]]
    assert verify_certificate(DetRepCertificate.from_json_dict(data)) == (
        False, ["(d) T is not the normalization of e"])


# -- check (c) on the principal lattice --------------------------------------------

def _ternary_lattice(size):
    """The points of check (c)'s degree-N lattice for three variables, in its order."""
    return [mono[1:] for mono in r_monomials_of_degree(4, size)]


@pytest.mark.parametrize("degree", range(13))
def test_principal_lattice_is_unisolvent_for_ternary_forms(degree):
    # The lattice route of check (c) rests on this: the degree-N monomials
    # in three variables, evaluated at the lattice points, form a
    # nonsingular matrix, so a degree-N form that vanishes there is zero.
    points = _ternary_lattice(degree)
    monomials = [m for m in itertools.product(range(degree + 1), repeat=3) if sum(m) == degree]
    assert sorted(points) == sorted(monomials)
    matrix = [[math.prod(F(v) ** e for v, e in zip(point, mono)) for mono in monomials]
              for point in points]
    assert bareiss_determinant(matrix) != 0


def _weighted_pencil(rng, size, n):
    """Weights D and n matrices G_s = D^-1 S_s, S_s symmetric, so D*G_s is symmetric."""
    weights = [F(rng.randint(1, 9)) / rng.randint(1, 9) for _ in range(size)]
    return weights, [[[x / w for x in row] for row, w in zip(
        random_symmetric_rational(rng, size, num=5, den=4), weights)] for _ in range(n)]


def _check_c_case(seed):
    """(ctx, weights, pencil, cofactor, kind): a pencil whose determinant is
    cofactor * h_monic, with D*G_s symmetric for the weights D, permuted out
    of block form, then left alone (kind 0), given a D-symmetric G tamper
    (1), a cofactor term of the right degree (2) or a cofactor of the wrong
    degree (3)."""
    rng = random.Random(seed)
    n = rng.choice([1, 2, 2, 2, 3])
    k, m = rng.randint(1, 3), rng.randint(0, 3)
    w_h, h_block = _weighted_pencil(rng, k, n)
    w_c, c_block = _weighted_pencil(rng, m, n)
    ctx = QuotientContext(pencil_determinant(h_block))
    cofactor = pencil_determinant(c_block) if m else Poly.one(n + 1)
    size = k + m
    order = rng.sample(range(size), size)
    weights = [(w_h + w_c)[i] for i in order]
    pencil = []
    for a_block, b_block in zip(h_block, c_block if m else [[]] * n):
        whole = [row + [F(0)] * m for row in a_block] + [[F(0)] * k + row for row in b_block]
        pencil.append([[whole[a][b] for b in order] for a in order])
    kind = seed % 4
    if kind == 1:
        g = rng.choice(pencil)
        a, b = rng.randrange(size), rng.randrange(size)
        delta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        g[a][b] += delta / weights[a]
        if a != b:
            g[b][a] += delta / weights[b]
        assert all(weights[i] * g[i][j] == weights[j] * g[j][i]
                   for i in range(size) for j in range(size))
    elif kind == 2:
        exps = rng.choice([e for e in itertools.product(range(m + 1), repeat=n + 1) if sum(e) == m])
        cofactor = cofactor + Poly.monomial(exps, rng.choice([-2, 1, Fraction(1, 3)]))
    elif kind == 3:
        inhomogeneous = cofactor + Poly.one(n + 1) if m else Poly.variable(n + 1, 1)
        cofactor = rng.choice([cofactor * Poly.variable(n + 1, 0), inhomogeneous, Poly.zero(n + 1)])
    return ctx, weights, pencil, cofactor, kind


@pytest.mark.parametrize("seed", range(36))
def test_packed_berkowitz_check_gives_the_verdict_of_the_poly_product(seed):
    # The n != 2 route of check (c) compares integer forms and forms no Poly
    # product.  Its verdict is that of det(x0*I - sum_s x_s G_s) ==
    # cofactor * h_monic by Leibniz and Poly products, for n = 1, 3 and 4,
    # on the true cofactor and on cofactors tampered in value, in degree and
    # in homogeneity.
    rng = random.Random(seed)
    n = (1, 3, 4)[seed % 3]
    k, m = rng.randint(1, 3), rng.randint(0, 2)
    w_h, h_block = _weighted_pencil(rng, k, n)
    w_c, c_block = _weighted_pencil(rng, m, n)
    ctx = QuotientContext(pencil_determinant(h_block))
    true = pencil_determinant(c_block) if m else Poly.one(n + 1)
    pencil = [[row + [F(0)] * m for row in a] + [[F(0)] * k + row for row in b]
              for a, b in zip(h_block, c_block if m else [[]] * n)]
    products = [[[w * x for x in row] for w, row in zip(w_h + w_c, g)] for g in pencil]
    diag, ints = _integer_pencil(w_h + w_c, products)
    det = leibniz_determinant(_pencil_matrix(pencil))
    exps = rng.choice([e for e in itertools.product(range(m + 1), repeat=n + 1) if sum(e) == m])
    x0 = Poly.variable(n + 1, 0)
    cofactors = [true, true * 2, true + Poly.monomial(exps, Fraction(1, 7)), Poly.zero(n + 1),
                 true * x0, true + Poly.one(n + 1) if m else true + x0, -true]
    verdicts = [_berkowitz_check(ctx, diag, ints, cofactor) is None for cofactor in cofactors]
    assert verdicts == [det == cofactor * ctx.h for cofactor in cofactors]
    assert verdicts[0] and not any(verdicts[1:])


@pytest.mark.parametrize("seed", range(48))
def test_lattice_check_agrees_with_the_division(seed):
    # The two routes of check (c) read the one integer pencil (D', Y'_s) of
    # the symmetric products D*G_s: the lattice route its lower triangles,
    # the Berkowitz route the similar D'^-1 Y'_s.  They accept the same
    # pencils and cofactors, and both reject every tamper; the Berkowitz
    # route's one product comparison has one diagnostic.
    ctx, weights, pencil, cofactor, kind = _check_c_case(seed)
    products = [[[w * x for x in row] for w, row in zip(weights, g)] for g in pencil]
    diag, ints = _integer_pencil(weights, products)
    lattice = _lattice_check(ctx, diag, ints, cofactor)
    berkowitz = _berkowitz_check(ctx, diag, ints, cofactor)
    assert (lattice is None) == (berkowitz is None) == (kind == 0), (lattice, berkowitz)
    assert berkowitz == (None if kind == 0 else "pencil determinant differs from cofactor * h_monic")


@st.composite
def wide_weight_pencils(draw):
    """(weights, pencil, k): G_s = D^-1 S_s, S_s symmetric with no entry
    between the first k indices and the rest, size 1-5, 1-3 matrices, and
    weight numerators and denominators up to 2**64."""
    size = draw(st.integers(1, 5))
    k = draw(st.integers(1, size))
    wide = st.integers(1, 2**64)
    weights = [Fraction(draw(wide), draw(wide)) for _ in range(size)]
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    pencil = []
    for _ in range(draw(st.integers(1, 3))):
        sym = [[F(0)] * size for _ in range(size)]
        for a in range(size):
            for b in range(a + 1):
                if (a < k) == (b < k):
                    sym[a][b] = sym[b][a] = draw(entry)
        pencil.append([[x / w for x in row] for row, w in zip(sym, weights)])
    return weights, pencil, k


@settings(max_examples=60, deadline=None)
@given(wide_weight_pencils())
def test_integer_pencil_keeps_the_determinant_with_wide_weights(drawn):
    # Wide weights send wide denominators through sigma, the content
    # division and _charpoly's per-row gcd.  The integer pencil keeps the
    # Leibniz determinant of G, and with h the determinant of the first
    # diagonal block, both routes accept the true cofactor, the second's.
    weights, pencil, k = drawn
    n = len(pencil)
    products = [[[w * x for x in row] for w, row in zip(weights, g)] for g in pencil]
    diag, ints = _integer_pencil(weights, products)
    assert unpacked_poly(*_charpoly(ints, diag), len(diag) + 1, n + 1) == leibniz_determinant(
        _pencil_matrix(pencil))

    def block_determinant(block):
        return leibniz_determinant(_pencil_matrix([[row[block] for row in g[block]] for g in pencil]))

    ctx = QuotientContext(block_determinant(slice(k)))
    cofactor = block_determinant(slice(k, None)) if k < len(weights) else Poly.one(n + 1)
    assert _berkowitz_check(ctx, diag, ints, cofactor) is None
    if n == 2:
        assert _lattice_check(ctx, diag, ints, cofactor) is None


def test_lattice_agreeing_wrong_cofactors_fail_check_c():
    # Both wrong cofactors equal the true one at every point of the degree-N
    # lattice; the degree condition of check (c) is what rejects them.
    cert = certify(random_pencil_determinant(random.Random(3001), 3, 3), (1, 0, 0))
    size, degree = cert.size, cert.size - 3
    x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
    total = x0 + x1 + x2
    wrong = [cert.cofactor * total * Fraction(1, size),
             cert.cofactor + (total - Poly.constant(3, size)) * x0 ** (degree - 1)]
    for cofactor in wrong:
        assert all(cofactor.evaluate(point) == cert.cofactor.evaluate(point)
                   for point in _ternary_lattice(size))
        data = cert.to_json_dict()
        data["cofactor"] = str(cofactor)
        assert verify_certificate(DetRepCertificate.from_json_dict(data)) == (
            False, [f"(c) cofactor is not a form of degree N - d = {degree} in x0..x2"])
        ctx = QuotientContext(normalize_direction(cert.h, cert.e)[0])
        products = [[[w * x for x in row] for w, row in zip(cert.weights, g)] for g in cert.pencil]
        assert _berkowitz_check(ctx, *_integer_pencil(cert.weights, products), cofactor) is not None


def test_lattice_check_names_the_first_failing_point():
    # A D-symmetric tamper of one pair of G_1 entries in the N=6 certificate
    # passes at (6, 0, 0), where the pencil is 6*I whatever G is, and the
    # diagnostic names (5, 1, 0): the lattice is walked with a0 descending.
    cert = certify(random_pencil_determinant(random.Random(3001), 3, 3), (1, 0, 0))
    g = cert.pencil[0]
    g[0][1] += 1 / cert.weights[0]
    g[1][0] += 1 / cert.weights[1]
    assert verify_certificate(cert) == (
        False, ["(c) pencil determinant differs from cofactor * h_monic at (5, 1, 0)"])


def test_verify_divides_by_nothing(monkeypatch):
    # Both routes of check (c) compare a determinant with cofactor * h_monic;
    # only certify divides by h_monic.  A tampered h in four variables fails
    # the Berkowitz route's one product comparison.
    lorentz4 = P("x0^2 - x1^2 - x2^2 - x3^2")
    certs = [certify(LORENTZ, (1, 0, 0)), certify(lorentz4, (1, 0, 0, 0))]

    def refuse(*args):
        raise AssertionError("verify divided by h_monic")

    monkeypatch.setattr(hyperdet.detrep, "divide_packed", refuse)
    monkeypatch.setattr(hyperdet.quotient, "divide_packed", refuse)
    for cert in certs:
        assert verify_certificate(cert) == (True, [])
    data = certs[1].to_json_dict()
    data["h"] = "x0^2 - x1^2 - x2^2 - 2*x3^2"
    assert verify_certificate(DetRepCertificate.from_json_dict(data)) == (
        False, ["(c) pencil determinant differs from cofactor * h_monic"])


# -- verify_certificate ---------------------------------------------------------------

def test_verify_fresh_certificate():
    cert = certify(LORENTZ, (1, 0, 0))
    assert verify_certificate(cert) == (True, [])


def test_verify_does_not_replay_the_lattice_without_weighted_symmetry():
    # Both routes of check (c) read the integer pencil built from the
    # symmetric D*G_s, the lattice route one triangle of it, so with (b)
    # failing check (c) is not replayed, and verify fails on (b): with two
    # pencil matrices and with three.
    for h, (a, b) in ((LORENTZ, (0, 2)), (P("x0^2 - x1^2 - x2^2 - x3^2"), (0, 1))):
        data = certify(h, (1,) + (0,) * (h.nvars - 1)).to_json_dict()
        data["G"][0][a][b] = "2"
        assert verify_certificate(DetRepCertificate.from_json_dict(data)) == (False, [
            "(b) D*G_1 is not symmetric",
            "(c) not replayed: it needs (a) and (b)",
        ])


def test_verify_detects_pencil_tamper():
    cert = certify(LORENTZ, (1, 0, 0))
    data = cert.to_json_dict()
    data["G"][0][0][2] = "2"
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(data))
    assert not ok
    assert any(d.startswith("(c)") for d in diagnostics)


@pytest.mark.parametrize("tamper", [
    lambda data: data.update(cofactor="x0 + x1"),
    lambda data: data["G"][1][0].__setitem__(0, "1/3"),
])
def test_verify_replays_the_cofactor_quotient(tamper):
    # A wrong cofactor, and a diagonal G entry (D*G stays symmetric) whose
    # determinant h_monic does not divide, fail check (c) and only (c).
    data = certify(LORENTZ, (1, 0, 0)).to_json_dict()
    tamper(data)
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(data))
    assert not ok and diagnostics
    assert all(d.startswith("(c)") for d in diagnostics)


def test_verify_detects_negated_weight():
    cert = certify(LORENTZ, (1, 0, 0))
    data = cert.to_json_dict()
    data["D"][0] = "-2"
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(data))
    assert not ok
    assert any(d.startswith("(a)") for d in diagnostics)


def test_json_roundtrip_preserves_certificate():
    cert = certify(LORENTZ, (1, 0, 0))
    text = cert.to_json()
    back = DetRepCertificate.from_json(text)
    assert verify_certificate(back) == (True, [])
    assert back.to_json() == text


@pytest.mark.parametrize("text", ["{", "[" * 100000 + "]" * 100000],
                         ids=["undecodable", "deeply-nested"])
def test_from_json_refuses_text_that_is_not_a_json_certificate(text):
    with pytest.raises(InputError):
        DetRepCertificate.from_json(text)


def test_verify_is_graceful_on_degenerate_certificates():
    cert = certify(LORENTZ, (1, 0, 0))

    zeroed = cert.to_json_dict()
    zeroed["h"] = "0"
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(zeroed))
    assert not ok and diagnostics

    singular_t = cert.to_json_dict()
    singular_t["T"] = [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(singular_t))
    assert not ok and diagnostics

    wrong_shape = cert.to_json_dict()
    wrong_shape["G"] = wrong_shape["G"][:1]
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(wrong_shape))
    assert not ok and diagnostics

    empty = {**cert.to_json_dict(), "N": 0, "D": [], "G": [[], []]}
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(empty))
    assert not ok and any(d.startswith("(c)") for d in diagnostics)

    inhomogeneous = cert.to_json_dict()
    inhomogeneous["h"] = "x0^2 - x1"
    ok, diagnostics = verify_certificate(DetRepCertificate.from_json_dict(inhomogeneous))
    assert not ok and diagnostics
