"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  All tolerances are pinned here: exact rational equality for
the algebraic identities, 1e-8 / 1e-6 for the SDP solver criterion, and the
stated wall-clock budgets.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

from hyperdet import (
    DetRepCertificate,
    Poly,
    certify,
    check_hyperbolic_sampled,
    parse_poly,
    verify_certificate,
)
from hyperdet.hyperbolicity import NOT_HYPERBOLIC, is_real_rooted, pd_witness_check
from hyperdet.quotient import QuotientContext, bezoutian_of
from hyperdet.sdp import solve_maxeig
from hyperdet.sos import find_sos_decomposition, monomial_basis_Mk, power_sum_multiplier

from conftest import (
    all_monomials,
    random_pencil_determinant,
    rational_rank,
)
from oracles import (
    UniPoly,
    bezout_matrix_univariate,
    evaluate_form,
    is_bezoutian,
    leading_principal_minors,
    pencil_determinant,
    row_to_element,
    substitute_line,
)


def P(text, nvars=None):
    return parse_poly(text, nvars)


def report(number: int, description: str):
    """Decorator printing one PASS/FAIL line per acceptance criterion."""

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        run.__name__ = fn.__name__
        return run

    return wrap


@report(1, "Lorentz end-to-end certificate, exact, < 1 s")
def test_criterion_1_lorentz_end_to_end():
    h = P("x0^2 - x1^2 - x2^2")
    start = time.perf_counter()
    cert = certify(h, (1, 0, 0))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    assert cert.size == 3
    assert cert.multiplier == Poly.one(3)  # ell = 0
    assert cert.weights == [Fraction(2)] * 3
    determinant = pencil_determinant(cert.pencil)
    assert determinant == P("x0^3 - x0*x1^2 - x0*x2^2")  # zero tolerance
    assert cert.cofactor == P("x0", 3)
    for g in cert.pencil:
        for a in range(3):
            for b in range(3):
                assert cert.weights[a] * g[a][b] == cert.weights[b] * g[b][a]


@report(2, "linear polynomial certifies with N=1 and cofactor 1")
def test_criterion_2_linear_case():
    cert = certify(P("x0 - x1"), (1, 0))
    assert cert.size == 1
    assert cert.cofactor == Poly.one(2)
    assert pencil_determinant(cert.pencil) == P("x0 - x1")
    assert verify_certificate(cert) == (True, [])


@report(3, "Bezout criterion: 200 real-simple PD + 200 complex-factor not PD, < 10 s")
def test_criterion_3_bezout_criterion_suite():
    rng = random.Random(2024)
    pool = sorted({Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4)})
    start = time.perf_counter()
    for _ in range(200):
        k = rng.randint(2, 5)
        f = UniPoly([1])
        for r in rng.sample(pool, k):
            f = f * UniPoly([-r, 1])
        minors = leading_principal_minors(bezout_matrix_univariate(f, f.derivative()))
        assert all(m > 0 for m in minors), f"expected PD for {f}"
    for _ in range(200):
        k = rng.randint(0, 3)
        f = UniPoly([1])
        for r in rng.sample(pool, k):
            f = f * UniPoly([-r, 1])
        b, c = rng.randint(-4, 4), rng.randint(1, 12)
        while b * b - 4 * c >= 0:
            b, c = rng.randint(-4, 4), rng.randint(1, 12)
        f = f * UniPoly([c, b, 1])  # irreducible quadratic factor
        minors = leading_principal_minors(bezout_matrix_univariate(f, f.derivative()))
        assert any(m <= 0 for m in minors), f"expected a nonpositive minor for {f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


def _random_h_p(rng, nvars, degree):
    from conftest import random_homogeneous

    h = random_homogeneous(rng, nvars, degree, monic_in_x0=True)
    monos = [m for m in all_monomials(nvars, rng.randint(0, degree + 1)) if m[0] < degree]
    while not monos:
        monos = [m for m in all_monomials(nvars, rng.randint(0, degree + 1)) if m[0] < degree]
    rng.shuffle(monos)
    terms = {m: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for m in monos[:4]}
    p = Poly(nvars, terms)
    if p.is_zero:
        p = Poly(nvars, {monos[0]: Fraction(1)})
    return h, p


@report(4, "Bezoutian structure suite: 100 random (h, p), exact, zero failures")
def test_criterion_4_bezoutian_structure_suite():
    rng = random.Random(77)
    for _ in range(100):
        nvars = rng.randint(2, 4)  # n <= 3
        degree = rng.randint(1, 4)  # d <= 4
        h, p = _random_h_p(rng, nvars, degree)
        ctx = QuotientContext(h)
        omega = bezoutian_of(ctx, p)
        assert is_bezoutian(ctx, omega)
        e = (1,) + (0,) * (nvars - 1)
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars - 1))
            lhs = evaluate_form(omega, v)
            f_line = substitute_line(ctx.h, e, (0,) + v)
            g_line = substitute_line(p, e, (0,) + v)
            assert lhs == bezout_matrix_univariate(f_line, g_line)


def _smooth_corpus():
    """Ten real-smooth hyperbolic polynomials for the decomposition gate.

    Random symmetric-pencil determinants are drawn in 3 variables, where
    they are generically smooth; 4-variable entries come from explicitly
    smooth constructions (pencil determinants in 4 variables of degree >= 2
    acquire real singular points from repeated-eigenvalue directions).
    """
    rng = random.Random(90210)
    corpus = [
        P("x0^3 - x0*x1^2 - x0*x2^2"),
        P("x0^2 - x1^2 - x2^2"),
        P("x0^2 - x1^2 - x2^2 - x3^2"),
        P("x0^3 - x0*x1^2 - x0*x2^2 - x0*x3^2"),
        P("x0^2 - x1^2 - x2^2 - x3^2") * P("x0^2 - 1/4*x1^2 - 1/2*x2^2 - 1/3*x3^2"),
        random_pencil_determinant(rng, 3, 2),
        random_pencil_determinant(rng, 3, 3),
        random_pencil_determinant(rng, 3, 4),
        random_pencil_determinant(rng, 4, 1),
        random_pencil_determinant(rng, 3, 4),
    ]
    return corpus


@report(5, "SOS exactness gate on a 10-polynomial smooth corpus, ell <= 4, < 60 s each")
def test_criterion_5_sos_exactness_gate():
    for index, h in enumerate(_smooth_corpus()):
        ctx = QuotientContext(h)
        assert pd_witness_check(ctx, 32, 0).ok, f"corpus[{index}] failed the PD witness"
        start = time.perf_counter()
        dec = find_sos_decomposition(ctx, ell_max=4)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"corpus[{index}] took {elapsed:.1f}s"
        assert dec.ell <= 4
        # Independent exact replay of multiplier * omega0 = sum d_i u_i (x) u_i.
        omega = bezoutian_of(ctx, ctx.h.derivative(0))
        multiplier = power_sum_multiplier(ctx, dec.ell)
        assert dec.multiplier == multiplier
        d = ctx.d
        vectors = [row_to_element(ctx, dec.basis, row) for row in dec.rows]
        for a in range(d):
            for b in range(d):
                acc = Poly.zero(ctx.nvars)
                for w, u in zip(dec.weights, vectors):
                    acc = acc + u[a] * u[b] * w
                assert acc == multiplier * omega[a][b], f"corpus[{index}] entry {(a, b)}"
        assert all(w > 0 for w in dec.weights)
        # Full-rank generating rows over the monomial basis of degree k.
        basis = monomial_basis_Mk(ctx, dec.k)
        assert dec.basis == basis, f"corpus[{index}] basis"
        assert rational_rank(dec.rows) == len(basis), f"corpus[{index}] rank deficit"


@report(6, "SDP solver: 50 feasible instances, residual <= 1e-8, t >= 1 - 1e-6")
def test_criterion_6_sdp_feasible_instances():
    rng = np.random.default_rng(4242)
    for trial in range(50):
        m = int(rng.integers(2, 51))
        r_mat = rng.standard_normal((m, m))
        gstar = r_mat.T @ r_mat + np.eye(m)
        mats, rhs = [np.eye(m)], [np.trace(gstar)]
        for _ in range(int(rng.integers(1, max(2, m // 2)))):
            a = rng.standard_normal((m, m))
            a = 0.5 * (a + a.T)
            mats.append(a)
            rhs.append(np.sum(a * gstar))
        sol = solve_maxeig(np.array(mats), np.array(rhs))
        assert sol.status == "Optimal", f"trial {trial}: {sol.status} ({sol.detail})"
        assert sol.residual <= 1e-8, f"trial {trial}: residual {sol.residual:.2e}"
        assert sol.t >= 1 - 1e-6, f"trial {trial}: t {sol.t}"


def _mutate(data: dict, path: tuple, value: str) -> dict:
    clone = json.loads(json.dumps(data))
    target = clone
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return clone


@report(7, "tamper detection: 20 single-entry flips all fail verification")
def test_criterion_7_tamper_detection():
    lorentz = certify(P("x0^2 - x1^2 - x2^2"), (1, 0, 0)).to_json_dict()
    cubic = certify(P("x0^3 - x0*x1^2 - x0*x2^2"), (1, 0, 0)).to_json_dict()

    def bump(cert, path):
        target = cert
        for key in path[:-1]:
            target = target[key]
        return str(Fraction(target[path[-1]]) + 1)

    tampers = [
        (lorentz, ("D", 0), "3"),
        (lorentz, ("D", 0), "-2"),
        (lorentz, ("D", 2), "1"),
        (lorentz, ("G", 0, 0, 2), "2"),
        (lorentz, ("G", 0, 1, 1), "1"),
        (lorentz, ("G", 1, 2, 2), "-1"),
        (lorentz, ("G", 0, 0, 1), "1"),
        (lorentz, ("G", 1, 1, 2), "1/2"),
        (lorentz, ("T", 0, 0), "2"),
        (lorentz, ("T", 0, 1), "1"),
        (lorentz, ("T", 1, 0), "1"),
        (lorentz, ("e", 1), "1"),
        (lorentz, ("e", 0), "2"),
        (lorentz, ("h",), "x0^2 - 2*x1^2 - x2^2"),
        (lorentz, ("h",), "2*x0^2 - x1^2 - x2^2"),
        (lorentz, ("cofactor",), "x0 + x1"),
        (lorentz, ("cofactor",), "2*x0"),
        (cubic, ("D", 0), bump(cubic, ("D", 0))),
        (cubic, ("G", 0, 0, 0), bump(cubic, ("G", 0, 0, 0))),
        (cubic, ("G", 1, 2, 3), bump(cubic, ("G", 1, 2, 3))),
    ]
    assert len(tampers) == 20
    for idx, (base, path, value) in enumerate(tampers):
        tampered = _mutate(base, path, value)
        cert = DetRepCertificate.from_json_dict(tampered)
        ok, diagnostics = verify_certificate(cert)
        assert not ok, f"tamper {idx} at {path} went undetected"
        assert diagnostics


@report(8, "negative controls: definite quadric refused; singular quadric witnessed")
def test_criterion_8_negative_controls():
    verdict = check_hyperbolic_sampled(P("x0^2 + x1^2 + x2^2"), (1, 0, 0))
    assert verdict.status == NOT_HYPERBOLIC
    assert verdict.witness is not None
    restriction = substitute_line(P("x0^2 + x1^2 + x2^2"), (1, 0, 0), verdict.witness)
    assert not is_real_rooted(restriction.coeffs)  # exact disproof

    report_pd = pd_witness_check(QuotientContext(P("x0^2 - x1^2", 3)))
    assert not report_pd.ok
    assert report_pd.witness == (Fraction(0), Fraction(1))
