"""Exact real-root counting and sampled hyperbolicity verdicts.

Both sampled checks restrict h to a line in one way, in integers alone.
Once per call, the x0 coefficients c_0..c_d of den*h_monic, the normalized h
made monic in x0 and scaled by the lcm den of its denominators, become
integer term lists in x1..xn (integer_forms, shared with verify's lattice
check).  A line point w of x1..xn is read as the integer vector u = q*w,
q > 0 a common denominator (sample_directions draws it in that form), and
the restriction is the coefficient list [c_j(u)], lowest first, which the
integer Sturm chain reads.
Because h is homogeneous, c_j(q*w) = q^(d-j)*c_j(w), so that list is
den*q^d*h_monic(s/q, w): a positive multiple of h_monic(t, w) in a positively
scaled variable, with the same signs, real roots and distinct roots.
Hyperbolicity asks that every root be real; the PD witness asks for d
distinct real roots, which by Hermite's theorem is exactly positive
definiteness of the derivative Bézoutian at w (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 4).  The verdicts are
asymmetric: a NotHyperbolic verdict carries an exact witness line, while a
HyperbolicSampled verdict only says no sampled line failed.  The PD witness
check plays the same role for the smoothness hypothesis; on a cylinder it
first tests one line read from the exact lineality space, where the witness
is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .errors import InputError, ZeroPolynomial
from .linalg import nullspace
from .poly import Monomial, Poly, RationalLike, normalize_direction
from .quotient import QuotientContext

HYPERBOLIC_SAMPLED = "HyperbolicSampled"
NOT_HYPERBOLIC = "NotHyperbolic"
SINGULAR_SUSPECTED = "SingularSuspected"

DEFAULT_NUM_SAMPLES = 64
_SAMPLE_RANGE = 10  # coordinates drawn from {-10..10}/{1..10}


@dataclass(frozen=True)
class HyperbolicityVerdict:
    """The sampled verdict; context is the normalized h its lines were read
    from, so a caller can run pd_witness_check without normalizing again."""

    status: str
    witness: tuple[Fraction, ...] | None
    samples_used: int
    context: QuotientContext = field(compare=False, repr=False)

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        out["samples_used"] = self.samples_used
        return out


@dataclass(frozen=True)
class PdWitnessReport:
    ok: bool
    witness: tuple[Fraction, ...] | None
    samples_used: int

    def to_json_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.witness is not None:
            out["witness"] = [str(c) for c in self.witness]
        out["samples_used"] = self.samples_used
        return out


def _primitive(coeffs: list[int]) -> list[int]:
    """Divide an integer polynomial by its (positive) content."""
    g = gcd(*coeffs)
    return coeffs if g == 1 else [c // g for c in coeffs]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of a mod b, computed over the integers.

    Before each elimination step the running remainder is multiplied by
    |lc(b)| / gcd(lead, lc(b)), which makes the quotient term an integer.
    """
    rem = list(a)
    lead_b = b[-1]
    while len(rem) >= len(b):
        lead = rem[-1]
        g = gcd(lead, lead_b)
        scale = abs(lead_b) // g
        if scale != 1:
            rem = [c * scale for c in rem]
        q = lead // g if lead_b > 0 else -(lead // g)
        k = len(rem) - len(b)
        for i, c in enumerate(b):
            rem[k + i] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def sturm_chain(coeffs: Sequence[int | Fraction]) -> list[list[int]]:
    """Sturm chain of a nonzero f as integer coefficient lists, lowest first.

    f is given by its int or Fraction coefficients, lowest first, with a
    nonzero leading one.  A primitive pseudo-remainder sequence: f is scaled
    to a primitive integer polynomial, and each entry after f' is the negated
    pseudo-remainder of the two before it, divided by its content.  Every
    factor applied is positive, so each entry is a positive multiple of the
    rational Euclidean chain's and has the same signs, hence the same root
    counts.  The last entry is a multiple of gcd(f, f').
    """
    den = lcm(*(c.denominator for c in coeffs))
    chain = [_primitive([c.numerator * (den // c.denominator) for c in coeffs])]
    if len(chain[0]) > 1:
        chain.append(_primitive([i * c for i, c in enumerate(chain[0])][1:]))
        while len(chain[-1]) > 1:
            rem = _pseudo_remainder(chain[-2], chain[-1])
            if not rem:
                break
            chain.append(_primitive([-c for c in rem]))
    return chain


def _sign_variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _distinct_real_roots(chain: Sequence[Sequence[int]]) -> int:
    at_plus = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus = [s if len(p) % 2 else -s for s, p in zip(at_plus, chain)]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def is_real_rooted(coeffs: Sequence[int | Fraction]) -> bool:
    """True iff every complex root is real (multiplicities allowed).

    coeffs are f's, lowest first, as for sturm_chain; an empty sequence is
    the zero polynomial (ZeroPolynomial).  The last element of the Sturm
    chain is gcd(f, f'), so f has deg f - deg gcd distinct complex roots;
    all are real iff the chain counts that many real ones.
    """
    if not coeffs:
        raise ZeroPolynomial("the zero polynomial has no well-defined roots")
    if len(coeffs) == 1:
        return True
    chain = sturm_chain(coeffs)
    return _distinct_real_roots(chain) == len(chain[0]) - len(chain[-1])


def sample_directions(dim: int, num_samples: int, seed: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Deterministic sample stream of nonzero points u/q, u integer and q > 0:
    signed unit vectors first (q = 1), then rationals with coordinates from
    {-K..K}/{1..K}, K = 10, where q is the lcm of the drawn denominators."""
    produced = 0
    for i in range(dim):
        for sign in (1, -1):
            if produced >= num_samples:
                return
            produced += 1
            yield tuple(sign if j == i else 0 for j in range(dim)), 1
    rng = random.Random(seed)
    while produced < num_samples:
        draws = [(rng.randint(-_SAMPLE_RANGE, _SAMPLE_RANGE), rng.randint(1, _SAMPLE_RANGE))
                 for _ in range(dim)]
        if not any(num for num, _ in draws):
            continue
        q = lcm(*(den for _, den in draws))
        produced += 1
        yield tuple(num * (q // den) for num, den in draws), q


def check_num_samples(num_samples: int) -> None:
    """InputError for a sample count that is not a positive int."""
    if not isinstance(num_samples, int) or isinstance(num_samples, bool):
        raise InputError(f"num_samples must be an int, got {num_samples!r}")
    if num_samples < 1:
        raise InputError(f"num_samples must be positive, got {num_samples}")


IntegerForm = list[tuple[Monomial, int]]


def integer_forms(p: Poly) -> tuple[list[IntegerForm], int]:
    """(forms, den): the x0 coefficients c_0, c_1, ... of den*p, lowest power
    first, as (exponents of x1..xn, int) terms; den > 0 is the lcm of p's
    denominators."""
    den = lcm(*(c.denominator for _, c in p.terms()))
    return [[(mono[1:], c.numerator * (den // c.denominator)) for mono, c in form.terms()]
            for form in p.x0_coefficients()], den


def _integer_point(w: Sequence[Fraction]) -> list[int]:
    """u = q*w, with q > 0 the lcm of the denominators of w."""
    q = lcm(*(c.denominator for c in w))
    return [c.numerator * (q // c.denominator) for c in w]


def _restriction(forms: Sequence[IntegerForm], u: Sequence[int]) -> list[int]:
    """[c_j(u)] lowest first, for the forms of integer_forms(p): the
    coefficients of den*q^d*p(s/q, w) when u = q*w and p has degree d.

    Each power u_i^e is computed once per line, and only for an exponent
    that some term uses.
    """
    powers: dict[tuple[int, int], int] = {}
    coeffs = []
    for form in forms:
        total = 0
        for mono, c in form:
            for i, e in enumerate(mono):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[i, e] = u[i] ** e
                    c *= power
            total += c
        coeffs.append(total)
    return coeffs


def _has_distinct_real_roots(forms: Sequence[IntegerForm], u: Sequence[int]) -> bool:
    """True iff h_monic(t, u) has d = len(forms) - 1 distinct real roots."""
    chain = sturm_chain(_restriction(forms, u))
    return _distinct_real_roots(chain) == len(forms) - 1


def check_hyperbolic_sampled(
    h: Poly,
    e: Sequence[RationalLike],
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> HyperbolicityVerdict:
    """Test real-rootedness of h along sampled lines through e.

    Returns NotHyperbolic with the first failing offset (an exact disproof),
    or HyperbolicSampled when every sampled line passes (a heuristic verdict).
    normalize_direction gives h_norm and T with T*e = (1,0,...,0), so
    h(t*e + v) = h_norm(t + (T*v)_0, w) with w = (T*v)_1..n: the line through
    v is h_monic(t, w) shifted in t and scaled by h(e), which changes no
    root's realness.  The product is taken in integers: T[1:] scaled by the
    lcm r of its denominators, times the integer sample q*v, gives
    u = r*q*w, a positive multiple of w; the witness v is formed only when
    its line fails.  num_samples must be a positive int (InputError).
    """
    check_num_samples(num_samples)
    h_norm, t_mat = normalize_direction(h, e)
    ctx = QuotientContext(h_norm)
    forms, _ = integer_forms(ctx.h)
    r = lcm(*(c.denominator for row in t_mat[1:] for c in row))
    t_int = [[c.numerator * (r // c.denominator) for c in row] for row in t_mat[1:]]
    used = 0
    for v_int, q in sample_directions(h.nvars, num_samples, seed):
        used += 1
        u = [sum(map(mul, row, v_int)) for row in t_int]
        if not is_real_rooted(_restriction(forms, u)):
            witness = tuple(Fraction(c, q) for c in v_int)
            return HyperbolicityVerdict(NOT_HYPERBOLIC, witness, used, ctx)
    return HyperbolicityVerdict(HYPERBOLIC_SAMPLED, None, used, ctx)


def lineality_space(h: Poly) -> list[tuple[Fraction, ...]]:
    """Basis of the lineality space {v : h(x + v) = h(x) for all x} of a
    homogeneous h, in reduced row echelon form with a unit at each free
    coordinate (linalg.nullspace); empty when h depends on every direction.

    For homogeneous h, h(x + s*v) = h(x) for all s exactly when
    sum_i v_i dh/dx_i is the zero polynomial, so the space is the nullspace
    of one linear system: n+1 unknowns, one row per monomial of degree d-1.
    """
    rows: dict[Monomial, dict[int, Fraction]] = {}
    for mono, c in h.terms():
        for i, e in enumerate(mono):
            if e:
                lowered = mono[:i] + (e - 1,) + mono[i + 1:]
                rows.setdefault(lowered, {})[i] = c * e
    return nullspace(list(rows.values()), h.nvars)


def pd_witness_check(
    ctx: QuotientContext,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> PdWitnessReport:
    """Check that the Bézoutian of dh/dx0 is positive definite at sampled v.

    At v it is the Hermite matrix of h_monic(t, v), which is positive
    definite exactly when h_monic(t, v) has d distinct real roots (Hermite),
    so the check counts them with the Sturm chain.  Positive definiteness at
    every nonzero v is the working proxy for "hyperbolic and real-smooth"; a
    failure pinpoints a line whose restriction has a repeated or complex
    root.  num_samples must be a positive int (InputError).

    When h is a cylinder, one exact line is tested before any sampled line:
    w = v[1:] for the first vector v of lineality_space(h), counted in
    samples_used.  e = (1,0,...,0) is not in the lineality space, because
    h(e) != 0 = h(v); so v's free coordinate is not x0 (that basis vector
    would be e), w holds its unit, and h_monic(t, w) = h(t*e - v_0*e + v) =
    (t - v_0)^d, which for d >= 2 has one distinct root.  So a cylinder of
    degree d >= 2 is refused at w with samples_used = 1, whatever the
    samples would say.  For d = 1 that line has d distinct roots, and a
    linear h goes on to pass every sampled line (samples_used is
    num_samples + 1).
    """
    check_num_samples(num_samples)
    forms, _ = integer_forms(ctx.h)
    used = 0
    lineality = lineality_space(ctx.h)
    if lineality:
        used = 1
        w = lineality[0][1:]
        if not _has_distinct_real_roots(forms, _integer_point(w)):
            return PdWitnessReport(False, w, used)
    for u, q in sample_directions(ctx.n, num_samples, seed):
        used += 1
        if not _has_distinct_real_roots(forms, u):
            return PdWitnessReport(False, tuple(Fraction(c, q) for c in u), used)
    return PdWitnessReport(True, None, used)
