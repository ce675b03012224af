"""Exact real-root counting and sampled hyperbolicity verdicts.

Both sampled checks run one integer kernel per line, with no Fraction and
no Poly in it: the restriction h_monic(t, w) to the line at a point w of
x1..xn, read from QuotientContext.line_forms by quotient.restriction, and
root_counts' one walk over its primitive pseudo-remainder sequence.
README step 3 states that kernel and why its signs and root counts are
those of h_monic(t, w).
Hyperbolicity asks that every root be real; the PD witness asks for d
distinct real roots, which by Hermite's theorem is exactly positive
definiteness of the derivative Bézoutian at w.

The sample stream is defined by random.Random(seed).getrandbits and the
rejection rule of Random.randint: a numerator is the first 5-bit draw below
21, a denominator the first 4-bit draw below 10 (sample_directions).  The
verdicts are asymmetric: a NotHyperbolic verdict carries an exact witness
line, while a HyperbolicSampled verdict only says no sampled line failed.
The PD witness check plays the same role for the smoothness hypothesis; on
a cylinder it first tests one line read from the exact lineality space,
where the witness is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul, sub
from typing import Iterator, Sequence

from .errors import InputError, ZeroPolynomial
from .linalg import nullspace
from .poly import Monomial, Poly, RationalLike, normalize_direction
from .quotient import QuotientContext, restriction

HYPERBOLIC_SAMPLED = "HyperbolicSampled"
NOT_HYPERBOLIC = "NotHyperbolic"
SINGULAR_SUSPECTED = "SingularSuspected"

DEFAULT_NUM_SAMPLES = 64
_SAMPLE_RANGE = 10  # coordinates drawn from {-10..10}/{1..10}
_MAX_SAMPLES = 10_000  # bounds the time of a sampled check (README "Exit codes")
_denominator = attrgetter("denominator")


@dataclass(frozen=True)
class HyperbolicityVerdict:
    """The sampled verdict; context is the normalized h its lines were read
    from, so a caller can run pd_witness_check without normalizing or
    compiling again."""

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


def _sturm_walk(coeffs: Sequence[int | Fraction]) -> Iterator[list[int]]:
    """The Sturm chain of a nonzero f, one integer entry at a time.

    f is given by its int or Fraction coefficients, lowest first, with a
    nonzero leading one; no coefficients at all is the zero polynomial
    (ZeroPolynomial).  A primitive pseudo-remainder sequence: f is scaled
    to a primitive integer polynomial, and each entry after f' is the
    negated pseudo-remainder of the two before it, divided by its content.
    The pseudo-remainder scales the running remainder by
    |lc(b)| / gcd(lead, lc(b)) before each elimination step, which makes
    the quotient term an integer.  Every factor applied is positive, so
    each entry is a positive multiple of the rational Euclidean chain's and
    has the same signs, hence the same root counts.  The last entry is a
    multiple of gcd(f, f').  Only the two latest entries are held.
    """
    if not coeffs:
        raise ZeroPolynomial("the zero polynomial has no well-defined roots")
    den = lcm(*map(_denominator, coeffs))
    a = list(map(int, coeffs)) if den == 1 else [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*a)
    if g != 1:
        a = [c // g for c in a]
    yield a
    if len(a) == 1:
        return
    b = list(map(mul, range(1, len(a)), a[1:]))
    g = gcd(*b)
    if g != 1:
        b = [c // g for c in b]
    yield b
    while len(b) > 1:
        rem = list(a)
        lead_b = b[-1]
        while len(rem) >= len(b):
            lead = rem[-1]
            g = gcd(lead, lead_b)
            scale = abs(lead_b) // g
            if scale != 1:
                rem = list(map(scale.__mul__, rem))
            q = lead // g if lead_b > 0 else -(lead // g)
            k = len(rem) - len(b)
            rem[k:] = map(sub, rem[k:], map(q.__mul__, b))
            while rem and rem[-1] == 0:
                rem.pop()
        if not rem:
            return
        g = -gcd(*rem)
        a, b = b, [c // g for c in rem]
        yield b


def root_counts(coeffs: Sequence[int | Fraction]) -> tuple[int, int]:
    """(distinct real roots, distinct complex roots) of a nonzero f.

    coeffs are f's, lowest first, as for _sturm_walk.  One pass over the
    chain counts the sign changes at -oo and +oo as each entry arrives, from
    its leading coefficient and degree; their difference is the number of
    distinct real roots (Sturm).  The last entry is a multiple of
    gcd(f, f'), so f has deg f - deg gcd distinct complex roots, the real
    ones among them.
    """
    walk = _sturm_walk(coeffs)
    entry = next(walk)
    degree = len(entry) - 1
    plus = entry[-1] > 0
    minus = plus is (len(entry) % 2 == 1)
    real = 0
    for entry in walk:
        at_plus = entry[-1] > 0
        at_minus = at_plus is (len(entry) % 2 == 1)
        real += (at_minus is not minus) - (at_plus is not plus)
        plus, minus = at_plus, at_minus
    return real, degree - len(entry) + 1


def is_real_rooted(coeffs: Sequence[int | Fraction]) -> bool:
    """True iff every complex root is real (multiplicities allowed).

    coeffs are f's, lowest first, as for _sturm_walk; an empty sequence is
    the zero polynomial (ZeroPolynomial).
    """
    real, distinct = root_counts(coeffs)
    return real == distinct


def sample_directions(dim: int, num_samples: int, seed: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Deterministic sample stream of nonzero points u/q, u integer and q > 0:
    signed unit vectors first (q = 1), then rationals with coordinates from
    {-K..K}/{1..K}, K = 10, where q is the lcm of the drawn denominators.

    The rationals come from random.Random(seed): for each coordinate a
    numerator, the first getrandbits(5) result below 2K + 1 = 21, minus K,
    then a denominator, the first getrandbits(4) result below K, plus one.
    That is the rejection rule of Random.randint(-K, K) and
    Random.randint(1, K), so the stream is theirs value for value.  A draw
    whose numerators are all zero is skipped.
    """
    produced = 0
    for i in range(dim):
        for sign in (1, -1):
            if produced >= num_samples:
                return
            produced += 1
            yield tuple(sign if j == i else 0 for j in range(dim)), 1
    bits = random.Random(seed).getrandbits
    span = 2 * _SAMPLE_RANGE + 1
    num_bits, den_bits = span.bit_length(), _SAMPLE_RANGE.bit_length()
    while produced < num_samples:
        nums = []
        dens = []
        for _ in range(dim):
            num = bits(num_bits)
            while num >= span:
                num = bits(num_bits)
            den = bits(den_bits)
            while den >= _SAMPLE_RANGE:
                den = bits(den_bits)
            nums.append(num - _SAMPLE_RANGE)
            dens.append(den + 1)
        if not any(nums):
            continue
        q = lcm(*dens)
        produced += 1
        yield tuple(map(mul, nums, map(q.__floordiv__, dens))), q


def check_num_samples(num_samples: int) -> None:
    """InputError for a sample count that is not an int from 1 to _MAX_SAMPLES."""
    if not isinstance(num_samples, int) or isinstance(num_samples, bool):
        raise InputError(f"num_samples must be an int, got {num_samples!r}")
    if num_samples < 1:
        raise InputError(f"num_samples must be positive, got {num_samples}")
    if num_samples > _MAX_SAMPLES:
        raise InputError(f"num_samples must be at most {_MAX_SAMPLES}, got {num_samples}")


def _integer_point(w: Sequence[Fraction]) -> list[int]:
    """u = q*w, with q > 0 the lcm of the denominators of w."""
    q = lcm(*(c.denominator for c in w))
    return [c.numerator * (q // c.denominator) for c in w]


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
    its line fails.  num_samples must be an int from 1 to 10000 (InputError).
    """
    check_num_samples(num_samples)
    h_norm, t_mat = normalize_direction(h, e)
    ctx = QuotientContext(h_norm)
    forms, _ = ctx.line_forms
    r = lcm(*(c.denominator for row in t_mat[1:] for c in row))
    t_int = [[c.numerator * (r // c.denominator) for c in row] for row in t_mat[1:]]
    used = 0
    for v_int, q in sample_directions(h.nvars, num_samples, seed):
        used += 1
        u = [sum(map(mul, row, v_int)) for row in t_int]
        if not is_real_rooted(restriction(forms, u)):
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
    root.  num_samples must be an int from 1 to 10000 (InputError).

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
    forms, _ = ctx.line_forms
    d = ctx.d
    used = 0
    lineality = lineality_space(ctx.h)
    if lineality:
        used = 1
        w = lineality[0][1:]
        if root_counts(restriction(forms, _integer_point(w)))[0] != d:
            return PdWitnessReport(False, w, used)
    for u, q in sample_directions(ctx.n, num_samples, seed):
        used += 1
        if root_counts(restriction(forms, u))[0] != d:
            return PdWitnessReport(False, tuple(Fraction(c, q) for c in u), used)
    return PdWitnessReport(True, None, used)
