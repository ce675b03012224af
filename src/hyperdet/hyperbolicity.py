"""Exact real-root counting and sampled hyperbolicity verdicts.

Both sampled checks restrict h to a line in one way: they evaluate the x0
coefficients of h_monic, the normalized h made monic in x0, at a point w of
x1..xn, and read the integer Sturm chain of the univariate h_monic(t, w).
Hyperbolicity asks that every root be real; the PD witness asks for d
distinct real roots, which by Hermite's theorem is exactly positive
definiteness of the derivative Bézoutian at w (Basu, Pollack & Roy,
*Algorithms in Real Algebraic Geometry*, ch. 4).  The verdicts are
asymmetric: a NotHyperbolic verdict carries an exact witness line, while a
HyperbolicSampled verdict only says no sampled line failed.  The PD witness
check plays the same role for the smoothness hypothesis; it tests one line
more on a cylinder, read from the exact lineality space, where the witness
is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Sequence

from .errors import InputError, ZeroPolynomial
from .linalg import nullspace
from .poly import Monomial, Poly, RationalLike, UniPoly, normalize_direction
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


def sturm_chain(f: UniPoly) -> list[list[int]]:
    """Sturm chain of a nonzero f as integer coefficient lists, lowest first.

    A primitive pseudo-remainder sequence: f is scaled to a primitive integer
    polynomial, and each entry after f' is the negated pseudo-remainder of
    the two before it, divided by its content.  Every factor applied is
    positive, so each entry is a positive multiple of the rational Euclidean
    chain's and has the same signs, hence the same root counts.  The last
    entry is a multiple of gcd(f, f').
    """
    den = lcm(*(c.denominator for c in f.coeffs))
    chain = [_primitive([c.numerator * (den // c.denominator) for c in f.coeffs])]
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


def is_real_rooted(f: UniPoly) -> bool:
    """True iff every complex root is real (multiplicities allowed).

    The last element of the Sturm chain is gcd(f, f'), so f has
    deg f - deg gcd distinct complex roots; all are real iff the chain
    counts that many real ones.
    """
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial has no well-defined roots")
    if f.degree == 0:
        return True
    chain = sturm_chain(f)
    return _distinct_real_roots(chain) == f.degree - (len(chain[-1]) - 1)


def sample_directions(dim: int, num_samples: int, seed: int) -> Iterator[tuple[Fraction, ...]]:
    """Deterministic sample stream: signed unit vectors first, then rationals
    with coordinates from {-K..K}/{1..K}, K = 10.  Never yields zero."""
    produced = 0
    for i in range(dim):
        for sign in (1, -1):
            if produced >= num_samples:
                return
            vec = [Fraction(0)] * dim
            vec[i] = Fraction(sign)
            produced += 1
            yield tuple(vec)
    rng = random.Random(seed)
    while produced < num_samples:
        vec = tuple(
            Fraction(rng.randint(-_SAMPLE_RANGE, _SAMPLE_RANGE), rng.randint(1, _SAMPLE_RANGE))
            for _ in range(dim)
        )
        if all(c == 0 for c in vec):
            continue
        produced += 1
        yield vec


def check_num_samples(num_samples: int) -> None:
    """InputError for a sample count that is not a positive int."""
    if not isinstance(num_samples, int) or isinstance(num_samples, bool):
        raise InputError(f"num_samples must be an int, got {num_samples!r}")
    if num_samples < 1:
        raise InputError(f"num_samples must be positive, got {num_samples}")


def _restriction(ctx: QuotientContext, w: Sequence[Fraction]) -> UniPoly:
    """h_monic(t, w): the monic x0 coefficients of h evaluated at (0, w)."""
    point = (Fraction(0),) + tuple(w)
    return UniPoly([c.evaluate(point) for c in ctx.h_coeffs])


def _has_distinct_real_roots(ctx: QuotientContext, w: Sequence[Fraction]) -> bool:
    """True iff h_monic(t, w) has d distinct real roots."""
    return _distinct_real_roots(sturm_chain(_restriction(ctx, w))) == ctx.d


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
    root's realness.  num_samples must be a positive int (InputError).
    """
    check_num_samples(num_samples)
    h_norm, t_mat = normalize_direction(h, e)
    ctx = QuotientContext(h_norm)
    used = 0
    for v in sample_directions(h.nvars, num_samples, seed):
        used += 1
        w = [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in t_mat[1:]]
        if not is_real_rooted(_restriction(ctx, w)):
            return HyperbolicityVerdict(NOT_HYPERBOLIC, v, used, ctx)
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

    After every sampled line passes, one more line is tested when h is a
    cylinder: w = v[1:] for the first vector v of lineality_space(h), and
    samples_used counts it.  That witness is exact.  e = (1,0,...,0) is not
    in the lineality space, because h(e) != 0 = h(v); so v's free
    coordinate is not x0 (that basis vector would be e), w holds its unit,
    and h_monic(t, w) = h(t*e - v_0*e + v) = (t - v_0)^d, which for d >= 2
    has one distinct root.  For d = 1 that line has d distinct roots, so a
    linear h still passes.
    """
    check_num_samples(num_samples)
    used = 0
    for v in sample_directions(ctx.n, num_samples, seed):
        used += 1
        if not _has_distinct_real_roots(ctx, v):
            return PdWitnessReport(False, v, used)
    lineality = lineality_space(ctx.h)
    if lineality:
        used += 1
        w = lineality[0][1:]
        if not _has_distinct_real_roots(ctx, w):
            return PdWitnessReport(False, w, used)
    return PdWitnessReport(True, None, used)
