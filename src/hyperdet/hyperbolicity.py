"""Exact real-root counting and sampled hyperbolicity verdicts.

Root counting is exact (Sturm chains over the rationals).  Hyperbolicity is
certified asymmetrically: a NotHyperbolic verdict carries an exact witness
line, while a HyperbolicSampled verdict only says no sampled line failed.
The positive-definiteness witness check plays the same role for the
smoothness hypothesis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DirectionVanishes, NotPD, ZeroPolynomial
from .linalg import ldl_decompose
from .poly import Poly, RationalLike, UniPoly, as_point, substitute_line
from .quotient import QuotientContext, bezoutian_of, evaluate_form

HYPERBOLIC_SAMPLED = "HyperbolicSampled"
NOT_HYPERBOLIC = "NotHyperbolic"
SINGULAR_SUSPECTED = "SingularSuspected"

DEFAULT_NUM_SAMPLES = 64
_SAMPLE_RANGE = 10  # coordinates drawn from {-10..10}/{1..10}


@dataclass(frozen=True)
class HyperbolicityVerdict:
    status: str
    witness: tuple[Fraction, ...] | None
    samples_used: int

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


def _primitive_signed(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """Scale by a positive rational so coefficients are small integers.

    Positive scaling preserves every sign in a Sturm chain.
    """
    nums = [c for c in coeffs if c != 0]
    if not nums:
        return list(coeffs)
    from math import gcd

    den_lcm = 1
    for c in nums:
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    ints = [c * den_lcm for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, int(c))
    if g > 1:
        ints = [c / g for c in ints]
    return ints


def sturm_chain(f: UniPoly) -> list[UniPoly]:
    chain = [UniPoly(_primitive_signed(f.coeffs))]
    deriv = f.derivative()
    if not deriv.is_zero:
        chain.append(UniPoly(_primitive_signed(deriv.coeffs)))
        while chain[-1].degree > 0:
            rem = chain[-2].divmod(chain[-1])[1]
            if rem.is_zero:
                break
            chain.append(UniPoly(_primitive_signed((-rem).coeffs)))
    return chain


def _sign_variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nonzero, nonzero[1:]) if a * b < 0)


def _distinct_real_roots(chain: Sequence[UniPoly]) -> int:
    at_plus = [1 if p.leading > 0 else -1 for p in chain]
    at_minus = [s * (-1) ** (p.degree % 2) for s, p in zip(at_plus, chain)]
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
    return _distinct_real_roots(chain) == f.degree - chain[-1].degree


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


def check_hyperbolic_sampled(
    h: Poly,
    e: Sequence[RationalLike],
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> HyperbolicityVerdict:
    """Test real-rootedness of h along sampled lines through e.

    Returns NotHyperbolic with the first failing offset (an exact disproof),
    or HyperbolicSampled when every sampled line passes (a heuristic verdict).
    """
    ev = as_point(e)
    if h.evaluate(ev) == 0:
        raise DirectionVanishes("polynomial vanishes at the direction")
    used = 0
    for v in sample_directions(h.nvars, num_samples, seed):
        used += 1
        restricted = substitute_line(h, ev, v)
        if not is_real_rooted(restricted):
            return HyperbolicityVerdict(NOT_HYPERBOLIC, v, used)
    return HyperbolicityVerdict(HYPERBOLIC_SAMPLED, None, used)


def pd_witness_check(
    ctx: QuotientContext,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> PdWitnessReport:
    """Check that the Bézoutian of dh/dx0 is positive definite at sampled v.

    Positive definiteness at every nonzero v is the working proxy for
    "hyperbolic and real-smooth"; a failure pinpoints a line whose
    restriction has a repeated or complex root.
    """
    omega = bezoutian_of(ctx, ctx.h.derivative(0))
    used = 0
    for v in sample_directions(ctx.n, num_samples, seed):
        used += 1
        matrix = evaluate_form(omega, v)
        try:
            ldl_decompose(matrix)
        except NotPD:
            return PdWitnessReport(False, v, used)
    return PdWitnessReport(True, None, used)
