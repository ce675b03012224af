"""Seeded input generators for the benchmark.

Every input is built here, independently of the package under test: the
Helton-Vinnikov determinants det(x0*I + sum_i x_i*B_i) are expanded with a
Leibniz sum over Fractions, so a defect in hyperdet's own determinant code
cannot change what the benchmark feeds it.  The program only ever sees the
polynomial text and the direction, as command-line strings.

Each workload draws a fixed pool of inputs once from its own stream, with
nothing filtered out, and ``--seed`` only changes how the pool is written:
term order, factor order and unreduced fractions such as ``6/4`` for
``3/2``.  The program parses every variant to the same polynomial, so its
work after parsing, its outcome and its certificate bytes do not depend on
the seed.  That is deliberate.  Per-input costs spread widely, and even a
relabelling of the variables flips whether a degree-4 input certifies at
ell=0 in 5 s or escalates and overruns: figures drawn from a fresh pool per
seed would follow the draw rather than the code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

Mono = tuple[int, ...]
Terms = dict[Mono, Fraction]

# Outcome classes pinned per family; see checks.py.
CERTIFIES = "certifies"
HV = "hv"
DEFINITE = "definite"
SINGULAR = "singular"


@dataclass(frozen=True)
class Case:
    name: str
    family: str
    poly: str
    e: str
    nvars: int


@dataclass(frozen=True)
class Draw:
    """An input before it is written out as CLI text."""

    name: str
    family: str
    terms: Terms
    e: tuple[Fraction, ...]


def _mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def _add(a: Terms, b: Terms, sign: int = 1) -> Terms:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def _unit(nvars: int, i: int, power: int = 1) -> Mono:
    return tuple(power * int(k == i) for k in range(nvars))


def leibniz_determinant(mat: list[list[Terms]], nvars: int) -> Terms:
    """Exact determinant of a matrix of polynomials by the permutation sum."""
    size = len(mat)
    total: Terms = {}
    for perm in itertools.permutations(range(size)):
        inversions = sum(1 for i in range(size) for j in range(i + 1, size) if perm[i] > perm[j])
        term: Terms = {(0,) * nvars: Fraction(1)}
        for i in range(size):
            term = _mul(term, mat[i][perm[i]])
            if not term:
                break
        total = _add(total, term, -1 if inversions % 2 else 1)
    return total


def _random_symmetric(rng: random.Random, size: int) -> list[list[Fraction]]:
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            mat[i][j] = mat[j][i] = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return mat


def hv_determinant(rng: random.Random, nvars: int, degree: int) -> Terms:
    """det(x0*I + x1*B1 + ... + xn*Bn) for random symmetric rational B_i.

    Hyperbolic with respect to (1,0,...,0) by construction (Helton and
    Vinnikov, CPAM 2007), monic in x0; it may still be singular.
    """
    mats = [_random_symmetric(rng, degree) for _ in range(nvars - 1)]
    pencil = []
    for a in range(degree):
        row = []
        for b in range(degree):
            entry: Terms = {_unit(nvars, 0): Fraction(1)} if a == b else {}
            for s, m in enumerate(mats):
                if m[a][b]:
                    entry[_unit(nvars, s + 1)] = m[a][b]
            row.append(entry)
        pencil.append(row)
    return leibniz_determinant(pencil, nvars)


def _fraction(value: Fraction, rng: random.Random) -> str:
    scale = rng.randint(1, 3)
    return f"{value.numerator * scale}/{value.denominator * scale}"


def present(draw: Draw, rng: random.Random) -> Case:
    """Write the draw in a seed-chosen but equivalent form of the CLI grammar."""
    pieces = []
    for mono, c in rng.sample(sorted(draw.terms.items()), len(draw.terms)):
        factors = [f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(mono) if k]
        rng.shuffle(factors)
        body = "*".join([_fraction(abs(c), rng)] + factors)
        if pieces:
            pieces.append(f"{'-' if c < 0 else '+'} {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    e = ",".join(_fraction(v, rng) for v in draw.e)
    return Case(draw.name, draw.family, " ".join(pieces), e, len(draw.e))


def hv_draw(rng: random.Random, nvars: int, degree: int, index: int) -> Draw:
    e = (Fraction(1),) + (Fraction(0),) * (nvars - 1)
    return Draw(f"hv{nvars}d{degree}-{index}", HV, hv_determinant(rng, nvars, degree), e)


def lorentz_draw(rng: random.Random, nvars: int, tilted: bool = False) -> Draw:
    """a0*x0^2 - a1*x1^2 - ... with random positive weights, along x0.

    A tilted direction (1, t1, ..., tn) with |ti| <= 1/8 stays inside the
    cone, since a0 >= 1/2 and the ai are at most 4; normalizing it makes
    the polynomial dense, so certify and verify do real work.
    """
    terms: Terms = {}
    for i in range(nvars):
        weight = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        terms[_unit(nvars, i, 2)] = weight if i == 0 else -weight
    if tilted:
        e = (Fraction(1),) + tuple(Fraction(rng.randint(-2, 2), 16) for _ in range(nvars - 1))
    else:
        e = (Fraction(rng.randint(1, 3)),) + (Fraction(0),) * (nvars - 1)
    return Draw(f"lorentz{nvars}", CERTIFIES, terms, e)


def definite_draw(rng: random.Random, nvars: int) -> Draw:
    """A positive definite diagonal quadric: no real zeros, so not hyperbolic."""
    terms = {_unit(nvars, i, 2): Fraction(rng.randint(1, 4), rng.randint(1, 3)) for i in range(nvars)}
    e = [Fraction(rng.randint(-2, 2)) for _ in range(nvars)]
    if not any(e):
        e[0] = Fraction(1)
    return Draw(f"definite{nvars}", DEFINITE, terms, tuple(e))


def product_draw(rng: random.Random, nvars: int) -> Draw:
    """c*x0*x1*...: a product of coordinate forms, hyperbolic but singular."""
    terms = {(1,) * nvars: Fraction(rng.randint(1, 3))}
    e = tuple(Fraction(rng.randint(1, 3)) for _ in range(nvars))
    return Draw(f"product{nvars}", SINGULAR, terms, e)


def _small_mix(rng: random.Random) -> list[Draw]:
    draws = [lorentz_draw(rng, n) for n in range(2, 7)]
    draws += [hv_draw(rng, 3, 2, i) for i in range(3)]
    draws += [hv_draw(rng, 3, 3, i) for i in range(4)]
    draws += [definite_draw(rng, n) for n in (2, 3)]
    draws += [product_draw(rng, n) for n in (3, 4)]
    return draws


def _hv_d4(rng: random.Random) -> list[Draw]:
    return [lorentz_draw(rng, 3)] + [hv_draw(rng, 3, 4, i) for i in range(5)]


def _four_var(rng: random.Random) -> list[Draw]:
    controls = [lorentz_draw(rng, 4, tilted=True)]
    quadrics = [hv_draw(rng, 4, 2, i) for i in range(12)]
    # Four more certifying controls, drawn after the quadrics so that those
    # stay the same.  Controls go first, last and after every third quadric.
    # The run makes one pass, so verify_wall_s then sums five verifies of
    # about 20 ms timed at five moments of the pass rather than one, which
    # the host's speed at that moment would decide.
    controls += [lorentz_draw(rng, 4, tilted=True) for _ in range(4)]
    controls = [replace(c, name=f"lorentz4-{i}") for i, c in enumerate(controls)]
    draws = []
    for i, control in enumerate(controls):
        draws += [control] + quadrics[3 * i:3 * i + 3]
    return draws


# Each workload opens with a Lorentz cone, a certifying control, so every
# end-to-end metric (verify time, certificate size) is defined on all of them.
WORKLOADS = {
    "small-mix": _small_mix,
    "hv-d4": _hv_d4,
    "4var-exhaust": _four_var,
}


def workload_cases(name: str, seed: int) -> list[Case]:
    """The corpus of one run; the same (name, seed) always gives the same text."""
    pool = WORKLOADS[name](random.Random(name))
    rng = random.Random(f"{name}/{seed}")
    return [present(draw, rng) for draw in pool]


def warmup_case() -> Case:
    draw = lorentz_draw(random.Random("warm-up"), 3)
    return present(Draw("warm-up", draw.family, draw.terms, draw.e), random.Random(0))
