"""Shared generators and exact oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from hyperdet import Poly


def all_monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for idx in combo:
            exps[idx] += 1
        out.append(tuple(exps))
    return out


def random_fraction(rng: random.Random, num: int = 6, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def random_homogeneous(
    rng: random.Random,
    nvars: int,
    degree: int,
    monic_in_x0: bool = False,
    max_terms: int = 6,
) -> Poly:
    """Random homogeneous polynomial; optionally with x0^degree coefficient 1."""
    monos = all_monomials(nvars, degree)
    rng.shuffle(monos)
    terms: dict[tuple[int, ...], Fraction] = {}
    for mono in monos[: rng.randint(1, min(max_terms, len(monos)))]:
        coeff = random_fraction(rng)
        if coeff:
            terms[mono] = coeff
    lead = (degree,) + (0,) * (nvars - 1)
    if monic_in_x0:
        terms[lead] = Fraction(1)
    if not terms:
        terms[lead] = Fraction(1)
    return Poly(nvars, terms)


def random_symmetric_rational(rng: random.Random, size: int, num: int = 2, den: int = 2):
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            v = Fraction(rng.randint(-num, num), rng.randint(1, den))
            mat[i][j] = v
            mat[j][i] = v
    return mat


def random_pencil_determinant(rng: random.Random, nvars: int, degree: int) -> Poly:
    """h = det(x0*I + x1*B_1 + ... + xn*B_n) for random symmetric rational B_i.

    Hyperbolic with respect to (1,0,...,0) by construction and monic in x0.
    Expanded by leibniz_determinant, without the package's determinant code.
    """
    mats = [random_symmetric_rational(rng, degree) for _ in range(nvars - 1)]
    x = [Poly.variable(nvars, s) for s in range(nvars)]

    def entry(a: int, b: int) -> Poly:
        start = x[0] if a == b else Poly.zero(nvars)
        return sum((x[s + 1] * m[a][b] for s, m in enumerate(mats)), start)

    return leibniz_determinant([[entry(a, b) for b in range(degree)] for a in range(degree)])


def renegar_derivative(rng: random.Random, nvars: int, count: int) -> Poly:
    """h = d^(n-1)/dx0^(n-1) of prod_i (x0 + a_i . x), n = nvars - 1.

    Each a_i has entries drawn from -5..5.  Built from Poly products alone,
    without determinant code; hyperbolic with respect to (1,0,...,0) and,
    for hyperplanes in general position, real-smooth (Renegar, FoCM 2006).
    """
    product = Poly.one(nvars)
    for _ in range(count):
        form = Poly.variable(nvars, 0)
        for s in range(1, nvars):
            form = form + Poly.variable(nvars, s) * rng.randint(-5, 5)
        product = product * form
    for _ in range(nvars - 2):
        product = product.derivative(0)
    return product


def leibniz_determinant(mat: list[list[Poly]]) -> Poly:
    """Permanent-style expansion over all permutations; exact oracle."""
    size = len(mat)
    nvars = mat[0][0].nvars
    total = Poly.zero(nvars)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = list(perm)
        for i in range(size):
            for j in range(i + 1, size):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.one(nvars)
        for i in range(size):
            term = term * mat[i][perm[i]]
        total = total + (term if sign == 1 else -term)
    return total


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Row rank by exact Gaussian elimination."""
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = 1 / work[row][col]
        work[row] = [x * inv for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
    return rank
