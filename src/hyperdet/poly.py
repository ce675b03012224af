"""Exact sparse arithmetic for multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero ``Fraction``
coefficients.  Variables are named x0..x{nvars-1}; x0 plays the role of the
distinguished direction throughout the package.  All operations are pure and
every value is immutable after construction, so polynomials can be shared
freely between threads.

Terms iterate in descending graded-lexicographic order (higher total degree
first, ties broken lexicographically with x0 largest), which fixes a
canonical text form.  The input gate's substitution x = T^{-1} y expands
each power of x_j = e_j*y0 + y_c by the binomial theorem in ints, with one
Fraction per output coefficient (README step 1).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence, Union

from .errors import (
    DimensionMismatch,
    DirectionVanishes,
    InputError,
    PolyParseError,
)

Monomial = tuple[int, ...]
RationalLike = Union[int, str, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The most terms h may have once normalize_direction makes it dense.
_MAX_DENSE_TERMS = 2048


_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings to an exact Fraction.

    A string must be an optional sign and an integer or 'a/b', read with one
    match; anything else, a decimal or '1e1000000' too, is a ValueError.  A
    bool is a TypeError: JSON's true is not the number 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match is None:
            raise ValueError(f"{value!r} is not an integer or an a/b fraction")
        return Fraction(int(match[1]), int(match[2] or 1))
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_point(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key; use with reverse=True for the canonical descending order."""
    return (sum(mono), mono)


class Poly:
    """Sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, RationalLike] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise DimensionMismatch(
                        f"monomial {mono} has {len(mono)} exponents, expected {nvars}"
                    )
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                c = as_fraction(coeff)
                if c != 0:
                    clean[tuple(mono)] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "Poly":
        return cls(nvars, {(0,) * nvars: as_fraction(value)})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionMismatch(f"variable index {index} out of range for {nvars} variables")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): _ONE})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: RationalLike = 1) -> "Poly":
        return cls(len(exponents), {tuple(exponents): as_fraction(coeff)})

    # -- structure ----------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Iterate (monomial, coefficient) in descending grlex order."""
        for mono in sorted(self._terms, key=grlex_key, reverse=True):
            yield mono, self._terms[mono]

    def coeff(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(mono), _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(sum(m) for m in self._terms)

    @property
    def is_homogeneous(self) -> bool:
        """Zero counts as homogeneous (of every degree)."""
        degs = {sum(m) for m in self._terms}
        return len(degs) <= 1

    def degree_in(self, index: int) -> int:
        """Largest exponent of variable `index`; 0 for the zero polynomial."""
        if not self._terms:
            return 0
        return max(m[index] for m in self._terms)

    def x0_coefficients(self) -> list["Poly"]:
        """Coefficients of powers of x0, each free of x0, lowest power first.

        Returns a list of length degree_in(0)+1 (a single zero entry for the
        zero polynomial).
        """
        top = self.degree_in(0)
        buckets: list[dict[Monomial, Fraction]] = [dict() for _ in range(top + 1)]
        for mono, c in self._terms.items():
            stripped = (0,) + mono[1:]
            buckets[mono[0]][stripped] = c
        return [Poly(self.nvars, b) for b in buckets]

    # -- arithmetic ---------------------------------------------------

    def _check_same_vars(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"operands use {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, _ZERO) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self._terms)
        for mono, c in other._terms.items():
            out[mono] = out.get(mono, _ZERO) - c
        return Poly(self.nvars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: Union["Poly", RationalLike]) -> "Poly":
        if isinstance(other, Poly):
            self._check_same_vars(other)
            return Poly(self.nvars, _product(self._terms, other._terms))
        scalar = as_fraction(other)
        return Poly(self.nvars, {m: c * scalar for m, c in self._terms.items()})

    def __rmul__(self, other: RationalLike) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    # -- evaluation & calculus ---------------------------------------

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        """Exact value at a rational point."""
        vals = as_point(point)
        if len(vals) != self.nvars:
            raise DimensionMismatch(
                f"point has {len(vals)} coordinates, polynomial has {self.nvars} variables"
            )
        total = _ZERO
        for mono, c in self._terms.items():
            term = c
            for v, e in zip(vals, mono):
                if e:
                    term *= v**e
            total += term
        return total

    def derivative(self, index: int) -> "Poly":
        """Formal partial derivative with respect to x{index}."""
        if not 0 <= index < self.nvars:
            raise DimensionMismatch(f"variable index {index} out of range")
        out: dict[Monomial, Fraction] = {}
        for mono, c in self._terms.items():
            e = mono[index]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[index] = e - 1
            out[tuple(lowered)] = c * e
        return Poly(self.nvars, out)

    # -- printing -----------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def _product(a: Mapping[Monomial, int | Fraction], b: Mapping[Monomial, int | Fraction]) -> dict:
    """Terms of the product of two term dicts; cancelled terms stay as zeros."""
    out: dict[Monomial, int | Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return out


def normalize_direction(h: Poly, e: Sequence[RationalLike]) -> tuple[Poly, list[list[Fraction]]]:
    """Rotate coordinates so the direction e becomes (1,0,...,0).

    Returns (h', T) with T*e = (1,0,...,0) and h' = h after the substitution
    x = T^{-1} y, so that h'(1,0,...,0) = h(e).  This is the one input gate
    of check, bezoutian, certify and verify (whose check (d) compares a
    certificate's T with this one): it raises an InputError unless e is a
    nonzero point of the right length, h has at least two variables, is
    homogeneous of positive degree and has at most 2048 terms once dense,
    and h(e) != 0 (DirectionVanishes), tested in ints as README step 1 states.
    """
    ev = as_point(e)
    if len(ev) != h.nvars:
        raise DimensionMismatch("direction length must match the variable count")
    if all(c == 0 for c in ev):
        raise DimensionMismatch("direction must be nonzero")
    d, n = h.degree, h.nvars
    if n < 2:
        raise InputError("polynomial needs at least two variables, x0 and x1")
    if not h.is_homogeneous or d == 0:
        raise InputError("polynomial must be homogeneous of positive degree")
    # The substitution makes h dense, C(d+n-1, d) terms in n variables, and
    # every command then works on all of them: x0^99999999 - x1^99999999
    # alone would exhaust memory.  That count is at least d+1 and at least
    # n, so a large d or n is refused before math.comb sees it.
    if max(d, n) > _MAX_DENSE_TERMS or math.comb(d + n - 1, d) > _MAX_DENSE_TERMS:
        raise InputError(f"polynomial too large: degree {d} in {n} variables has more "
                         f"than {_MAX_DENSE_TERMS} terms once dense")
    pivot = next(i for i in range(n) if ev[i] != 0)
    others = [j for j in range(n) if j != pivot]
    # The columns of T^{-1} are e, then unit vectors skipping the pivot slot:
    # x_pivot = e_pivot*y0, and the c-th non-pivot x_j = e_j*y0 + y_c.  In
    # ints, with q the lcm of e's denominators and E = q*e, q*x_j is
    # E_j*y0 + q*y_c, whose powers the binomial theorem expands.
    q = math.lcm(*(c.denominator for c in ev))
    big_e = [c.numerator * (q // c.denominator) for c in ev]
    den = math.lcm(*(c.denominator for c in h._terms.values()))

    @functools.cache
    def image_power(i: int, k: int) -> dict[Monomial, int]:
        """(q*x_i)^k in y, once per power h uses."""
        if i == pivot:
            return {(k,) + (0,) * (n - 1): big_e[i] ** k}
        c = others.index(i) + 1
        out: dict[Monomial, int] = {}
        part = q**k  # C(k, t) * E_i^t * q^(k-t), exact at every step
        for t in range(k + 1):
            if part:
                mono = [0] * n
                mono[0], mono[c] = t, k - t
                out[tuple(mono)] = part
            part = part * (k - t) * big_e[i] // ((t + 1) * q)
        return out

    # In ints: a term c*x^mono gives c*den times (q*x)^mono, over den*q^d.
    total: dict[Monomial, int] = {}
    for mono, c in h._terms.items():
        term = {(0,) * n: c.numerator * (den // c.denominator)}
        for i, exp in enumerate(mono):
            if exp:
                term = _product(term, image_power(i, exp))
        for m, v in term.items():
            total[m] = total.get(m, 0) + v
    transformed = Poly(n, {m: Fraction(v, den * q**d) for m, v in total.items()})
    # The inverse of T^{-1} in closed form: row 0 is unit_p / e_p, row c is
    # unit_j - (e_j / e_p) * unit_p for the c-th non-pivot index j.
    t_mat = [[_ONE / ev[pivot] if i == pivot else _ZERO for i in range(n)]] + [
        [_ONE if i == j else -ev[j] / ev[pivot] if i == pivot else _ZERO for i in range(n)]
        for j in others]
    if not transformed.coeff((d,) + (0,) * (n - 1)):
        raise DirectionVanishes("polynomial vanishes at the direction")
    return transformed, t_mat


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------


def format_poly(p: Poly) -> str:
    """Canonical text form; round-trips through parse_poly."""
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.terms():
        factors = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(mono) if e > 0]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def _fail(text: str, pos: int, message: str) -> NoReturn:
    """Raise the parse error at offset pos, with its 1-based line and column.

    A line ends at \r\n, \r or \n, so CRLF and CR-only text count lines
    as LF text does.
    """
    head = text[:pos]
    line = head.count("\n") + head.count("\r") - head.count("\r\n") + 1
    start = max(head.rfind("\n"), head.rfind("\r")) + 1
    raise PolyParseError(message, line, pos - start + 1) from None


# One factor of a term, as README "Command line" states the grammar: a
# coefficient `a` or `a/b` (whitespace may follow the `/`), or `xI` with an
# optional `^E`.  A digit group left empty is a missing digit.
_FACTOR = re.compile(r"([0-9]+)(?:/\s*([0-9]*))?|x([0-9]*)(?:\^([0-9]*))?")
_SPACE = re.compile(r"\s*")  # \s is exactly what str.isspace accepts


def _integer(match: re.Match, group: int) -> int:
    """The integer a digit group of _FACTOR read; a parse error at its start if none."""
    digits, pos = match[group], match.start(group)
    if not digits:
        _fail(match.string, pos, "expected a digit")
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        _fail(match.string, pos, f"integer literal of {len(digits)} digits is too long")


def parse_poly(text: str, nvars: int | None = None) -> Poly:
    """Parse a polynomial in the grammar README "Command line" states.

    Terms are joined by +/-, factors by *; a parse error carries the line
    and column where the text stops fitting the grammar.  When nvars is
    omitted it is inferred from the largest variable index.
    """
    end = len(text)
    terms: list[tuple[dict[int, int], Fraction]] = []
    max_index = -1

    pos = _SPACE.match(text).end()
    if pos == end:
        _fail(text, pos, "empty polynomial")
    sign = -_ONE if text[pos] == "-" else _ONE
    if text[pos] in "+-":
        pos = _SPACE.match(text, pos + 1).end()

    while True:
        exps: dict[int, int] = {}
        coeff = sign
        term_start = pos
        while True:
            match = _FACTOR.match(text, pos)
            if match is None:
                _fail(text, pos, "expected a coefficient or a variable")
            if match[1] is not None:
                if pos != term_start:
                    _fail(text, pos, "numeric coefficient must come first in a term")
                num = _integer(match, 1)
                den = 1 if match[2] is None else _integer(match, 2)
                if den == 0:
                    _fail(text, match.end(), "zero denominator")
                coeff *= Fraction(num, den)
            else:
                index = _integer(match, 3)
                exps[index] = exps.get(index, 0) + (1 if match[4] is None else _integer(match, 4))
                if index > max_index:
                    max_index, max_pos = index, pos
            pos = _SPACE.match(text, match.end()).end()
            if not text.startswith("*", pos):
                break
            pos = _SPACE.match(text, pos + 1).end()
        terms.append((exps, coeff))

        if pos == end:
            break
        if text[pos] not in "+-":
            _fail(text, pos, f"unexpected character {text[pos]!r}")
        sign = _ONE if text[pos] == "+" else -_ONE
        pos = _SPACE.match(text, pos + 1).end()
        if pos == end:
            _fail(text, pos, "dangling sign at end of input")

    width = max(1, max_index + 1 if nvars is None else nvars)
    if max_index >= width:
        _fail(text, max_pos, f"variable x{max_index} exceeds the declared {width} variables")
    acc: dict[Monomial, Fraction] = {}
    for exps, coeff in terms:
        mono = tuple(exps.get(i, 0) for i in range(width))
        acc[mono] = acc.get(mono, _ZERO) + coeff
    return Poly(width, acc)
