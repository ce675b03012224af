"""Output checks, run outside the timed spans.

Each family has a pinned outcome class, and every emitted certificate is
checked for the facts ``verify_certificate`` does not cover (``h`` and ``e``
equal the input), replayed through ``verify``, and tampered with to make sure
``verify`` rejects it.  Polynomial text is parsed here, not by hyperdet.
"""

from __future__ import annotations

import re
from fractions import Fraction

from corpus import CERTIFIES, DEFINITE, HV, SINGULAR

OVERRUN = "budget overrun"

# Failures of the program that are known and recorded by name, not hidden.
# Each is tied to the inputs of the fixed pool that show it today, keyed by
# (case name, command); any other raised exception or budget overrun makes
# the run incorrect, and so does a known defect that fails differently.
_INT_STR_LIMIT = ("int-str-limit", "ValueError", "Exceeds the limit (4300 digits)")
KNOWN_DEFECTS = {
    # Rounding gives every Gram entry its own denominator, LDL pivots grow
    # past 4300 digits on these rank-deficient 4-variable quadrics of
    # 4var-exhaust, and NotPD's message formats them, which Python refuses
    # (ROADMAP item 3).
    (name, "certify"): _INT_STR_LIMIT
    for name in ("hv4d2-3", "hv4d2-4", "hv4d2-5", "hv4d2-10")
}

_TERM = re.compile(r"\s*([+-]?)\s*([^+-]+)")


def parse_terms(text: str, nvars: int) -> dict[tuple[int, ...], Fraction]:
    """Parse `coeff*x0^a*x1^b` terms joined by +/- into {monomial: coeff}."""
    out: dict[tuple[int, ...], Fraction] = {}
    for sign, body in _TERM.findall(text):
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * nvars
        for factor in body.strip().split("*"):
            factor = factor.strip()
            if factor.startswith("x"):
                var, _, power = factor[1:].partition("^")
                exps[int(var)] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        mono = tuple(exps)
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in out.items() if c}


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def certificate_bits(cert: dict, nvars: int) -> int:
    """Largest numerator or denominator bit length in D, G and the cofactor."""
    values = [Fraction(w) for w in cert["D"]]
    values += [Fraction(x) for g in cert["G"] for row in g for x in row]
    values += list(parse_terms(cert["cofactor"], nvars).values())
    return max(_bits(v) for v in values)


def certificate_problems(cert: dict, case) -> list[str]:
    """Facts the verifier does not check: the certificate is about the input."""
    problems = []
    if parse_terms(cert["h"], case.nvars) != parse_terms(case.poly, case.nvars):
        problems.append("certificate h differs from the input polynomial")
    if [Fraction(c) for c in cert["e"]] != [Fraction(c) for c in case.e.split(",")]:
        problems.append("certificate e differs from the input direction")
    return problems


def tampered(cert: dict) -> dict:
    """A copy with one G entry changed; det(pencil) changes with it."""
    copy = dict(cert)
    g = [[list(row) for row in mat] for mat in cert["G"]]
    g[0][0][0] = str(Fraction(g[0][0][0]) + 1)
    copy["G"] = g
    return copy


def check_outcome(family: str, exit_code, status: str | None) -> str | None:
    """Why a check outcome is wrong for its family, or None."""
    if family == CERTIFIES and (exit_code != 0 or status != "HyperbolicSampled"):
        return f"expected HyperbolicSampled with exit 0, got {status} exit {exit_code}"
    if family == HV and (exit_code not in (0, 1) or status == "NotHyperbolic"):
        return f"hyperbolic by construction, got {status} exit {exit_code}"
    if family == DEFINITE and (exit_code != 1 or status != "NotHyperbolic"):
        return f"expected NotHyperbolic with exit 1, got {status} exit {exit_code}"
    if family == SINGULAR and exit_code != 1:
        return f"expected a refusal with exit 1, got {status} exit {exit_code}"
    return None


def certify_outcome(family: str, exit_code) -> str | None:
    """Why a certify exit code is wrong for its family, or None."""
    if family == CERTIFIES and exit_code != 0:
        return f"expected a certificate, got exit {exit_code}"
    if family == HV and exit_code not in (0, 1):
        return f"expected exit 0 or 1, got exit {exit_code}"
    if family in (DEFINITE, SINGULAR) and exit_code != 1:
        return f"expected a refusal with exit 1, got exit {exit_code}"
    return None


def known_defect(case_name: str, command: str, error: str) -> str | None:
    """The name of the known defect this failure is, or None."""
    defect = KNOWN_DEFECTS.get((case_name, command))
    if defect is None:
        return None
    name, prefix, text = defect
    return name if error.startswith(prefix) and text in error else None
