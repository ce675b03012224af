"""Build and verify definite determinantal representations of q'*h.

certify lifts a weighted sum-of-squares decomposition W = R^T D R of the
derivative Bézoutian to matrices G_1..G_n with every D*G_s symmetric and
det(x0*I - sum_s x_s G_s) = cofactor * h_monic in the coordinates of
normalize_direction, where the pencil is I at (1,0,...,0): the
definiteness certificate.  verify_certificate replays these identities in
exact arithmetic; README steps 5 and 6 give the construction and the
replay.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertifyError, InputError, NoSymmetricLift
from .hyperbolicity import DEFAULT_NUM_SAMPLES, check_num_samples, pd_witness_check
from .linalg import RatMatrix, bareiss_determinant, is_symmetric, rat_matrix, solve_sparse_system
from .poly import (
    Monomial,
    Poly,
    RationalLike,
    as_fraction,
    as_point,
    normalize_direction,
    parse_poly,
)
from .quotient import (
    QuotientContext,
    divide_packed,
    integer_forms,
    packed_dot,
    packed_forms,
    restriction,
    unpacked_poly,
)
from .sos import (
    DEFAULT_ELL_MAX,
    GramIndex,
    SosDecomposition,
    find_sos_decomposition,
    monomial_basis_Mk,
    r_monomials_of_degree,
)

SCHEMA = "hyperdet/1"
# Bounds the multiplier search (README "Exit codes"): at ell = 8 the seed-7
# 4-variable HV cubic's Gram float stack alone is 252 MB.
_MAX_ELL = 6


@dataclass
class CertifyOptions:
    """Search settings of certify; none of them changes what the replay checks.

    lmax caps the multiplier exponent, num_samples and seed steer the
    PD-witness check.  A value of the wrong type or out of range raises
    InputError.
    """

    lmax: int = DEFAULT_ELL_MAX
    num_samples: int = DEFAULT_NUM_SAMPLES
    seed: int = 0

    def __post_init__(self):
        for name in ("lmax", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an int, got {value!r}")
        check_num_samples(self.num_samples)
        if not 0 <= self.lmax <= _MAX_ELL:
            raise InputError(f"lmax must be from 0 to {_MAX_ELL}, got {self.lmax}")


@dataclass
class DetRepCertificate:
    """Exact pencil data certifying det(x0*I - sum x_i G_i) = cofactor * h_monic.

    All identities are stated in the normalized coordinates y = T*x, where
    T must be normalize_direction's T for e and h_monic is h after that
    coordinate change and monic rescaling.  D is the positive diagonal
    weight matrix; D*G_i is symmetric for every i, so D^{1/2} G_i D^{-1/2}
    is a genuine symmetric pencil with value I at T*e = (1,0,...,0).  Every
    field is exact: the certificate carries no floating-point data.
    """

    h: Poly
    e: tuple[Fraction, ...]
    transform: RatMatrix
    size: int
    weights: list[Fraction]
    pencil: list[RatMatrix]
    cofactor: Poly
    multiplier: Poly

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "h": str(self.h),
            "e": [str(c) for c in self.e],
            "T": [[str(x) for x in row] for row in self.transform],
            "N": self.size,
            "D": [str(w) for w in self.weights],
            "G": [[[str(x) for x in row] for row in g] for g in self.pencil],
            "cofactor": str(self.cofactor),
            "q_multiplier": str(self.multiplier),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "DetRepCertificate":
        """Load a certificate, raising InputError for a malformed one.

        Another schema, a missing field, a field of the wrong JSON type, an
        entry that is not an exact rational or a T that is not square of
        the direction's length is malformed; whether
        well-formed data certifies anything is left to verify_certificate.
        Unknown keys, such as the float_pencil view older versions wrote,
        are ignored.
        """
        if not isinstance(data, dict):
            raise InputError(f"certificate must be a JSON object, not {type(data).__name__}")
        if data.get("schema") != SCHEMA:
            raise InputError(f"unsupported certificate schema {data.get('schema')!r}")

        def field(name, kind, parse):
            if name not in data:
                raise InputError(f"certificate has no {name!r} field")
            value = data[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise InputError(f"certificate field {name!r} must be a JSON {kind.__name__}")
            try:
                return parse(value)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InputError(f"certificate field {name!r}: {exc}") from exc

        e = field("e", list, as_point)

        def poly(text):
            return parse_poly(text, len(e))

        def matrix(rows):
            if not isinstance(rows, list):
                raise TypeError(f"matrix must be a JSON list, not {type(rows).__name__}")
            if not all(isinstance(row, list) for row in rows):
                raise TypeError("matrix rows must be JSON lists")
            return rat_matrix(rows)

        def transform(rows):
            t = matrix(rows)
            if len(t) != len(e) or any(len(row) != len(e) for row in t):
                raise ValueError(f"must be a {len(e)}x{len(e)} matrix, "
                                 "one row and column per variable")
            return t

        return cls(
            h=field("h", str, poly),
            e=e,
            transform=field("T", list, transform),
            size=field("N", int, int),
            weights=field("D", list, lambda ws: [as_fraction(w) for w in ws]),
            pencil=field("G", list, lambda gs: [matrix(g) for g in gs]),
            cofactor=field("cofactor", str, poly),
            multiplier=field("q_multiplier", str, poly),
        )

    @classmethod
    def from_json(cls, text: str) -> "DetRepCertificate":
        """Load a certificate from JSON text; text that is not JSON is an InputError."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"certificate is not JSON: {exc}") from None
        except RecursionError:
            raise InputError("certificate JSON is nested too deeply") from None
        return cls.from_json_dict(data)


def basis_maps(
    ctx: QuotientContext, basis: Sequence[GramIndex], basis_up: Sequence[GramIndex]
) -> list[list[dict[int, int | Fraction]]]:
    """Images of the degree-k basis under x_1, ..., x_n and x0, over basis_up.

    Map s < n sends basis[a] = x0bar^p x^gamma to {position: coefficient}
    under x_(s+1): to x0bar^p x^(gamma + e_(s+1)) alone, with the int
    coefficient 1.  The last map is x0: to x0bar^(p+1) x^gamma (again 1)
    when p+1 < d, otherwise to -sum_j c_j x^gamma x0bar^j over j < d, where
    c_j = ctx.h_coeffs[j].  Integer rows stay integer under every map but
    the reduction of the top power.
    """
    index = {(g.basis_power, g.r_monomial): r for r, g in enumerate(basis_up)}

    def at(power: int, *monos: Monomial) -> int:
        return index[(power, tuple(map(sum, zip(*monos))))]

    units = [tuple(int(i == s) for i in range(ctx.nvars)) for s in range(1, ctx.nvars)]
    maps = [[{at(g.basis_power, g.r_monomial, unit): 1} for g in basis] for unit in units]
    maps.append([{at(g.basis_power + 1, g.r_monomial): 1} if g.basis_power + 1 < ctx.d
                 else {at(j, g.r_monomial, mono): -c
                       for j in range(ctx.d) for mono, c in ctx.h_coeffs[j].terms()}
                 for g in basis])
    return maps


def solve_symmetric_lift(
    ctx: QuotientContext, dec: SosDecomposition
) -> tuple[list[RatMatrix], tuple[list[list[list[int]]], list[int]]]:
    """Solve for the weighted-symmetric matrices of the x0 action.

    Returns (pencil, (basis_ints, basis_dens)): the certificate's G_s, with
    D * G_s = G_s^T * D for D = diag(dec.weights), and the similar
    P_s = R^-1 G_s R in the monomial basis of the degree-k piece as
    integers over row denominators, P_s[a][b] = basis_ints[s][a][b] /
    basis_dens[a], the form _charpoly reads.  R is the unit upper-triangular
    LDL factor whose rows are the generators (dec.rows), so that
    W = dec.gram = R^T D R.  README step 5 states the linear system, whose
    unknowns are the entries of the symmetric S_s = R^T D G_s R, and the
    integer products that give both pencils from it; free unknowns are set
    to zero.

    Raises NoSymmetricLift when the system is inconsistent, and when the
    integer V = diag(delta) R of README step 5 has a zero diagonal entry,
    which means the decomposition's rows do not span the graded piece.
    """
    m = len(dec.rows)
    n = ctx.n
    weights = dec.weights
    basis_up = monomial_basis_Mk(ctx, dec.k + 1)
    *shifts, x0_images = basis_maps(ctx, dec.basis, basis_up)
    # Unknown order: (s, a, b) with a <= b, flattened; S_s[a][b] = S_s[b][a].
    per_s = m * (m + 1) // 2

    def unknown_id(s: int, a: int, b: int) -> int:
        a, b = min(a, b), max(a, b)
        return s * per_s + (a * (2 * m - a - 1)) // 2 + b

    # preimages[pos]: the (s, a) with x_s * b_a = b_pos, at most one per s.
    preimages: list[list[tuple[int, int]]] = [[] for _ in basis_up]
    for s, images in enumerate(shifts):
        for a, image in enumerate(images):
            [pos] = image
            preimages[pos].append((s, a))
    gram_den = math.lcm(*(x.denominator for row in dec.gram for x in row))
    map_den = math.lcm(*(c.denominator for image in x0_images for c in image.values()))
    x0_ints = [{pos: c.numerator * (map_den // c.denominator) for pos, c in image.items()}
               for image in x0_images]
    rows: list[dict[int, int]] = []
    rhs: list[int] = []
    # Column c of gram_den * map_den * X_0 W; W is symmetric, so its rows
    # are its columns.
    for c, column in enumerate(dec.gram):
        target: dict[int, int] = {}
        for a, w in enumerate(column):
            if w:
                w = w.numerator * (gram_den // w.denominator)
                for pos, coeff in x0_ints[a].items():
                    target[pos] = target.get(pos, 0) + coeff * w
        for pos, pre in enumerate(preimages):
            if pre or target.get(pos):
                rows.append({unknown_id(s, a, c): 1 for s, a in pre})
                rhs.append(target.get(pos, 0))

    values = solve_sparse_system(rows, rhs, n * per_s)
    if values is None:
        raise NoSymmetricLift("no symmetric solution of X_0 W = sum_s X_s S_s")
    deltas = [math.lcm(*(x.denominator for x in row)) for row in dec.rows]
    v = [[x.numerator * (delta // x.denominator) for x in row] for row, delta in zip(dec.rows, deltas)]
    if not all(v[i][i] for i in range(m)):
        raise NoSymmetricLift("the decomposition rows are singular: they do not span")
    # Column j of V^-1 is inv_cols[j] / inv_dens[j]: V x = e_j solved from
    # row j up, over one integer denominator made primitive at the end.
    inv_cols: list[list[int]] = []
    inv_dens: list[int] = []
    for j in range(m):
        col, den = [0] * m, v[j][j]
        col[j] = 1
        for i in range(j - 1, -1, -1):
            t = -sum(v[i][k] * col[k] for k in range(i + 1, j + 1))
            g = math.gcd(t, v[i][i])
            step = v[i][i] // g
            col = [x * step for x in col]
            col[i] = t // g
            den *= step
        content = math.gcd(den, *col)
        inv_cols.append([x // content for x in col])
        inv_dens.append(den // content)
    # W^-1 = C diag(factors) C^T / factor_den, C the integer columns of V^-1.
    scales = [Fraction(delta**2, den**2) / w for delta, den, w in zip(deltas, inv_dens, weights)]
    factor_den = math.lcm(*(r.denominator for r in scales))
    factors = [r.numerator * (factor_den // r.denominator) for r in scales]
    weighted = [[f * x for f, x in zip(factors, row)] for row in zip(*inv_cols)]

    # S_s = sym_s / den_s: the solved values are gram_den * map_den * S_s.
    syms, dens = [], []
    for s in range(n):
        sym = [[values[unknown_id(s, a, b)] for b in range(m)] for a in range(m)]
        den = math.lcm(*(x.denominator for row in sym for x in row))
        syms.append([[x.numerator * (den // x.denominator) for x in row] for row in sym])
        dens.append(den * gram_den * map_den)
    common = math.lcm(*dens)
    pencil: list[RatMatrix] = []
    basis_ints: list[list[list[int]]] = []
    for sym, den in zip(syms, dens):
        # Z = V^-T S_s V^-1 = diag(1/inv_dens) K diag(1/inv_dens) / den,
        # K = C^T sym C for C the integer columns of V^-1; sym is symmetric.
        half = [[sum(x * y for x, y in zip(col, line)) for line in sym] for col in inv_cols]
        k = [[sum(x * y for x, y in zip(row, col)) for col in inv_cols] for row in half]
        pencil.append([[Fraction(deltas[a] * deltas[b] * k[a][b] * weights[a].denominator,
                                 inv_dens[a] * inv_dens[b] * den * weights[a].numerator)
                        for b in range(m)] for a in range(m)])
        # P_s = C diag(factors) half / (factor_den * den), over factor_den * common.
        half_cols = list(zip(*half))
        basis_ints.append([[sum(x * y for x, y in zip(row, col)) * (common // den) for col in half_cols]
                           for row in weighted])
    return pencil, (basis_ints, [factor_den * common] * m)


def _integer_pencil(weights: Sequence[Fraction], products: Sequence[RatMatrix]
                    ) -> tuple[list[int], list[list[list[int]]]]:
    """The symmetric pencil D, Y_s = D*G_s scaled to integers by one congruence.

    With sigma_a the lcm of the denominators of w_a and of row a of every
    Y_s (once (b) holds, row a carries the denominators of column a, so rows
    suffice), D' = diag(sigma^2 w) / c and Y'_s = diag(sigma) Y_s diag(sigma) / c
    are integer, c their content.  Returns (D', [Y'_s]), D' as its diagonal.
    det(a0*D' - sum_s a_s Y'_s) = prod(D') * det(a0*I - sum_s a_s G_s), and
    D'^-1 Y'_s = diag(sigma)^-1 G_s diag(sigma) is a similarity of G_s.
    """
    sigma = [math.lcm(w.denominator, *(x.denominator for y in products for x in y[a]))
             for a, w in enumerate(weights)]
    diag = [w.numerator * (r // w.denominator) * r for w, r in zip(weights, sigma)]
    ints = [[[x.numerator * (sigma[a] // x.denominator) * sigma[b] for b, x in enumerate(row)]
             for a, row in enumerate(y)] for y in products]
    content = math.gcd(*diag, *(x for m in ints for row in m for x in row)) or 1  # 0 when N = 0
    return [x // content for x in diag], [[[x // content for x in row] for row in m] for m in ints]


def _charpoly(ints: Sequence[Sequence[Sequence[int]]], dens: Sequence[int]
              ) -> tuple[list[dict[int, int]], int]:
    """(forms, den) with den * det(x0*I - sum_s x_s A_s) = sum_k forms[k] x0^k
    for A_s[a][b] = ints[s][a][b] / dens[a], exactly.

    Row a is divided by the gcd of dens[a] and its integers in every A_s,
    and the pencil is scaled by the lcm L of the reduced denominators.  One
    division-free Berkowitz pass over the ring of integer polynomials in
    x1..xn gives the characteristic polynomial sum_i c_i x0^(N-i) of L*A,
    so den = L^N and forms[N-i] = c_i * L^(N-i).  The forms are packed as
    in quotient.packed_forms with base N + 1, which no exponent of a form of
    degree N reaches: the form quotient.divide_packed reads.
    """
    size = len(dens)
    common = [math.gcd(den, *(m[a][b] for m in ints for b in range(size))) for a, den in enumerate(dens)]
    dens = [den // g for den, g in zip(dens, common)]
    scale = math.lcm(*dens)
    base = size + 1
    mat = [[{base**s: m[a][b] // g * (scale // den) for s, m in enumerate(ints) if m[a][b]}
            for b in range(size)] for a, (g, den) in enumerate(zip(common, dens))]
    coeffs = _berkowitz_charpoly(mat)
    forms = [{key: c * scale**k for key, c in coeffs[size - k].items()} for k in range(size + 1)]
    return forms, scale**size


def _berkowitz_charpoly(mat: list[list[dict[int, int]]]) -> list[dict[int, int]]:
    """Coefficients c_0..c_N of det(lam*I - M) = sum_i c_i lam^(N-i).

    Berkowitz (IPL 1984): with M = [[a, R], [C, M']], the characteristic
    polynomial of M is the lower-triangular Toeplitz matrix with first
    column (1, -a, -R C, -R M' C, ..., -R M'^(m-1) C) applied to that of the
    m x m block M'.  It starts from the empty matrix, whose characteristic
    polynomial is 1.  Only ring operations, so integer entries stay integers.
    """
    def neg(f):
        return {key: -c for key, c in f.items()}

    coeffs = [{0: 1}]
    for k in range(len(mat) - 1, -1, -1):
        block = [row[k + 1:] for row in mat[k + 1:]]
        toeplitz = [{0: 1}, neg(mat[k][k])]
        vec = [row[k] for row in mat[k + 1:]]
        for j in range(len(block)):
            if j:
                vec = [packed_dot(row, vec) for row in block]
            toeplitz.append(neg(packed_dot(mat[k][k + 1:], vec)))
        coeffs = [packed_dot(toeplitz[i::-1], coeffs) for i in range(len(toeplitz))]
    return coeffs


def _berkowitz_check(ctx: QuotientContext, diag: Sequence[int], ints: Sequence[Sequence[Sequence[int]]],
                     cofactor: Poly) -> str | None:
    """Check (c) as one comparison of integer forms: det(x0*I - sum_s x_s D'^-1 Y'_s)
    is cofactor * h_monic.

    The determinant is a nonzero form of degree N (its x0^N coefficient is
    1), so a cofactor that is not a nonzero form of degree N - d fails at
    once.  Otherwise no exponent exceeds N, and with den*det, c_den*cofactor
    and h_den*h_monic as integer forms packed in base N + 1 (_charpoly,
    quotient.packed_forms), the identity reads
    c_den * h_den * (den*det) = den * (c_den*cofactor) * (h_den*h_monic),
    compared coefficient by coefficient of x0.
    """
    size, d = len(diag), ctx.d
    failure = "pencil determinant differs from cofactor * h_monic"
    if cofactor.nvars != ctx.nvars or not cofactor or not (
        cofactor.is_homogeneous and cofactor.degree == size - d
    ):
        return failure
    forms, den = _charpoly(ints, diag)
    c_forms, c_den = packed_forms(cofactor, size + 1)
    h_forms, h_den = packed_forms(ctx.h, size + 1)
    scale = c_den * h_den
    for k, form in enumerate(forms):
        pairs = range(max(0, k - d), min(k, len(c_forms) - 1) + 1)
        product = packed_dot([c_forms[i] for i in pairs], [h_forms[k - i] for i in pairs])
        if {key: c * scale for key, c in form.items()} != {key: c * den for key, c in product.items()}:
            return failure
    return None


def _lattice_check(ctx: QuotientContext, diag: Sequence[int], ints: Sequence[Sequence[Sequence[int]]],
                   cofactor: Poly) -> str | None:
    """Check (c) at the points of the principal lattice, with no division by h.

    Once the cofactor is zero or a form of degree N - d in the certificate's
    variables, Delta = det(x0*I - sum_s x_s G_s) - cofactor * h_monic is a
    form of degree N, and a form of degree N that vanishes at every
    a in Z^(n+1)_{>=0} with sum(a) = N is zero: the principal lattice is
    unisolvent for degree N (Nicolaides 1972; Chung & Yao 1977).  The degree
    condition carries weight: cofactor * (x0 + x1 + x2) / N agrees with the
    cofactor at every lattice point.  The points are the exponents of the
    degree-N monomials (r_monomials_of_degree, x0's slot dropped), in
    descending lex order.  (diag, ints) is the integer pencil (D', [Y'_s])
    of _integer_pencil, so det(a0*D' - sum_s a_s Y'_s) =
    prod(D') * det(a0*I - sum_s a_s G_s) is one symmetric bareiss_determinant
    on its lower triangle.  den*cofactor and den*h_monic at a are
    sum_j c_j(a1..an)*a0^j over their integer_forms, h_monic's the
    context's line_forms.
    """
    size = len(diag)
    degree = size - ctx.d
    if cofactor.nvars != ctx.nvars or (
        cofactor and not (cofactor.is_homogeneous and cofactor.degree == degree)
    ):
        return f"cofactor is not a form of degree N - d = {degree} in x0..x{ctx.n}"
    cofactor_forms, cofactor_den = integer_forms(cofactor)
    h_forms, h_den = ctx.line_forms
    diag_product = math.prod(diag)
    for mono in r_monomials_of_degree(ctx.nvars + 1, size):
        point = mono[1:]
        a0, *rest = point
        mat = [[0] * a + [a0 * d] for a, d in enumerate(diag)]
        for c, m in zip(rest, ints):
            if c:
                # zip stops at row a's a + 1 entries: the lower triangle.
                mat = [[x - c * y for x, y in zip(row, line)] for row, line in zip(mat, m)]
        lhs = bareiss_determinant(mat) * cofactor_den * h_den
        cofactor_value, h_value = (sum(c * a0**j for j, c in enumerate(restriction(forms, rest)))
                                   for forms in (cofactor_forms, h_forms))
        if lhs != diag_product * cofactor_value * h_value:
            return f"pencil determinant differs from cofactor * h_monic at {point}"
    return None


def certify(h: Poly, e: Sequence[RationalLike], options: CertifyOptions | None = None) -> DetRepCertificate:
    """A certificate for h along e that verify_certificate replays: G_1..G_n
    with D*G_i symmetric and det(x0*I - sum_i x_i G_i) = cofactor * h_monic.

    h must be hyperbolic with respect to e and real-smooth; options
    (CertifyOptions) caps the multiplier exponent and steers the PD-witness
    sampling.  Raises InputError when normalize_direction refuses h or e,
    CertifyError "pd_witness" when a sampled line of h_monic has a repeated
    or complex root (h is not hyperbolic or has a real singularity),
    Exhausted when no multiplier up to options.lmax yields an exact
    decomposition, HyperdetError when a level needs the SDP and numpy
    cannot be imported, NoSymmetricLift when the lift has no solution, and
    CertifyError "self_verify" when the pencil determinant is not a
    multiple of h_monic.  The certificate is not replayed here; README
    steps 5 and 6 give the construction and why (a), (b) and (d) of the
    replay hold by construction.
    """
    opts = options or CertifyOptions()
    ev = as_point(e)
    h_norm, transform = normalize_direction(h, ev)
    ctx = QuotientContext(h_norm)

    report = pd_witness_check(ctx, opts.num_samples, opts.seed)
    if not report.ok:
        raise CertifyError(
            "pd_witness",
            f"derivative Bézoutian not positive definite at v={tuple(map(str, report.witness))}; "
            "the polynomial is not hyperbolic or has a real singularity",
            witness=report.witness,
        )

    dec = find_sos_decomposition(ctx, opts.lmax)
    pencil, (basis_ints, basis_dens) = solve_symmetric_lift(ctx, dec)
    forms, den = _charpoly(basis_ints, basis_dens)
    base = len(basis_dens) + 1
    quotient, q_den, remainder, _ = divide_packed(ctx, forms, base)
    if any(remainder):
        raise CertifyError("self_verify", "(c) pencil determinant is not a multiple of h_monic")
    return DetRepCertificate(
        h=h,
        e=ev,
        transform=transform,
        size=len(dec.rows),
        weights=list(dec.weights),
        pencil=pencil,
        cofactor=unpacked_poly(quotient, q_den * den, base, ctx.nvars),
        multiplier=dec.multiplier,
    )


def verify_certificate(cert: DetRepCertificate) -> tuple[bool, list[str]]:
    """Replay the certified identities in exact arithmetic: (ok, diagnostics).

    Checks (a) D is a positive diagonal of the pencil size, (b) D*G_i is
    symmetric for every i, (c) det(x0*I - sum_i x_i G_i) is exactly
    cofactor * h_monic, h_monic rebuilt from h and e, and (d) T is the T of
    normalize_direction(h, e).  (c) runs only once (a) and (b) hold, and
    neither (c) nor (d) when normalize_direction refuses h or e.  Each
    failure is one diagnostic line, never an exception, and ok is whether
    there is none.  The SDP and the sampled checks are not replayed.  README
    step 6 gives the two exact routes of (c), neither of which divides by
    h_monic.
    """
    diagnostics: list[str] = []
    size = cert.size
    n = len(cert.e) - 1

    weights_ok = len(cert.weights) == size and all(w > 0 for w in cert.weights)
    if not weights_ok:
        diagnostics.append("(a) weight matrix is not a positive diagonal of the pencil size")

    shapes_ok = len(cert.pencil) == n and all(
        len(g) == size and all(len(row) == size for row in g) for g in cert.pencil
    )
    if not shapes_ok:
        diagnostics.append("(b) pencil must be one square size-N matrix per variable x1..xn")
    elif weights_ok:
        products = [[[w * x if x else x for x in row] for w, row in zip(cert.weights, g)]
                    for g in cert.pencil]
        diagnostics += [f"(b) D*G_{s} is not symmetric"
                        for s, y in enumerate(products, 1) if not is_symmetric(y)]

    try:
        h_norm, transform = normalize_direction(cert.h, cert.e)
        gate = None
    except InputError as exc:
        gate = f"could not be replayed: {exc}"

    if shapes_ok:
        if gate:
            failure = f"determinant check {gate}"
        elif diagnostics:
            failure = "not replayed: it needs (a) and (b)"
        else:
            failure = (_lattice_check if n == 2 else _berkowitz_check)(
                QuotientContext(h_norm), *_integer_pencil(cert.weights, products), cert.cofactor)
        if failure:
            diagnostics.append(f"(c) {failure}")

    if gate:
        diagnostics.append(f"(d) direction check {gate}")
    elif cert.transform != transform:
        diagnostics.append("(d) T is not the normalization of e")

    return (not diagnostics, diagnostics)
