"""hyperdet: exact certificates of definite determinantal representations.

Given a homogeneous polynomial h that is hyperbolic with respect to a
direction e (real-rooted along every line through e) and real-smooth, the
pipeline constructs symmetric-up-to-weights matrices G_1..G_n with

    det(x0*I - x1*G_1 - ... - xn*G_n)  =  cofactor * h   (monic, normalized
    coordinates),

positive definite at e, and verifies every identity in exact rational
arithmetic.  See the README for the CLI and the certificate format.
"""

from .errors import (
    CertifyError,
    DegreeTooSmall,
    DegreeViolation,
    DimensionMismatch,
    DirectionVanishes,
    Exhausted,
    HyperdetError,
    InputError,
    NoSymmetricLift,
    NotDivisible,
    NotPD,
    PolyParseError,
    RoundingFailed,
    SingularMatrix,
    ZeroPolynomial,
)
from .poly import (
    Poly,
    UniPoly,
    apply_linear,
    as_fraction,
    as_point,
    exact_divide,
    format_poly,
    normalize_direction,
    parse_poly,
    substitute_line,
)
from .quotient import (
    BezoutianForm,
    QuotientContext,
    QuotientElement,
    bezout_matrix_univariate,
    bezoutian_of,
    delta_bezoutian,
    evaluate_form,
    is_bezoutian,
    mult_x0_matrix,
    reduce_mod_h,
)
from .hyperbolicity import (
    HyperbolicityVerdict,
    PdWitnessReport,
    check_hyperbolic_sampled,
    count_real_roots,
    is_real_rooted,
    pd_witness_check,
)
from .sdp import SdpProblem, SdpSolution, solve_maxeig
from .sos import (
    GramIndex,
    SosDecomposition,
    find_sos_decomposition,
    gram_problem,
    monomial_basis_Mk,
    round_gram,
)
from .linalg import invert_matrix, ldl_decompose
from .detrep import (
    CertifyOptions,
    DetRepCertificate,
    certify,
    extract_cofactor,
    pencil_determinant,
    solve_symmetric_lift,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "BezoutianForm",
    "CertifyError",
    "CertifyOptions",
    "DegreeTooSmall",
    "DegreeViolation",
    "DetRepCertificate",
    "DimensionMismatch",
    "DirectionVanishes",
    "Exhausted",
    "GramIndex",
    "HyperbolicityVerdict",
    "HyperdetError",
    "InputError",
    "NoSymmetricLift",
    "NotDivisible",
    "NotPD",
    "PdWitnessReport",
    "Poly",
    "PolyParseError",
    "QuotientContext",
    "QuotientElement",
    "RoundingFailed",
    "SdpProblem",
    "SdpSolution",
    "SingularMatrix",
    "SosDecomposition",
    "UniPoly",
    "ZeroPolynomial",
    "apply_linear",
    "as_fraction",
    "as_point",
    "bezout_matrix_univariate",
    "bezoutian_of",
    "certify",
    "check_hyperbolic_sampled",
    "count_real_roots",
    "delta_bezoutian",
    "evaluate_form",
    "exact_divide",
    "extract_cofactor",
    "find_sos_decomposition",
    "format_poly",
    "gram_problem",
    "invert_matrix",
    "is_bezoutian",
    "is_real_rooted",
    "ldl_decompose",
    "monomial_basis_Mk",
    "mult_x0_matrix",
    "normalize_direction",
    "parse_poly",
    "pd_witness_check",
    "pencil_determinant",
    "reduce_mod_h",
    "round_gram",
    "solve_maxeig",
    "solve_symmetric_lift",
    "substitute_line",
    "verify_certificate",
]
