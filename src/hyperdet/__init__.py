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
    DimensionMismatch,
    DirectionVanishes,
    Exhausted,
    HyperdetError,
    InputError,
    NoSymmetricLift,
    NotPD,
    PolyParseError,
    ZeroPolynomial,
)
from .poly import Poly, parse_poly
from .hyperbolicity import check_hyperbolic_sampled
from .detrep import CertifyOptions, DetRepCertificate, certify, verify_certificate

__version__ = "0.1.0"

# The library surface the README documents; internals are imported from
# their modules (hyperdet.detrep, hyperdet.sos, ...), as hyperdet.cli does.
__all__ = [
    "CertifyError",
    "CertifyOptions",
    "DegreeTooSmall",
    "DetRepCertificate",
    "DimensionMismatch",
    "DirectionVanishes",
    "Exhausted",
    "HyperdetError",
    "InputError",
    "NoSymmetricLift",
    "NotPD",
    "Poly",
    "PolyParseError",
    "ZeroPolynomial",
    "certify",
    "check_hyperbolic_sampled",
    "parse_poly",
    "verify_certificate",
]
