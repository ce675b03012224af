"""The package root exports the documented library surface and nothing else."""

import hyperdet

PUBLIC = [
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
    "RoundingFailed",
    "ZeroPolynomial",
    "certify",
    "check_hyperbolic_sampled",
    "parse_poly",
    "verify_certificate",
]


def test_all_is_the_documented_surface():
    assert sorted(hyperdet.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(hyperdet, name), name
    errors = {name for name, value in vars(hyperdet.errors).items()
              if isinstance(value, type) and issubclass(value, hyperdet.HyperdetError)}
    assert len(errors) == 12 and errors <= set(PUBLIC)
