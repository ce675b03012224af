"""The package root exports the documented library surface and nothing else."""

import ast
from pathlib import Path

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
    assert len(errors) == 11 and errors <= set(PUBLIC)


def private_imports(package: Path) -> list[str]:
    """file:line name for each _-prefixed name a module of the package
    imports from another of its modules."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hyperdet")):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    # A leading underscore keeps a name inside its module; what a sibling
    # needs has a public name.
    assert private_imports(Path(hyperdet.__file__).parent) == []
