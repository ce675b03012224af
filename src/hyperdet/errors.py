"""Exception hierarchy shared by all hyperdet modules."""

from __future__ import annotations


class HyperdetError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HyperdetError):
    """Input no command can work on (the exit-2 family); other errors refuse."""


class PolyParseError(InputError):
    """Raised when polynomial text does not match the input grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DimensionMismatch(InputError):
    """Operands use a different number of variables or coordinates."""


class DirectionVanishes(InputError):
    """The polynomial vanishes at the proposed hyperbolicity direction."""


class ZeroPolynomial(HyperdetError):
    """The zero polynomial was passed where a nonzero one is required."""


class DegreeTooSmall(HyperdetError):
    """Generator degree k below d-1; the graded piece cannot generate."""


class NotPD(HyperdetError):
    """An exact LDL^T factorization hit a non-positive pivot."""


class Exhausted(HyperdetError):
    """No sum-of-squares decomposition found up to the multiplier cap."""

    def __init__(self, ell_max: int, message: str = ""):
        detail = message or f"no decomposition found for any multiplier exponent <= {ell_max}"
        super().__init__(detail)
        self.ell_max = ell_max


class NoSymmetricLift(HyperdetError):
    """The lift's symmetric system is inconsistent, or the generator rows are singular."""


class CertifyError(HyperdetError):
    """A certify refusal; stage is "pd_witness" or "self_verify" (a soundness bug)."""

    def __init__(self, stage: str, message: str, witness=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.witness = witness
