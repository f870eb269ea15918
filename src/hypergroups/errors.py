"""Exception hierarchy.

Everything raised on purpose by this library derives from HypergroupError.
A domain error (invalid input, or a ring outside a method's scope) is a plain
HypergroupError subclass, and the CLI exits 2 on it.  A numeric failure (a
floating computation that fails its own checks on valid input) derives from
NumericFailure, and the CLI exits 3 on it.  An exclusion test that does not
apply to a ring says so in its verdict instead of raising.  Every cross-check
between two computations of one quantity raises CrossCheckFailed, whose
message begins with the check's name where the text does not already say it.
"""

from __future__ import annotations

__all__ = [
    "HypergroupError",
    "AxiomViolation",
    "DimensionMismatch",
    "InvalidRescale",
    "NotNormalizable",
    "NotAbelian",
    "NumericFailure",
    "OrthogonalityResidualExceeded",
    "InexactTensor",
    "DualAxiomViolation",
    "CrossCheckFailed",
    "ClosureViolation",
    "SignMismatch",
    "NotPositive",
    "IdempotentResidual",
    "ClassInconsistency",
    "NoValidPartition",
    "TheoremViolation",
    "OrderBoundExceeded",
    "ParseError",
    "BudgetExceeded",
    "InvalidOrders",
    "InvalidType",
    "InvalidTolerance",
]


class HypergroupError(Exception):
    """Base class for all library errors."""


class AxiomViolation(HypergroupError):
    """A hypergroup axiom fails; carries the law name and first failing indices."""

    def __init__(self, law: str, indices: tuple, detail: str = ""):
        self.law = law
        self.indices = indices
        msg = f"{law} violated at indices {indices}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DimensionMismatch(HypergroupError):
    pass


class InvalidRescale(HypergroupError):
    pass


class NotNormalizable(HypergroupError):
    pass


class NotAbelian(HypergroupError):
    pass


class NumericFailure(HypergroupError):
    """A floating computation failed its own consistency requirements."""


class OrthogonalityResidualExceeded(NumericFailure):
    pass


class InexactTensor(HypergroupError):
    pass


class DualAxiomViolation(NumericFailure):
    """The dual at a character of a valid hypergroup fails the axioms."""


class CrossCheckFailed(NumericFailure):
    """Two computations of one quantity disagree; the message names the check."""



class ClosureViolation(HypergroupError):
    pass


class SignMismatch(NumericFailure):
    pass



class NotPositive(HypergroupError):
    pass



class IdempotentResidual(NumericFailure):
    pass




class ClassInconsistency(NumericFailure):
    pass




class NoValidPartition(NumericFailure):
    pass



class TheoremViolation(NumericFailure):
    """A theorem-backed implication failed on qualifying data; indicates a bug."""


class OrderBoundExceeded(HypergroupError):
    pass



class ParseError(HypergroupError):
    def __init__(self, line: int, col: int, reason: str):
        self.line = line
        self.col = col
        self.reason = reason
        super().__init__(f"parse error at line {line}, col {col}: {reason}")


class BudgetExceeded(HypergroupError):
    pass


class InvalidOrders(HypergroupError):
    pass


class InvalidType(HypergroupError, ValueError):
    """A dimension type that names no fusion ring type (no unit, d < 1)."""


class InvalidTolerance(HypergroupError, ValueError):
    """A tolerance that is not a finite positive number (NaN, inf, <= 0)."""
