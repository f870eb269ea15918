"""Exception hierarchy.

Everything raised on purpose by this library derives from HypergroupError.
Numeric-failure errors (cross-checks between exact and floating paths that must
agree) derive from NumericFailure so callers can map them to a distinct exit
code.
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
    "DegenerateSpectrum",
    "HomomorphismCheckFailed",
    "NoPositiveColumn",
    "MultiplePositiveColumns",
    "OrthogonalityResidualExceeded",
    "InexactTensor",
    "DualAxiomViolation",
    "CrossCheckFailed",
    "NoIsomorphismFound",
    "ClosureViolation",
    "ExactNumericDisagreement",
    "SignMismatch",
    "VerdictResidualMismatch",
    "NotPositive",
    "SupportMismatch",
    "IdempotentResidual",
    "GradingCrossCheckFailed",
    "BiperpMismatch",
    "ClassInconsistency",
    "SandwichViolation",
    "SeriesDisagreement",
    "NoValidPartition",
    "ConjugationViolation",
    "TheoremViolation",
    "NotWeaklyIntegral",
    "NotNearGroup",
    "NotApplicable",
    "OrderBoundExceeded",
    "SnapFailure",
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


class DegenerateSpectrum(NumericFailure):
    pass


class HomomorphismCheckFailed(NumericFailure):
    pass


class NoPositiveColumn(NumericFailure):
    pass


class MultiplePositiveColumns(NumericFailure):
    pass


class OrthogonalityResidualExceeded(NumericFailure):
    pass


class InexactTensor(HypergroupError):
    pass


class DualAxiomViolation(HypergroupError):
    pass


class CrossCheckFailed(NumericFailure):
    pass


class NoIsomorphismFound(NumericFailure):
    pass


class ClosureViolation(HypergroupError):
    pass


class ExactNumericDisagreement(NumericFailure):
    """The exact determinant path and the numeric zero test disagree; fatal."""


class SignMismatch(NumericFailure):
    pass


class VerdictResidualMismatch(NumericFailure):
    pass


class NotPositive(HypergroupError):
    pass


class SupportMismatch(NumericFailure):
    pass


class IdempotentResidual(NumericFailure):
    pass


class GradingCrossCheckFailed(NumericFailure):
    pass


class BiperpMismatch(NumericFailure):
    pass


class ClassInconsistency(NumericFailure):
    pass


class SandwichViolation(NumericFailure):
    pass


class SeriesDisagreement(NumericFailure):
    pass


class NoValidPartition(NumericFailure):
    pass


class ConjugationViolation(NumericFailure):
    pass


class TheoremViolation(NumericFailure):
    """A theorem-backed implication failed on qualifying data; indicates a bug."""


class NotWeaklyIntegral(HypergroupError):
    pass


class NotNearGroup(HypergroupError):
    pass


class NotApplicable(HypergroupError):
    pass


class OrderBoundExceeded(HypergroupError):
    pass


class SnapFailure(NumericFailure):
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
