"""Exception hierarchy.

Everything raised on purpose by this library derives from HypergroupError.
A domain error (invalid input, or a ring outside a method's scope) is a plain
HypergroupError subclass, and the CLI exits 2 on it.  A numeric failure (a
floating computation that fails its own checks on valid input) derives from
NumericFailure, and the CLI exits 3 on it.  An exclusion test that does not
apply to a ring says so in its verdict instead of raising.  When a computed
quantity fails a check (every `Tolerance.check` among them), the library
raises CrossCheckFailed, and the message begins with the check's name.
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
    "InexactTensor",
    "DualAxiomViolation",
    "CrossCheckFailed",
    "ClosureViolation",
    "NotPositive",
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


class InexactTensor(HypergroupError):
    pass


class DualAxiomViolation(NumericFailure):
    """The dual at a character of a valid hypergroup fails the axioms."""


class CrossCheckFailed(NumericFailure):
    """A computed quantity failed a check; the message begins with the check's name."""


class ClosureViolation(HypergroupError):
    pass


class NotPositive(HypergroupError):
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
