"""The tolerance policy: every numeric threshold of the library is named here.

A value counts as zero at scale s when it is at most tol.zero(s) = abs + rel|s|.
A check on a computed quantity allows SLACK * tol.zero(s), its SLACK level naming
the error the quantity may carry; `Tolerance.agrees` is the one test that a
value equals its target.  One Tolerance travels through a whole analysis run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidTolerance

__all__ = ["Tolerance", "DEFAULT_TOL", "snap_value", "snap_array"]

ENTRY_SLACK = 1e3  # one table entry, or sum_j 1/n_j, against an exact constant
VALUE_SLACK = 1e4  # one table-derived value against its exact or defining value
IDENTITY_SLACK = 1e5  # an identity summed over the basis or the characters
ROUTE_SLACK = 1e6  # one quantity built by two independent numeric routes

EIGEN_GAP = 1e-8  # least eigenvalue gap of the solver's combination, times 1 + max|w|
EIGEN_CONDITION = 1e10  # largest condition number of its eigenvector matrix
COLUMN_ORDER_DIGITS = 9  # decimals of the value vectors that order the table's columns
GRADING_DIGITS = 6  # decimals of the normalized values that partition the grading


@dataclass(frozen=True)
class Tolerance:
    abs: float = 1e-9
    rel: float = 1e-9
    snap_denominator_bound: int = 10**4

    def __post_init__(self):
        # NaN fails every comparison, so test for the good case
        if not all(np.isfinite(t) and t > 0 for t in (self.abs, self.rel)):
            raise InvalidTolerance(f"tolerances {self.abs}, {self.rel} are not finite and positive")

    def zero(self, scale: float = 0.0) -> float:
        """Threshold below which a value of the given ambient scale counts as zero."""
        return self.abs + self.rel * abs(scale)

    def agrees(self, values, target):
        """|values - target| <= VALUE_SLACK * zero(1 + target), elementwise."""
        return np.abs(values - target) <= VALUE_SLACK * self.zero(1.0 + target)


DEFAULT_TOL = Tolerance()


def snap_value(value: float, tol: Tolerance = DEFAULT_TOL) -> int | Fraction | float:
    """Nearest integer, else nearest bounded-denominator rational, else the float back.

    An exact return type (int or Fraction) means the snap succeeded; a float
    return means the value is tagged non-rational at this tolerance.
    """
    x = float(value)
    n = round(x)
    if abs(x - n) <= tol.zero(x):
        return int(n)
    q = Fraction(x).limit_denominator(tol.snap_denominator_bound)
    if abs(x - float(q)) <= tol.zero(x):
        return q
    return x


def snap_array(values, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """`snap_value` on every entry: an object array of ints and Fractions, or
    None when some entry stays a float.

    The integer test runs on the whole array at once; only the entries that
    fail it go through `snap_value` one by one.
    """
    x = np.asarray(values, dtype=float)
    n = np.round(x)
    ints = np.abs(x - n) <= tol.zero(x)
    out = np.empty(x.shape, dtype=object)
    out[ints] = [int(v) for v in n[ints]]
    for idx in zip(*np.nonzero(~ints)):
        s = snap_value(x[idx], tol)
        if isinstance(s, float):
            return None
        out[idx] = s
    return out
