"""The tolerance policy: every numeric threshold of the library is named here.

A value counts as zero at scale s when it is at most tol.zero(s) = abs + rel|s|.
A check on a computed quantity allows SLACK * tol.zero(s), its SLACK level naming
the error the quantity may carry, and `Tolerance.check` is the one place that
compares a residual with that allowance; `Tolerance.agrees` is the one test
that a value equals its target.  One Tolerance travels through a whole analysis run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CrossCheckFailed, InvalidTolerance

__all__ = ["Tolerance", "DEFAULT_TOL", "snap_value", "snap_array"]

ENTRY_SLACK = 1e3  # one table entry, or sum_j 1/n_j, against an exact constant
VALUE_SLACK = 1e4  # one table-derived value against its exact or defining value
IDENTITY_SLACK = 1e5  # an identity summed over the basis or the characters
ROUTE_SLACK = 1e6  # one quantity built by two independent numeric routes

EIGEN_GAP = 1e-8  # least eigenvalue gap of the solver's combination, times 1 + max|w|
EIGEN_CONDITION = 1e10  # largest condition number of its eigenvector matrix
COLUMN_ORDER_DIGITS = 9  # decimals of the value vectors that order the table's columns
GRADING_DIGITS = 6  # decimals of the normalized values that partition the grading
SNAP_DENOMINATOR_BOUND = 10**4  # largest denominator a snapped rational may have


@dataclass(frozen=True)
class Tolerance:
    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        # NaN fails every comparison, so test for the good case
        if not all(np.isfinite(t) and t > 0 for t in (self.abs, self.rel)):
            raise InvalidTolerance(f"tolerances {self.abs}, {self.rel} are not finite and positive")

    def zero(self, scale: float = 0.0) -> float:
        """Threshold below which a value of the given ambient scale counts as zero."""
        return self.abs + self.rel * abs(scale)

    def check(self, residual, slack, scale, message: str, *args):
        """Raise CrossCheckFailed(message.format(*args)) when residual > slack * zero(scale).

        The message begins with the check's name.  It is formatted only on
        failure, so a passing check costs one comparison."""
        if residual > slack * self.zero(scale):
            raise CrossCheckFailed(message.format(*args))

    def agrees(self, values, target):
        """|values - target| <= VALUE_SLACK * zero(1 + target), elementwise."""
        return np.abs(values - target) <= VALUE_SLACK * self.zero(1.0 + target)


DEFAULT_TOL = Tolerance()


def snap_value(value: float, tol: Tolerance = DEFAULT_TOL) -> int | Fraction | float:
    """Nearest integer, else nearest bounded-denominator rational, else the float back.

    An exact return type (int or Fraction) means the snap succeeded; a float
    return means the value is tagged non-rational at this tolerance.  The
    rational is Fraction(x).limit_denominator(B), B = SNAP_DENOMINATOR_BOUND, by its own
    continued-fraction walk on the ints n / d = x.as_integer_ratio(); of the
    last two candidates it keeps the nearer, comparing |p d - n q| / q by
    cross-multiplication (the convergent p1 / q1 on a tie).
    """
    x = float(value)
    r = round(x)
    if abs(x - r) <= tol.zero(x):
        return int(r)
    bound = SNAP_DENOMINATOR_BOUND
    p, q = n, d = x.as_integer_ratio()
    if d > bound:
        p0, q0, p1, q1 = 0, 1, 1, 0
        while q0 + p // q * q1 <= bound:
            a = p // q
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
            p, q = q, p - a * q
        k = (bound - q0) // q1
        p, q = p0 + k * p1, q0 + k * q1
        if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
            p, q = p1, q1
    # p / q is float(Fraction(p, q))
    return Fraction(p, q) if abs(x - p / q) <= tol.zero(x) else x


def snap_array(values, tol: Tolerance = DEFAULT_TOL) -> np.ndarray | None:
    """`snap_value` on every entry: an object array of ints and Fractions, or
    None when some entry stays a float.

    The integer test runs on the whole array at once.  The other entries are
    snapped first, in row-major order, so a rejected array stops at its first
    non-rational entry; then the integers are converted together.
    """
    x = np.asarray(values, dtype=float)
    n = np.round(x)
    ints = np.abs(x - n) <= tol.zero(x)
    out = np.empty(x.shape, dtype=object)
    rest = []
    for v in x[~ints].tolist():
        rest.append(snap_value(v, tol))
        if isinstance(rest[-1], float):
            return None
    out[~ints] = rest
    out[ints] = [int(v) for v in n[ints].tolist()]
    return out
