"""Numeric tolerance record shared by all floating-point checks.

A single Tolerance instance travels through a whole analysis run so that every
zero test, snap and residual check uses the same thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidTolerance

__all__ = ["Tolerance", "DEFAULT_TOL", "snap_value", "snap_array"]


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
