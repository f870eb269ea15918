"""Exact determinants over int / Fraction entries (desk-scale matrices)."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import integer_form

__all__ = ["exact_det"]


def _bareiss_int(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact for integer matrices."""
    n = len(rows)
    if n == 0:
        return 1
    a = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def exact_det(matrix) -> Fraction:
    """Determinant of a square matrix of ints / Fractions, computed exactly."""
    arr = np.asarray(matrix, dtype=object)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ValueError(f"not square: {arr.shape}")
    scale, (cleared,) = integer_form(arr, terms=1)
    return Fraction(_bareiss_int(cleared.tolist()), scale**n)
