"""Exact determinants of integer matrices, such as the slices C[i] = L N_i of
the integer form (det C[i] = L^m det L_{x_i}): a modular screen over a whole
stack, then Bareiss on Python ints where the screen cannot decide (a zero
residue) or the determinant itself is needed (a message, a certificate)."""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["exact_det", "det_nonzero_mod_p"]

P = 2**31 - 1


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


def exact_det(matrix) -> int:
    """Determinant of a square integer matrix (int64 or Python ints; any other
    entry raises TypeError)."""
    arr = np.asarray(matrix)
    n = arr.shape[0]
    if arr.shape != (n, n):
        raise ValueError(f"not square: {arr.shape}")
    return _bareiss_int([[operator.index(x) for x in row] for row in arr.tolist()])


def det_nonzero_mod_p(stack: np.ndarray) -> np.ndarray:
    """[b]: det(stack[b]) mod P != 0, for a (b, n, n) stack of integers (int64
    or Python ints); True proves det != 0.  Fraction-free elimination in Z/P:
    step k moves the first row at or below k that is non-zero in column k up
    to row k, then sets row_r = a_kk row_r - a_rk row_k below it, multiplying
    det by a unit.  The residue is non-zero iff every step finds such a row.
    Entries stay below P < 2^31, so every product fits in int64.
    """
    a = np.asarray(stack % P, dtype=np.int64)
    b, n, _ = a.shape
    alive = np.ones(b, dtype=bool)
    rows = np.arange(b)
    for k in range(n):
        nonzero = a[:, k:, k] != 0
        alive &= nonzero.any(axis=1)
        pivot = k + nonzero.argmax(axis=1)
        top = a[rows, pivot, k:]
        a[rows, pivot, k:] = a[:, k, k:]
        below = a[:, k + 1 :, k + 1 :]
        below *= top[:, None, :1]
        below -= a[:, k + 1 :, k : k + 1] * top[:, None, 1:]
        below %= P
    return alive
