"""Character tables of abelian hypergroups and everything read off them.

The character table is found by simultaneously diagonalizing the commuting
left-multiplication matrices through a seeded random linear combination; every
value is then verified (eigen-residuals, homomorphism property, orthogonality)
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from ._exact import exact_det
from .core import Element, FusionData, basis_element, check_length, integer_form, multiply, orders
from .errors import CrossCheckFailed, InexactTensor, NotAbelian, NotNormalizable, NumericFailure
from .tolerance import (
    COLUMN_ORDER_DIGITS, DEFAULT_TOL, EIGEN_CONDITION, EIGEN_GAP, ENTRY_SLACK, IDENTITY_SLACK,
    VALUE_SLACK, Tolerance,
)

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "CharacterTable",
    "character_table",
    "fp_character",
    "order",
    "integral_element",
    "verify_fp_value",
    "integral_element_of_subset",
]

RETRY_BUDGET = 8


@dataclass(frozen=True)
class CharacterTable:
    """values[i, j] = mu_j(x_i); row 0 is all ones, column order is canonical.

    `positive_columns` are the real, strictly positive columns; the FP column
    is the only one when there is exactly one."""

    values: np.ndarray  # (m, m) complex
    positive_columns: tuple
    codegrees: np.ndarray  # (m,) float, n_j
    idempotents: np.ndarray  # (m, m) complex, row j = coordinates of F_j
    h: np.ndarray  # (m,) float, basis orders
    tol: Tolerance

    @property
    def rank(self) -> int:
        return self.values.shape[0]

    @property
    def fp_index(self) -> int | None:
        """The FP column, 0 in canonical order, or None without a unique one."""
        return self.positive_columns[0] if len(self.positive_columns) == 1 else None

    def fp_dims(self) -> np.ndarray:
        """d_i = FPdim(x_i), the entries of the unique positive column."""
        return self.values[:, fp_character(self)].real.copy()


def _simultaneous_diagonalization(L: np.ndarray, seed: int):
    m = L.shape[0]
    rng = np.random.default_rng(seed)
    last_sep = np.inf
    for _ in range(RETRY_BUDGET):
        coeffs = rng.standard_normal(m)
        M = np.tensordot(coeffs, L, axes=(0, 0))
        w, V = np.linalg.eig(M)
        if m == 1:
            return V
        diffs = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(diffs, np.inf)
        sep = diffs.min()
        last_sep = min(last_sep, sep)
        if sep > EIGEN_GAP * (1.0 + np.abs(w).max()) and np.linalg.cond(V) < EIGEN_CONDITION:
            return V
    raise NumericFailure(
        f"solver: no separating combination in {RETRY_BUDGET} attempts (min gap {last_sep:.3e})"
    )


def character_table(
    data: FusionData, tol: Tolerance = DEFAULT_TOL, seed: int = 0
) -> CharacterTable:
    """Diagonalize the regular representation of an abelian hypergroup.

    Columns are the characters mu_j, canonically ordered: the positive (FP)
    column first when there is exactly one, then lexicographically by rounded
    value vectors, so repeated runs produce identical tables.
    """
    if not data.flags_at(tol).abelian:
        raise NotAbelian(f"{data.name}: tensor is not commutative")
    m = data.rank
    L = data.left_matrices_float()
    scale = 1.0 + float(np.abs(L).max())
    V = _simultaneous_diagonalization(L, seed)
    D = np.linalg.inv(V) @ L @ V
    diag = np.arange(m)
    values = D[:, diag, diag].astype(complex)
    off = np.abs(D)
    off[:, diag, diag] = 0.0
    off = off.max(axis=(1, 2))
    i = off.argmax()
    tol.check(off[i], IDENTITY_SLACK, scale,
              "solver: L_{} not diagonalized (off-diagonal {:.3e})", i, off[i])
    # row of the unit is identically 1
    tol.check(np.abs(values[0] - 1.0).max(), ENTRY_SLACK, 1.0,
              "homomorphism: unit row deviates from 1")

    # multiplicative check on all basis pairs, all characters
    N = data.float_tensor()
    lhs = np.einsum("ikl,lj->ikj", N, values)
    rhs = values[:, None, :] * values[None, :, :]
    resid = np.abs(lhs - rhs).max()
    vmax = 1.0 + np.abs(values).max()
    tol.check(resid, VALUE_SLACK, scale * vmax * vmax, "homomorphism: residual {:.3e}", resid)

    positive = _positive_columns(values, tol)
    fp = positive[0] if len(positive) == 1 else None
    column_order = _canonical_column_order(values, fp)
    values = values[:, column_order]

    h = np.array([float(x) for x in orders(data)])
    inv = list(data.involution)
    # n_j from the pairing theorem, cross-checked against the |.|^2 form
    n_pairing = np.einsum("i,ij,ij->j", h, values, values[inv, :])
    codegrees = np.einsum("i,ij->j", h, np.abs(values) ** 2).real
    tol.check(np.abs(n_pairing - codegrees).max(), VALUE_SLACK, 1.0 + codegrees.max(),
              "orthogonality: codegree pairing disagrees with |mu|^2 form"
              " (non-normalizable data?)")
    idempotents = (h[None, :] * values[inv, :].T) / codegrees[:, None]

    table = CharacterTable(
        values=values,
        positive_columns=tuple(sorted(column_order.index(j) for j in positive)),
        codegrees=codegrees,
        idempotents=idempotents,
        h=h,
        tol=tol,
    )
    _verify_table(data, table)
    return table


def _canonical_column_order(values: np.ndarray, fp: int | None) -> list[int]:
    """The FP column first, then the others by their rounded value vectors."""

    rounded = np.round(values, COLUMN_ORDER_DIGITS).T
    keys = np.stack([rounded.real, rounded.imag], axis=2).tolist()
    rest = sorted((j for j in range(values.shape[1]) if j != fp), key=keys.__getitem__)
    return ([fp] if fp is not None else []) + rest


def _positive_columns(values: np.ndarray, tol: Tolerance) -> list[int]:
    """Columns that are real and strictly positive within tol."""
    real = np.abs(values.imag).max(axis=0) <= tol.zero(1.0 + np.abs(values).max(axis=0))
    return np.flatnonzero(real & (values.real > tol.zero(1.0)).all(axis=0)).tolist()


def _match_columns(values: np.ndarray, vecs: np.ndarray, thr, message) -> np.ndarray:
    """cols[r]: the column of `values` nearest row r of `vecs` in the max norm.

    Raises CrossCheckFailed(message(r, residual)) at the first row r farther
    than `thr` (a scalar, or one per row) from its nearest column, else at the
    first row whose nearest column an earlier row has taken.
    """
    diffs = np.abs(vecs[:, None, :] - values.T[None, :, :]).max(axis=2)
    cols = diffs.argmin(axis=1)
    resid = diffs[np.arange(len(cols)), cols]
    repeated = [r for r in range(len(cols)) if cols[r] in cols[:r]]
    bad = [*np.flatnonzero(resid > thr).tolist(), *repeated]
    if bad:
        raise CrossCheckFailed(message(bad[0], resid[bad[0]]))
    return cols


def _verify_table(data: FusionData, table: CharacterTable):
    tol = table.tol
    m = table.rank
    values, h, n = table.values, table.h, table.codegrees
    # sum_j 1/n_j = tau(1) = 1
    tol.check(abs((1.0 / n).sum() - 1.0), ENTRY_SLACK, 1.0, "orthogonality: sum 1/n_j != 1")
    # first orthogonality
    gram = np.einsum("i,ij,ik->jk", h, values, values.conj())
    resid = np.abs(gram - np.diag(n)).max()
    tol.check(resid, VALUE_SLACK, 1.0 + np.abs(n).max(),
              "orthogonality: first orthogonality residual {:.3e}", resid)
    # F_j F_k = delta_jk F_j and sum_j F_j = 1
    F = table.idempotents
    # mu_l(F_j) must be delta_{jl}
    ev = np.abs(np.einsum("il,ji->jl", values, F) - np.eye(m)).max(axis=1)
    j = ev.argmax()
    tol.check(ev[j], VALUE_SLACK, 1.0,
              "idempotent: F_{0} is not the {0}-th primitive idempotent", j)
    N = data.float_tensor()
    prods = np.einsum("ja,kb,abc->jkc", F, F, N, optimize=True)
    diag = np.arange(m)
    delta = np.zeros((m, m, m), dtype=complex)
    delta[diag, diag] = F
    tol.check(np.abs(prods - delta).max(), VALUE_SLACK, 1.0,
              "idempotent: F_j F_k != delta_jk F_j")
    tol.check(np.abs(F.sum(axis=0) - np.eye(m)[0]).max(), VALUE_SLACK, 1.0,
              "idempotent: sum of idempotents != 1")


def fp_character(table: CharacterTable) -> int:
    """Index of the unique strictly positive column (the FP character)."""
    candidates = table.positive_columns
    if not candidates:
        raise NotNormalizable("no strictly positive character column")
    if len(candidates) > 1:
        raise NotNormalizable(f"positive columns {list(candidates)}")
    return candidates[0]


def order(table: CharacterTable) -> float:
    """n(H) = sum_i h_i d_i^2, the codegree of the FP character, which must
    vanish on no basis element."""
    fp = fp_character(table)
    col = table.values[:, fp]
    if (np.abs(col) <= table.tol.zero(1.0 + np.abs(col).max())).any():
        raise NotNormalizable(f"character {fp} vanishes on a basis element")
    return float(table.codegrees[fp])


def integral_element(a: RingAnalysis) -> Element:
    """The integral lambda_H of the whole basis, the primitive idempotent at
    the FP character.

    Verified to be idempotent and to absorb every basis element:
    x_i lambda = d_i lambda.
    """
    data, tol, d = a.data, a.tol, a.d
    lam = integral_element_of_subset(a, range(data.rank))
    sq = multiply(data, lam, lam)
    tol.check(np.abs(sq.float_coords() - lam.float_coords()).max(), VALUE_SLACK, 1.0,
              "integral: lambda^2 != lambda")
    for i in range(data.rank):
        prod = multiply(data, basis_element(data, i), lam)
        resid = np.abs(prod.float_coords() - d[i] * lam.float_coords()).max()
        tol.check(resid, VALUE_SLACK, 1.0 + d[i],
                  "integral: x_{} lambda != d_i lambda (residual {:.3e})", i, resid)
    return lam


def integral_element_of_subset(a: RingAnalysis, indices) -> Element:
    """Integral of the sub-hypergroup spanned by `indices`, embedded in the parent.

    lambda_S = (1/n(S)) sum_{i in S} h_{i*} d_{i*} x_i with n(S) = sum h_i d_i^2,
    over the set S of `indices` (a repeated index counts once).
    """
    d, h, inv = a.d, a.table.h, a.data.involution
    idx = sorted(set(indices))
    n_s = float(sum(h[i] * d[i] ** 2 for i in idx))
    coords = [0.0] * a.data.rank
    for i in idx:
        coords[i] = float(h[inv[i]] * d[inv[i]] / n_s)
    return Element(tuple(coords))


def verify_fp_value(
    data: FusionData, x, candidate: int | Fraction, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Exact confirmation that the FP value sum_k x_k d_k of the element with
    exact coordinates `x` equals the rational `candidate`.

    Requires det(L_x - candidate Id) = 0 in exact arithmetic, and the numeric
    Perron value of L_x to match the candidate within tol.  FPdim(H) is the
    FP value of x = I(1).  The determinant says only that the candidate is
    some eigenvalue of L_x: that it is the FP one rests on the numeric match,
    as no exact multiplicity test isolates it.  With x = w / D, C = L N and
    candidate = p / q, D L L_x[k, j] = sum_l w_l C_{lj}^k and the test is
    det(q D L L_x - p D L Id) = 0; the Perron matrix rounds each entry of L_x.
    """
    check_length(data, x)
    if not data.is_exact:
        raise InexactTensor("exact tensor required")
    L, C = data.integer_tensor()
    D, w = integer_form(list(x))
    mat = np.tensordot(w, C, axes=(0, 0)).T
    p, q = Fraction(candidate).as_integer_ratio()
    if exact_det(q * mat - np.eye(data.rank, dtype=object) * (p * D * L)) != 0:
        return False
    fl = (mat / (D * L)).astype(float)
    perron = float(np.max(np.linalg.eigvals(fl).real))
    return abs(perron - candidate) <= tol.zero(1.0 + abs(candidate))
