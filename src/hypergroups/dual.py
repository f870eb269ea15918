"""Dual hypergroups of abelian normalizable hypergroups.

The dual lives on the characters; its structure constants come from the
orthogonality relations.  `dual_hypergroup` builds the dual at the FP
character, column 0 of the character table, as FusionData whose basis
element j is the table's column j, snapped in one array pass to exact
rationals when every entry snaps, so the whole primal tool chain applies to
duals unchanged.  The dual's own FP column is its all-ones column, column 0
of its table, so the double dual needs no index map either.  The stages that
read the dual of a ring under analysis (`dual_codegrees`, `double_dual_check`)
take its RingAnalysis, which builds the dual, its flags, its character table
and its character alignment once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import FusionData, involution_of, normalizing_column
from .errors import DualAxiomViolation, HypergroupError
from .spectra import CharacterTable, order
from .tolerance import IDENTITY_SLACK, ROUTE_SLACK, VALUE_SLACK, Tolerance, snap_array

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "DualData",
    "dual_hypergroup",
    "dual_codegrees",
    "double_dual_check",
]


@dataclass(frozen=True)
class DualData:
    """The dual hypergroup and its orders.

    `base` is the dual as plain FusionData: basis element j is character
    column j of the table it was built from, so element 0, the FP character,
    is its unit.  `orders_hat[j]` is h-hat_j = n(H)/n_j.
    """

    base: FusionData
    orders_hat: np.ndarray

    @property
    def rank(self) -> int:
        return self.base.rank


def dual_hypergroup(data: FusionData, table: CharacterTable) -> DualData:
    """Build the dual of an abelian hypergroup at its FP character, at the
    table's tolerance.

    Dual basis element j is the table's column j; the FP column, 0 in
    canonical order, is the dual's unit.
    """
    tol = table.tol
    m = data.rank
    n_primal = order(table)
    A = table.values
    d = A[:, 0]
    n = table.codegrees
    inv = list(data.involution)
    w = table.h / d
    phat = np.einsum("i,ij,ik,il->jkl", w, A, A, A[inv, :])
    phat = phat / n[None, None, :]

    imax = np.abs(phat.imag).max()
    tol.check(imax, VALUE_SLACK, 1.0, "dual: dual tensor has imaginary part {:.3e}", imax)
    real = phat.real

    snapped = snap_array(real, tol)
    tensor = real if snapped is None else snapped

    involution_hat = _involution_from_tensor(real, tol)
    base = FusionData(f"dual({data.name})", involution_hat, tensor)
    try:
        flags = base.flags_at(tol)
    except HypergroupError as exc:
        raise DualAxiomViolation(f"dual tensor fails hypergroup axioms: {exc}") from exc
    if not flags.normalized:
        raise DualAxiomViolation("dual of a normalized hypergroup must be normalized")

    hhat = np.array(
        [1.0 / float(real[j, involution_hat[j], 0]) for j in range(m)]
    )
    # Lemma 2.6 / Eq (2.11): h-hat_j = n(H)/n_j and sum h-hat_j = n(H)
    tol.check(np.abs(hhat - n_primal / n).max(), IDENTITY_SLACK, 1.0 + n_primal,
              "dual: h-hat_j != n(H)/n_j")
    tol.check(abs(hhat.sum() - n_primal), IDENTITY_SLACK, 1.0 + n_primal,
              "dual: sum of dual orders != n(H)")
    _check_involution_conjugation(A, d, involution_hat, tol)
    return DualData(base=base, orders_hat=hhat)


def _involution_from_tensor(real: np.ndarray, tol: Tolerance) -> tuple:
    """Def 1.1 on the dual: j# is the unique k with p-hat_1(j, k) != 0."""
    unit = real[:, :, 0]
    inv = involution_of(
        unit,
        VALUE_SLACK * tol.zero(1.0 + np.abs(unit).max()),
        lambda j, hits: DualAxiomViolation(f"dual involution ambiguous at character {j}: hits {hits}"),
    )
    if sorted(inv) != list(range(len(inv))):
        raise DualAxiomViolation("dual involution is not a permutation")
    return inv


def _check_involution_conjugation(A, d, involution_hat, tol: Tolerance):
    """mu_{j#} of the normalized basis is the complex conjugate of mu_j."""
    norm = A / d[:, None]
    scale = 1.0 + np.abs(norm).max()
    for j, js in enumerate(involution_hat):
        tol.check(np.abs(norm[:, js] - norm[:, j].conj()).max(), IDENTITY_SLACK, scale,
                  "dual: dual involution {} -> {} does not match value conjugation", j, js)


def dual_codegrees(a: RingAnalysis) -> np.ndarray:
    """n-hat_i = n(H) / (h_i d_i d_{i*}), cross-checked on the dual tensor.

    Indexed by the primal basis (the characters of the dual are evaluations at
    the normalized primal basis elements).
    """
    d = a.d
    nhat = a.n_h / (a.table.h * d * d[list(a.data.involution)])
    # direct computation on the dual tensor
    direct = a.dual_table.codegrees[a.dual_match]
    resid = np.abs(direct - nhat).max()
    a.tol.check(resid, IDENTITY_SLACK, 1.0 + np.abs(nhat).max(),
                "dual codegrees: formula vs direct mismatch {:.3e}", resid)
    return nhat


def double_dual_check(a: RingAnalysis) -> tuple:
    """Find the basis permutation identifying dual(dual(H)) with H normalized
    by the FP character, through the dual of the analysis.

    The normalized primal is N_ij^k d_k / (d_i d_j), in float from the
    analysis's FP column `a.d`, which first passes `normalizing_column`.
    Returns pi such that ddual.tensor[pi[a], pi[b], pi[c]] matches it
    entrywise within tol.
    """
    tol = a.tol
    # dd2 basis element p is dual-table column p, and primal index i sits at
    # dual-table column dual_match[i]
    dd2 = dual_hypergroup(a.dual.base, a.dual_table)
    pi = a.dual_match

    normalizing_column(a.table.values[:, 0], a.data.involution, tol)
    d = a.d
    T1 = a.data.float_tensor() * d / (d[:, None, None] * d[None, :, None])
    T2 = dd2.base.float_tensor()
    resid = float(np.abs(T2[np.ix_(pi, pi, pi)] - T1).max())
    tol.check(resid, ROUTE_SLACK, 1.0 + np.abs(T1).max(),
              "double dual: mismatch, residual {:.3e}", resid)
    return tuple(int(x) for x in pi)
