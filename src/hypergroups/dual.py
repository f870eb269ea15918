"""Dual hypergroups of abelian normalizable hypergroups.

The dual lives on the characters; its structure constants come from the
orthogonality relations.  `dual_hypergroup(a)` builds the dual of the ring
under analysis `a` at the FP character, column 0 of its character table, as
FusionData whose basis element j is the table's column j, snapped in one
array pass to exact rationals when every entry snaps, so the whole primal
tool chain applies to duals unchanged.  `RingAnalysis.dual` is the analysis
of that ring at the same tolerance and seed, so the dual's flags, table and
codegrees are read as any ring's are.  The dual's own FP column is its
all-ones column, column 0 of its table, so the double dual `a.dual.dual`
needs no index map either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .core import FusionData, involution_of, normalizing_column
from .errors import DualAxiomViolation, HypergroupError
from .tolerance import IDENTITY_SLACK, ROUTE_SLACK, VALUE_SLACK, Tolerance, snap_array

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "dual_hypergroup",
    "dual_codegrees",
    "double_dual_check",
]


def dual_hypergroup(a: RingAnalysis) -> FusionData:
    """Build the dual of an abelian hypergroup at its FP character, at the
    analysis's tolerance.

    Dual basis element j is the table's column j; the FP column, 0 in
    canonical order, is the dual's unit.
    """
    data, table, tol = a.data, a.table, a.tol
    m = data.rank
    n_primal = a.n_h
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
    dual = FusionData(f"dual({data.name})", involution_hat, tensor)
    try:
        flags = dual.flags_at(tol)
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
    return dual


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
    direct = a.dual.table.codegrees[a.dual_match]
    resid = np.abs(direct - nhat).max()
    a.tol.check(resid, IDENTITY_SLACK, 1.0 + np.abs(nhat).max(),
                "dual codegrees: formula vs direct mismatch {:.3e}", resid)
    return nhat


def double_dual_check(a: RingAnalysis) -> None:
    """Check that dual(dual(H)) is H normalized by the FP character, through
    the dual of the analysis.

    The normalized primal is N_ij^k d_k / (d_i d_j), in float from the
    analysis's FP column `a.d`, which first passes `normalizing_column`.
    With pi = `a.dual_match`, ddual.tensor[pi[a], pi[b], pi[c]] must match it
    entrywise within tol.  Returns nothing and raises CrossCheckFailed on a
    mismatch.
    """
    tol = a.tol
    # dd2 basis element p is dual-table column p, and primal index i sits at
    # dual-table column dual_match[i]
    dd2 = a.dual.dual.data
    pi = a.dual_match

    normalizing_column(a.table.values[:, 0], a.data.involution, tol)
    d = a.d
    T1 = a.data.float_tensor() * d / (d[:, None, None] * d[None, :, None])
    T2 = dd2.float_tensor()
    resid = float(np.abs(T2[np.ix_(pi, pi, pi)] - T1).max())
    tol.check(resid, ROUTE_SLACK, 1.0 + np.abs(T1).max(),
              "double dual: mismatch, residual {:.3e}", resid)
