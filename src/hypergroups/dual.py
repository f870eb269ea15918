"""Dual hypergroups of abelian normalizable hypergroups.

The dual lives on the characters; its structure constants come from the
orthogonality relations.  `dual_hypergroup` builds the dual from a character
table and a normalizing character as FusionData, snapped in one array pass to
exact rationals when every entry snaps, so the whole primal tool chain applies
to duals unchanged.  The stages that read the dual of a ring under analysis
(`dual_codegrees`, `double_dual_check`) take its RingAnalysis, which builds
the dual, its flags, its character table and its character alignment once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import FusionData, involution_of, normalizing_column
from .errors import CrossCheckFailed, DualAxiomViolation, HypergroupError, NotNormalizable
from .spectra import CharacterTable, _match_columns, fp_character, order
from .tolerance import IDENTITY_SLACK, ROUTE_SLACK, VALUE_SLACK, Tolerance, snap_array

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "DualData",
    "dual_hypergroup",
    "dual_codegrees",
    "double_dual_check",
    "augmentation_index",
    "match_dual_characters",
]


@dataclass(frozen=True)
class DualData:
    """The dual hypergroup together with its bookkeeping.

    `base` is the dual as plain FusionData (unit = the normalizing character).
    `char_order[j]` is the primal character-table column sitting at dual basis
    position j, so position 0 always carries mu1.
    """

    base: FusionData
    orders_hat: np.ndarray
    mu1: int
    char_order: tuple

    @property
    def rank(self) -> int:
        return self.base.rank


def augmentation_index(table: CharacterTable) -> int:
    """Column of the all-ones character (exists iff the data is normalized)."""
    (j,) = _match_columns(
        table.values,
        np.ones((1, table.rank)),
        VALUE_SLACK * table.tol.zero(1.0),
        NotNormalizable,
        lambda r, resid: "no all-ones character column",
    )
    return int(j)


def dual_hypergroup(data: FusionData, table: CharacterTable, mu1: int | None = None) -> DualData:
    """Build the dual of an abelian hypergroup normalizable via character mu1,
    at the table's tolerance.

    Dual basis order: mu1 first (it is the dual's unit), then the remaining
    characters in canonical table order.
    """
    tol = table.tol
    m = data.rank
    if mu1 is None:
        mu1 = fp_character(table)
    n_primal = order(table, mu1)
    A = table.values
    d = A[:, mu1]

    perm = [mu1] + [j for j in range(m) if j != mu1]
    Ap = A[:, perm]
    n = table.codegrees[perm]
    inv = list(data.involution)
    w = table.h / d
    phat = np.einsum("i,ij,ik,il->jkl", w, Ap, Ap, Ap[inv, :])
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
    _check_involution_conjugation(Ap, d, involution_hat, tol)
    return DualData(base=base, orders_hat=hhat, mu1=mu1, char_order=tuple(perm))


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


def _check_involution_conjugation(Ap, d, involution_hat, tol: Tolerance):
    """mu_{j#} of the normalized basis is the complex conjugate of mu_j."""
    norm = Ap / d[:, None]
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


def match_dual_characters(
    dd: DualData, table: CharacterTable, dual_table: CharacterTable
) -> np.ndarray:
    """match[i] = column of `dual_table` equal to evaluation at x_i / d_i,
    where dd is the dual built from `table` and `dual_table` is its table.

    The characters of the dual are ev_{x_i/d_i}; this aligns the dual's own
    canonical character order with the primal basis.
    """
    tol = table.tol
    d = table.values[:, dd.mu1]
    rows = table.values[:, list(dd.char_order)] / d[:, None]  # rows[i] over dual basis
    return _match_columns(
        dual_table.values,
        rows,
        ROUTE_SLACK * tol.zero(1.0 + np.abs(rows).max()),
        CrossCheckFailed,
        lambda i, resid: "dual alignment: cannot align dual character"
        f" for basis element {i} (residual {resid:.3e})",
    )


def double_dual_check(a: RingAnalysis) -> tuple:
    """Find the basis permutation identifying dual(dual(H)) with H normalized
    by the FP character, through the dual of the analysis.

    The normalized primal is N_ij^k d_k / (d_i d_j), in float from the
    analysis's FP column `a.d`, which first passes `normalizing_column`.
    Returns pi such that ddual.tensor[pi[a], pi[b], pi[c]] matches it
    entrywise within tol.
    """
    dd, tol = a.dual, a.tol
    dd2 = dual_hypergroup(dd.base, a.dual_table, augmentation_index(a.dual_table))

    # dd2 basis position p holds dual-table column dd2.char_order[p];
    # primal index i sits at dual-table column dual_match[i].
    col_to_pos = {col: pos for pos, col in enumerate(dd2.char_order)}
    pi = np.array([col_to_pos[col] for col in a.dual_match], dtype=int)

    normalizing_column(a.table.values[:, dd.mu1], a.data.involution, tol)
    d = a.d
    T1 = a.data.float_tensor() * d / (d[:, None, None] * d[None, :, None])
    T2 = dd2.base.float_tensor()
    resid = float(np.abs(T2[np.ix_(pi, pi, pi)] - T1).max())
    tol.check(resid, ROUTE_SLACK, 1.0 + np.abs(T1).max(),
              "double dual: mismatch, residual {:.3e}", resid)
    return tuple(int(x) for x in pi)
