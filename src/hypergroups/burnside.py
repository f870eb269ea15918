"""The Burnside stage: vanishing sets, P and P-hat, signs, and the structural
identity residuals that certify the Burnside and dual-Burnside verdicts, which
RingAnalysis holds.  `burnside_report` is the report's `burnside` section;
whether a failed verdict obstructs categorification is decided in one place,
`criteria.burnside_exclusion`.

The headline verdicts never rest on floats alone when exactness is available:
every numeric zero claim on an exact tensor is confirmed by an exact
determinant, and the run aborts on disagreement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from ._exact import det_nonzero_mod_p, exact_det
from .core import Element, multiply
from .errors import CrossCheckFailed
from .spectra import _match_columns, integral_element_of_subset
from .tolerance import IDENTITY_SLACK, ROUTE_SLACK, VALUE_SLACK, Tolerance

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "vanishing_elements",
    "product_P",
    "p_values",
    "phat_values",
    "sgn_values",
    "identity_checks",
    "burnside_report",
]


def vanishing_elements(a: RingAnalysis) -> tuple:
    """Indices killed by some character.

    On exact tensors the numeric verdict is confirmed per element against the
    exact determinant of its left multiplication matrix; disagreement aborts.
    A non-zero determinant modulo P (`det_nonzero_mod_p` on the integer form C,
    det L_i = det C_i / L^m) confirms a non-vanishing element; Bareiss runs on
    the zero residues, and for the message when the verdicts disagree.
    """
    data = a.data
    vanishes = a.zero_pattern.any(axis=1)
    numeric = tuple(np.flatnonzero(vanishes).tolist())
    if data.is_exact:
        L, C = data.integer_tensor()
        screened = det_nonzero_mod_p(C)
        for i in np.flatnonzero(vanishes | ~screened).tolist():
            det = Fraction(exact_det(C[i]), L**data.rank)
            if (det == 0) != vanishes[i]:
                raise CrossCheckFailed(
                    f"vanishing: x_{i}: exact det {det} vs numeric vanishing {'yes' if vanishes[i] else 'no'}"
                )
    return numeric


def p_values(a: RingAnalysis) -> np.ndarray:
    """mu_j(P) = prod_i mu_j(x_i)/d_i for each character j."""
    return np.prod(a.normalized, axis=0)


def phat_values(a: RingAnalysis) -> np.ndarray:
    """P-hat(x_i/d_i) = prod_j mu_j(x_i)/d_i for each basis element i."""
    return np.prod(a.normalized, axis=1)


def product_P(a: RingAnalysis) -> Element:
    """P = prod_i x_i / d_i, exact (Fractions) when the ring is integral.

    Verified against the idempotent expansion P = sum_j mu_j(P) F_j.
    """
    data, table = a.data, a.table
    if data.is_exact and a.exact_d is not None:
        L, C = data.integer_tensor()
        v = np.eye(data.rank, dtype=object)[0]
        for i in range(data.rank):  # x_0 ... x_{m-1} on C = L N, then one exact division
            v = v @ C[:, i, :]
        v = v / (L**data.rank * Fraction(math.prod(a.exact_d)))
    else:
        d = a.d if a.exact_d is None else a.exact_d
        v, N = np.eye(data.rank)[0], data.float_tensor()
        for i in range(data.rank):  # v <- (v / d_i) x_i
            v = np.einsum("a,ak->k", v * float(1 / Fraction(d[i])), N[:, i, :])
    out = Element(tuple(v.tolist()))
    expansion = (p_values(a)[None, :] * table.idempotents.T).sum(axis=1)
    a.tol.check(np.abs(out.float_coords() - expansion).max(), ROUTE_SLACK, 1.0,
                "P: P product disagrees with its idempotent expansion")
    return out


def _permutation_sign(perm: list[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _checked_sign(
    numeric: complex, name: str, permutation, tol: Tolerance, not_unit: str, *args
) -> int:
    """The sign of the permutation `permutation()`, which must equal
    `numeric`, a product of normalized values that must be +-1 (else
    CrossCheckFailed(not_unit.format(*args)))."""
    for resid in (abs(numeric.imag), abs(abs(numeric.real) - 1.0)):
        tol.check(resid, VALUE_SLACK, 1.0, not_unit, *args)
    exact = _permutation_sign(permutation())
    if exact != int(np.sign(numeric.real)):
        raise CrossCheckFailed(
            f"sgn: sgn({name}): permutation {exact} vs product {numeric.real:+.3f}"
        )
    return exact


def sgn_values(a: RingAnalysis) -> tuple[dict, dict]:
    """Signs of grouplike elements and grouplike characters.

    Float path: products of normalized character values.  Exact path: the
    signature of the permutation the grouplike induces on the normalized basis
    (resp. on the characters).  The two must agree.
    """
    table, tol = a.table, a.tol
    S = a.support

    def basis_permutation(i: int) -> list:
        if (S[i].sum(axis=1) != 1).any():
            raise CrossCheckFailed(f"sgn: grouplike {i} does not permute the basis")
        return S[i].argmax(axis=1).tolist()

    def character_permutation(j: int) -> list:
        # row k: mu_j mu_k, which must be a character, and k -> it a permutation
        prods = a.normalized[:, j] * table.values.T
        thr = ROUTE_SLACK * tol.zero(1.0 + np.abs(prods).max(axis=1))
        return _match_columns(
            table.values,
            prods,
            thr,
            lambda k, resid: f"sgn: mu_{j} * mu_{k} is not a character"
            if resid > thr[k]
            else f"sgn: mu_{j} does not permute the characters",
        ).tolist()

    pv, qv = phat_values(a), p_values(a)
    sgn_el, sgn_ch = {}, {}
    for i in a.grouplikes:
        sgn_el[i] = _checked_sign(pv[i], f"x_{i}", lambda: basis_permutation(i), tol,
                                  "sgn: P-hat value at grouplike {} is {}, not +-1", i, pv[i])
    for j in a.grouplike_chars:
        sgn_ch[j] = _checked_sign(qv[j], f"mu_{j}", lambda: character_permutation(j), tol,
                                  "sgn: mu_{}(P) = {}, not +-1", j, qv[j])
    return sgn_el, sgn_ch


def identity_checks(a: RingAnalysis) -> dict:
    """Residuals of the verdict-certifying identities.

    Each residual must sit on the same side of the tolerance as its verdict:
    small iff the verdict is true, else CrossCheckFailed.
    """
    data, table, tol = a.data, a.table, a.tol
    m = data.rank
    burn, _ = a.burnside
    dual_burn, _ = a.dual_burnside
    gset = set(a.grouplikes)

    # (i) Cor 4.5: P-hat^2 = sum of dual idempotents over grouplikes,
    # evaluated at the normalized basis.
    pv = phat_values(a)
    indicator = np.array([1.0 if i in gset else 0.0 for i in range(m)])
    resid_phat = float(np.abs(pv**2 - indicator).max())

    # (ii) Eq (1.5): P^2 = lambda_{H_ad} as elements of H.
    lam_ad = integral_element_of_subset(a, a.adjoint.indices)
    p = product_P(a)
    p2 = multiply(data, p, p)
    resid_p = float(np.abs(p2.float_coords() - lam_ad.float_coords()).max())

    # (iii) idempotency gaps via character values
    qv = p_values(a)
    gap_p = float(
        np.abs(((qv**4 - qv**2)[None, :] * table.idempotents.T).sum(axis=1)).max()
    )
    gap_phat = float(np.abs(pv**4 - pv**2).max())

    out = {
        "phat_sq_vs_grouplikes": resid_phat,
        "p_sq_vs_adjoint_integral": resid_p,
        "p4_minus_p2": gap_p,
        "phat4_minus_phat2": gap_phat,
    }
    expectations = {
        "phat_sq_vs_grouplikes": burn,
        "phat4_minus_phat2": burn,
        "p_sq_vs_adjoint_integral": dual_burn,
        "p4_minus_p2": dual_burn,
    }
    for name, verdict in expectations.items():
        if verdict:
            tol.check(out[name], IDENTITY_SLACK, 1.0,
                      "identity: {} = {:.3e} though verdict is true", name, out[name])
        elif out[name] <= IDENTITY_SLACK * tol.zero(1.0):
            raise CrossCheckFailed(f"identity: {name} = {out[name]:.3e} though verdict is false")
    return out


def burnside_report(a: RingAnalysis) -> dict:
    """The report's `burnside` section: both verdicts with their witnesses,
    the grouplikes and grouplike characters, the vanishing set and its
    complement, and the signs.  Each value is read from `a`; the grouplikes
    of a validated hypergroup always form a group, so their closure is no
    field."""
    burn, w1 = a.burnside
    dual_burn, w2 = a.dual_burnside
    sgn_el, sgn_ch = sgn_values(a)
    return {
        "grouplike_elements": list(a.grouplikes),
        "vanishing_elements": list(a.vanishing),
        "nonvanishing": [i for i in range(a.data.rank) if i not in a.vanishing],
        "is_burnside": burn,
        "burnside_witness": w1,
        "grouplike_characters": list(a.grouplike_chars),
        "is_dual_burnside": dual_burn,
        "dual_witness": w2,
        "sgn_elements": {str(k): v for k, v in sorted(sgn_el.items())},
        "sgn_characters": {str(k): v for k, v in sorted(sgn_ch.items())},
    }
