"""The Burnside stage: vanishing sets, P and P-hat, signs, and the structural
identity residuals that certify the Burnside and dual-Burnside verdicts, which
RingAnalysis holds.

The headline verdicts never rest on floats alone when exactness is available:
every numeric zero claim on an exact tensor is confirmed by an exact
determinant, and the run aborts on disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from ._exact import exact_det
from .core import Element, FusionData, basis_element, exact_character, multiply
from .errors import (
    CrossCheckFailed,
    ExactNumericDisagreement,
    SignMismatch,
    VerdictResidualMismatch,
)
from .spectra import CharacterTable, integral_element_of_subset
from .tolerance import DEFAULT_TOL, Tolerance, snap_value

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "BurnsideReport",
    "vanishing_elements",
    "product_P",
    "product_Phat",
    "product_Phat_values",
    "p_values",
    "phat_values",
    "sgn_values",
    "identity_checks",
    "burnside_hypothesis_report",
    "burnside_report",
    "grouplike_closure_ok",
]


@dataclass
class BurnsideReport:
    grouplike_elements: tuple
    vanishing_elements: tuple
    nonvanishing: tuple
    is_burnside: bool
    burnside_witness: int | None
    grouplike_characters: tuple
    is_dual_burnside: bool
    dual_witness: int | None
    sgn_elements: dict
    sgn_characters: dict
    identity_checks: dict
    grouplike_closure_ok: bool
    hypothesis_notes: list = field(default_factory=list)


def _zero_thresholds(table: CharacterTable, tol: Tolerance) -> np.ndarray:
    """Per-character zero threshold: tol.abs + tol.rel * column norm."""
    colnorm = np.abs(table.values).max(axis=0)
    return tol.abs + tol.rel * colnorm


def grouplike_closure_ok(data: FusionData, gset, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the grouplikes are closed under product (single support) and involution."""
    gl = sorted(set(gset))
    if any(data.involution[i] not in gl for i in gl):
        return False
    products = data.support_at(tol)[np.ix_(gl, gl)]
    inside = products[..., gl].sum(axis=2)
    return bool((inside == 1).all() and (products.sum(axis=2) == 1).all())


def grouplike_group_table(data: FusionData, gset, tol: Tolerance = DEFAULT_TOL):
    """Cayley table of the normalized grouplikes, or None if not closed."""
    if not grouplike_closure_ok(data, gset, tol):
        return None
    gl = sorted(gset)
    # each product is a single grouplike: its position among gl
    return data.support_at(tol)[np.ix_(gl, gl, gl)].argmax(axis=2)


def vanishing_elements(
    data: FusionData, table: CharacterTable, tol: Tolerance | None = None
) -> tuple:
    """Indices killed by some character.

    On exact tensors the numeric verdict is confirmed per element against the
    exact determinant of the left multiplication matrix; disagreement aborts.
    """
    tol = tol or table.tol
    thr = _zero_thresholds(table, tol)
    numeric = tuple(
        i
        for i in range(data.rank)
        if (np.abs(table.values[i, :]) <= thr).any()
    )
    if data.is_exact:
        for i in range(data.rank):
            det = exact_det(data.left_matrix(i))
            if (det == 0) != (i in numeric):
                raise ExactNumericDisagreement(
                    f"x_{i}: exact det {det} vs numeric vanishing {'yes' if i in numeric else 'no'}"
                )
    return numeric


def p_values(table: CharacterTable) -> np.ndarray:
    """mu_j(P) = prod_i mu_j(x_i)/d_i for each character j."""
    d = table.fp_dims()
    return np.prod(table.values / d[:, None], axis=0)


def phat_values(table: CharacterTable) -> np.ndarray:
    """P-hat(x_i/d_i) = prod_j mu_j(x_i)/d_i for each basis element i."""
    d = table.fp_dims()
    return np.prod(table.values / d[:, None], axis=1)


def product_P(
    data: FusionData, table: CharacterTable, tol: Tolerance | None = None
) -> Element:
    """P = prod_i x_i / d_i, exact (Fractions) when the ring is integral.

    Verified against the idempotent expansion P = sum_j mu_j(P) F_j.
    """
    tol = tol or table.tol
    exact_d = exact_character(data, table.fp_dims(), table.tol) if data.is_exact else None
    if exact_d is not None:
        inverses = [1 / Fraction(x) for x in exact_d]
    else:
        inverses = [1.0 / x for x in table.fp_dims()]
    out = basis_element(data, 0)
    for i in range(data.rank):
        xi = [0] * data.rank
        xi[i] = inverses[i]
        out = multiply(data, out, Element(tuple(xi)))
    expansion = (p_values(table)[None, :] * table.idempotents.T).sum(axis=1)
    if np.abs(out.float_coords() - expansion).max() > 1e6 * tol.zero(1.0):
        raise CrossCheckFailed("P product disagrees with its idempotent expansion")
    return out


def product_Phat(data: FusionData, table: CharacterTable, dual_data, tol=None) -> Element:
    """P-hat = prod_j mu_j, multiplied out inside the dual hypergroup.

    Returned in dual-basis coordinates; cross-checked against the pointwise
    evaluations prod_j mu_j(x_i/d_i).
    """
    tol = tol or table.tol
    out = basis_element(dual_data.base, 0)
    for j in range(dual_data.rank):
        out = multiply(dual_data.base, out, basis_element(dual_data.base, j))
    d = table.fp_dims()
    coords = out.float_coords()
    cols = list(dual_data.char_order)
    evals = np.einsum("p,ip->i", coords, table.values[:, cols].astype(complex)) / d
    expect = phat_values(table)
    if np.abs(evals - expect).max() > 1e6 * tol.zero(1.0):
        raise CrossCheckFailed("P-hat product disagrees with pointwise evaluations")
    return out


def product_Phat_values(
    data: FusionData, table: CharacterTable, tol: Tolerance | None = None
) -> np.ndarray:
    """P-hat as the vector of its evaluations at the normalized basis.

    Cross-checked against Prop 4.1: on non-vanishing x_i the value equals
    det(L_{x_i/d_i}), and it vanishes on vanishing elements.
    """
    tol = tol or table.tol
    vals = phat_values(table)
    d = table.fp_dims()
    L = data.left_matrices_float()
    for i in range(data.rank):
        det = np.linalg.det(L[i] / d[i])
        if abs(det - vals[i]) > 1e6 * tol.zero(1.0 + abs(det)):
            raise CrossCheckFailed(
                f"P-hat({i}) = {vals[i]} != det L_(x_i/d_i) = {det}"
            )
    return vals


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


def sgn_values(a: RingAnalysis) -> tuple[dict, dict]:
    """Signs of grouplike elements and grouplike characters.

    Float path: products of normalized character values.  Exact path: the
    signature of the permutation the grouplike induces on the normalized basis
    (resp. on the characters).  The two must agree.
    """
    data, table, tol = a.data, a.table, a.tol
    S = data.support_at(tol)
    m = data.rank
    sgn_el = {}
    pv = phat_values(table)
    for i in a.grouplikes:
        numeric = pv[i]
        if abs(numeric.imag) > 1e4 * tol.zero(1.0) or abs(abs(numeric.real) - 1.0) > 1e4 * tol.zero(1.0):
            raise SignMismatch(f"P-hat value at grouplike {i} is {numeric}, not +-1")
        if (S[i].sum(axis=1) != 1).any():
            raise SignMismatch(f"grouplike {i} does not permute the basis")
        exact = _permutation_sign(S[i].argmax(axis=1).tolist())
        if exact != int(np.sign(numeric.real)):
            raise SignMismatch(
                f"sgn(x_{i}): permutation {exact} vs product {numeric.real:+.3f}"
            )
        sgn_el[i] = exact
    sgn_ch = {}
    qv = p_values(table)
    norm = table.values / a.d[:, None]
    for j in a.grouplike_chars:
        numeric = qv[j]
        if abs(numeric.imag) > 1e4 * tol.zero(1.0) or abs(abs(numeric.real) - 1.0) > 1e4 * tol.zero(1.0):
            raise SignMismatch(f"mu_{j}(P) = {numeric}, not +-1")
        perm = []
        for k in range(m):
            prod = norm[:, j] * table.values[:, k]
            diffs = np.abs(table.values.T - prod[None, :]).max(axis=1)
            l = int(diffs.argmin())
            if diffs[l] > 1e6 * tol.zero(1.0 + np.abs(prod).max()):
                raise SignMismatch(f"mu_{j} * mu_{k} is not a character")
            perm.append(l)
        if sorted(perm) != list(range(m)):
            raise SignMismatch(f"mu_{j} does not permute the characters")
        exact = _permutation_sign(perm)
        if exact != int(np.sign(numeric.real)):
            raise SignMismatch(
                f"sgn(mu_{j}): permutation {exact} vs product {numeric.real:+.3f}"
            )
        sgn_ch[j] = exact
    return sgn_el, sgn_ch


def identity_checks(a: RingAnalysis) -> dict:
    """Residuals of the verdict-certifying identities.

    Each residual must sit on the same side of the tolerance as its verdict:
    small iff the verdict is true, else VerdictResidualMismatch.
    """
    data, table, tol = a.data, a.table, a.tol
    m = data.rank
    burn, _ = a.burnside
    dual_burn, _ = a.dual_burnside
    gset = set(a.grouplikes)

    # (i) Cor 4.5: P-hat^2 = sum of dual idempotents over grouplikes,
    # evaluated at the normalized basis.
    pv = phat_values(table)
    indicator = np.array([1.0 if i in gset else 0.0 for i in range(m)])
    resid_phat = float(np.abs(pv**2 - indicator).max())

    # (ii) Eq (1.5): P^2 = lambda_{H_ad} as elements of H.
    lam_ad = integral_element_of_subset(data, table, a.adjoint.indices)
    p = product_P(data, table, tol)
    p2 = multiply(data, p, p)
    resid_p = float(np.abs(p2.float_coords() - lam_ad.float_coords()).max())

    # (iii) idempotency gaps via character values
    qv = p_values(table)
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
    cut = 1e5 * tol.zero(1.0)
    expectations = {
        "phat_sq_vs_grouplikes": burn,
        "phat4_minus_phat2": burn,
        "p_sq_vs_adjoint_integral": dual_burn,
        "p4_minus_p2": dual_burn,
    }
    for name, verdict in expectations.items():
        if verdict and out[name] > cut:
            raise VerdictResidualMismatch(
                f"{name} = {out[name]:.3e} though verdict is true"
            )
        if not verdict and out[name] <= cut:
            raise VerdictResidualMismatch(
                f"{name} = {out[name]:.3e} though verdict is false"
            )
    return out


def burnside_hypothesis_report(a: RingAnalysis, dual_h_integral: bool | None = None) -> dict:
    """Which hypotheses of the Burnside theorems hold, and whether a failed
    verdict on qualifying data is a categorification obstruction."""
    weakly_integral = isinstance(snap_value(a.n_h, a.tol), int)
    integrality = "exact" if a.data.is_exact else "assumed"
    burn, witness = a.burnside
    report = {
        "rational": a.flags.rational,
        "weakly_integral": weakly_integral,
        "dual_h_integral": dual_h_integral,
        "algebraic_integrality": integrality,
        "burnside": burn,
        "witness": witness,
        "obstruction": None,
    }
    if (
        a.flags.fusion_ring
        and weakly_integral
        and dual_h_integral
        and not burn
    ):
        report["obstruction"] = (
            "weakly-integral fusion ring with h-integral dual is not Burnside: "
            "no weakly-integral categorification exists"
        )
    return report


def burnside_report(a: RingAnalysis, dual_h_integral: bool | None = None) -> BurnsideReport:
    """The Burnside stage of a RingAnalysis: verdicts, witnesses, signs and
    the identity residuals that certify them."""
    burn, w1 = a.burnside
    dual_burn, w2 = a.dual_burnside
    sgn_el, sgn_ch = sgn_values(a)
    hypo = burnside_hypothesis_report(a, dual_h_integral)
    return BurnsideReport(
        grouplike_elements=a.grouplikes,
        vanishing_elements=a.vanishing,
        nonvanishing=tuple(i for i in range(a.data.rank) if i not in set(a.vanishing)),
        is_burnside=burn,
        burnside_witness=w1,
        grouplike_characters=a.grouplike_chars,
        is_dual_burnside=dual_burn,
        dual_witness=w2,
        sgn_elements=sgn_el,
        sgn_characters=sgn_ch,
        identity_checks=identity_checks(a),
        grouplike_closure_ok=grouplike_closure_ok(a.data, a.grouplikes, a.tol),
        hypothesis_notes=[hypo["obstruction"]] if hypo["obstruction"] else [],
    )
