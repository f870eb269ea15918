"""Numeric detection of Galois orbits of characters, codegree conjugation checks,
and the weak rationality / integrality verdicts.

Orbits are found without any exact polynomial factorization: clusters of
characters are valid once every per-basis-element orbit polynomial has
near-rational coefficients.  Each stage takes the RingAnalysis and reads its
table, order n(H), FP dimensions, dual orders and verdicts from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConjugationViolation,
    HypergroupError,
    NoValidPartition,
    TheoremViolation,
)
from .spectra import verify_integer_fpdim
from .tolerance import Tolerance, snap_array, snap_value

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "OrbitPartition",
    "galois_orbits",
    "check_codegree_conjugation",
    "weak_integrality",
]

SEARCH_CAP = 2**12


@dataclass(frozen=True)
class OrbitPartition:
    orbits: tuple  # tuple of sorted character-index tuples
    rational_mask: tuple  # per character
    certificates: dict  # orbit -> max residual of symmetric functions

    def orbit_of(self, j: int) -> tuple:
        for orb in self.orbits:
            if j in orb:
                return orb
        raise KeyError(j)


def _coeff_residual(values: np.ndarray, cluster, tol: Tolerance) -> float:
    """Max distance of the orbit-polynomial coefficients to snapped rationals."""
    worst = 0.0
    for i in range(values.shape[0]):
        roots = values[i, list(cluster)]
        coeffs = np.poly(roots)
        if np.abs(coeffs.imag).max() > 1e5 * tol.zero(1.0 + np.abs(coeffs).max()):
            return np.inf
        for c in coeffs.real:
            s = snap_value(float(c), tol)
            if isinstance(s, float):
                return np.inf
            worst = max(worst, abs(float(c) - float(s)))
    return worst


def galois_orbits(a: RingAnalysis) -> OrbitPartition:
    """Finest partition of the characters whose orbit polynomials are rational.

    Rational characters are the singleton orbits; the rest are grown greedily
    (smallest valid clusters first) with backtracking capped at 2^12 states.
    """
    tol = a.tol
    if not a.flags.rational:
        raise HypergroupError("Galois orbits need a rational hypergroup")
    m = a.data.rank
    values = a.table.values
    rational_mask = []
    for j in range(m):
        col = values[:, j]
        ok = (
            np.abs(col.imag).max() <= 1e4 * tol.zero(1.0 + np.abs(col).max())
            and snap_array(col.real, tol) is not None
        )
        rational_mask.append(bool(ok))
    singles = [j for j in range(m) if rational_mask[j]]
    rest = [j for j in range(m) if not rational_mask[j]]

    state = {"count": 0}

    def search(remaining: list[int]) -> list[tuple] | None:
        if not remaining:
            return []
        pivot = remaining[0]
        others = remaining[1:]
        for size in range(2, len(remaining) + 1):
            for extra in combinations(others, size - 1):
                state["count"] += 1
                if state["count"] > SEARCH_CAP:
                    raise NoValidPartition("cluster search cap exceeded")
                cluster = (pivot,) + extra
                if _coeff_residual(values, cluster, tol) < np.inf:
                    rem = [j for j in others if j not in extra]
                    tail = search(rem)
                    if tail is not None:
                        return [cluster] + tail
        return None

    tail = search(rest)
    if tail is None:
        raise NoValidPartition("no rational orbit partition found")
    orbits = sorted([(j,) for j in singles] + tail)
    certs = {
        orb: (0.0 if len(orb) == 1 else _coeff_residual(values, orb, tol))
        for orb in orbits
    }
    return OrbitPartition(
        orbits=tuple(orbits),
        rational_mask=tuple(rational_mask),
        certificates=certs,
    )


def check_codegree_conjugation(a: RingAnalysis, partition: OrbitPartition) -> dict:
    """Codegrees are permuted with the characters: per orbit, their elementary
    symmetric functions are near-rational; with an h-integral dual the dual
    orders are constant on each orbit."""
    tol = a.tol
    report = {}
    for orb in partition.orbits:
        ns = a.table.codegrees[list(orb)]
        coeffs = np.poly(ns)
        worst = 0.0
        for c in coeffs:
            s = snap_value(float(c.real if np.iscomplexobj(coeffs) else c), tol)
            if isinstance(s, float):
                raise ConjugationViolation(
                    f"symmetric function of codegrees on orbit {orb} is not rational: {c}"
                )
            worst = max(worst, abs(float(c) - float(s)))
        report[orb] = {"codegree_residual": worst}
        if a.dual_flags.h_integral:
            hs = a.dual.orders_hat[list(orb)]
            spread = float(np.abs(hs - hs[0]).max())
            if spread > 1e4 * tol.zero(1.0 + float(np.abs(hs).max())):
                raise ConjugationViolation(
                    f"dual orders not constant on orbit {orb}: {hs}"
                )
            report[orb]["dual_order_spread"] = spread
    return report


def weak_integrality(a: RingAnalysis) -> str:
    """Verdict in {integral, weakly_integral, weakly_rational, irrational}.

    For exact tensors an integer order is confirmed by the exact determinant
    path.  Theorem guard: a rational RN dual-Burnside ring must be at least
    weakly rational, else the build is broken.
    """
    data, n_h, tol = a.data, a.n_h, a.tol
    snapped = snap_value(n_h, tol)
    if isinstance(snapped, int) and data.is_exact:
        if not verify_integer_fpdim(data, snapped, tol):
            snapped = float(n_h)
    if isinstance(snapped, int):
        dims_integral = all(
            isinstance(snap_value(float(x), tol), int) for x in a.d
        )
        verdict = "integral" if dims_integral else "weakly_integral"
    elif isinstance(snapped, Fraction):
        verdict = "weakly_rational"
    else:
        verdict = "irrational"
    if (
        verdict == "irrational"
        and a.flags.rational
        and a.flags.real_non_negative
        and a.dual_burnside[0]
    ):
        raise TheoremViolation(
            f"{data.name}: rational RN dual-Burnside ring with irrational order {n_h}"
        )
    return verdict
