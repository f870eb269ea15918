"""Galois orbits of characters, codegree conjugation checks, and the weak
rationality / integrality verdicts.

A set of characters is a union of Galois orbits exactly when the sum of its
primitive idempotents is a rational idempotent, which is tested exactly on
the cleared integer form of the tensor.  Each stage takes the RingAnalysis
and reads its table, FPdim, FP dimensions, dual orders and verdicts from
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import TYPE_CHECKING

import numpy as np

from .core import integer_form
from .errors import CrossCheckFailed, HypergroupError, NoValidPartition, TheoremViolation
from .tolerance import VALUE_SLACK, snap_array, snap_value

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
    certificates: dict  # orbit O -> max |E_O - e|, e its exact idempotent sum

    @property
    def rational_mask(self) -> tuple:
        """Per character: whether it is rational, i.e. its orbit is itself."""
        sizes = {j: len(orb) for orb in self.orbits for j in orb}
        return tuple(sizes[j] == 1 for j in sorted(sizes))


def galois_orbits(a: RingAnalysis) -> OrbitPartition:
    """The Galois orbits of the characters of a rational hypergroup.

    A set O of characters is a union of orbits iff its idempotent sum
    E_O = sum_{j in O} F_j is rational, and a rational E_O is an idempotent.
    So O passes when E_O snaps to a rational vector e with e e = e exactly
    on the cleared integer form of the tensor.  The test is exact, so the
    smallest passing set holding the lowest unplaced character is that
    character's orbit; sets are tried by size, at most SEARCH_CAP in all.
    """
    tol = a.tol
    if not a.flags.rational:
        raise HypergroupError("Galois orbits need a rational hypergroup")
    m = a.data.rank
    F = a.table.idempotents
    scale, C = a.data.integer_tensor()
    # Python ints: the idempotent test sums products of three cleared entries
    C = C.astype(object).reshape(m, m * m)

    def certificate(cluster: tuple) -> float | None:
        """|E_O - e| when E_O snaps to a rational idempotent e, else None."""
        E = F[list(cluster)].sum(axis=0)
        # snap_value takes x to 0 exactly when round(x) = 0 and |x| <= tol.zero(x)
        if not ((np.round(E.imag) == 0) & (np.abs(E.imag) <= tol.zero(E.imag))).all():
            return None
        e = snap_array(E.real, tol)
        if e is None:
            return None
        # e = w / D and N = C / scale: e e = e iff sum_ij w_i w_j C_ij^k = D scale w_k
        D, w = integer_form(e)
        if (w @ (w @ C).reshape(m, m) != D * scale * w).any():
            return None
        return float(np.abs(E - e.astype(float)).max())

    orbits, certs, tried = [], {}, 0
    remaining = list(range(m))
    while remaining:
        pivot, others = remaining[0], remaining[1:]
        for extra in chain.from_iterable(
            combinations(others, size) for size in range(len(remaining))
        ):
            tried += 1
            if tried > SEARCH_CAP:
                raise NoValidPartition("cluster search cap exceeded")
            orbit = (pivot,) + extra
            cert = certificate(orbit)
            if cert is not None:
                break
        else:
            raise NoValidPartition("no rational orbit partition found")
        orbits.append(orbit)
        certs[orbit] = cert
        remaining = [j for j in others if j not in extra]
    return OrbitPartition(orbits=tuple(orbits), certificates=certs)


def check_codegree_conjugation(a: RingAnalysis, partition: OrbitPartition) -> None:
    """Check that codegrees are permuted with the characters: per orbit,
    their elementary symmetric functions are near-rational; with an
    h-integral dual the dual orders are constant on each orbit.  Returns
    nothing and raises CrossCheckFailed on the first orbit that fails."""
    tol = a.tol
    for orb in partition.orbits:
        for c in np.poly(a.table.codegrees[list(orb)]):
            if isinstance(snap_value(float(c), tol), float):
                raise CrossCheckFailed(
                    f"conjugation: codegree symmetric function on orbit {orb} is not rational: {c}"
                )
        if a.dual.flags.h_integral:
            hs = a.dual.table.h[list(orb)]
            spread = float(np.abs(hs - hs[0]).max())
            tol.check(spread, VALUE_SLACK, 1.0 + float(np.abs(hs).max()),
                      "conjugation: dual orders not constant on orbit {}: {}", orb, hs)


def weak_integrality(a: RingAnalysis) -> str:
    """Verdict in {integral, weakly_integral, weakly_rational, irrational},
    read from the exact certificates of the analysis: `a.fpdim` and, for an
    integer FPdim, whether `a.exact_d` is a column of ints.

    Theorem guard: a rational RN dual-Burnside ring must be at least weakly
    rational, else the build is broken.
    """
    fpdim = a.fpdim
    if isinstance(fpdim, int):
        integral = a.exact_d is not None and all(isinstance(x, int) for x in a.exact_d)
        verdict = "integral" if integral else "weakly_integral"
    elif isinstance(fpdim, Fraction):
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
            f"{a.data.name}: rational RN dual-Burnside ring with irrational order {fpdim}"
        )
    return verdict
