"""Ring constructions: group rings, class hypergroups, Rep-rings, near-groups,
the half-Frobenius family, and the standard test corpus."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..analysis import RingAnalysis
from ..core import FusionData, rescale
from ..errors import InvalidOrders, NumericFailure
from ..tolerance import DEFAULT_TOL, Tolerance, snap_array, snap_value
from .groups import FiniteGroup, abelian_group, catalog, catalog_names

__all__ = [
    "group_ring",
    "class_hypergroup",
    "rep_ring",
    "near_group",
    "family_ring",
    "ising",
    "fibonacci",
    "corpus",
]


def _as_group(g) -> FiniteGroup:
    if isinstance(g, FiniteGroup):
        return g
    return abelian_group(list(g))


def group_ring(g: FiniteGroup) -> FusionData:
    """Z[G]: the group elements themselves as the basis."""
    n = g.order
    tensor = np.zeros((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            tensor[i, j, int(g.cayley[i, j])] = 1
    inv = [g.inverse(i) for i in range(n)]
    return FusionData(f"Z[{g.name}]", inv, tensor)


def class_hypergroup(g: FiniteGroup) -> FusionData:
    """Normalized class sums C_i / |C_i|; exact rational ARN hypergroup."""
    classes = g.conjugacy_classes()
    m = len(classes)
    class_of = {}
    for idx, cls in enumerate(classes):
        for x in cls:
            class_of[x] = idx
    inv = [class_of[g.inverse(cls[0])] for cls in classes]
    tensor = np.zeros((m, m, m), dtype=object)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            counts = [0] * m
            for x in ci:
                for y in cj:
                    counts[class_of[int(g.cayley[x, y])]] += 1
            for k in range(m):
                if counts[k]:
                    # counts[k] pairs land on each element of class k uniformly
                    tensor[i, j, k] = Fraction(counts[k], len(ci) * len(cj))
    return FusionData(f"Cl({g.name})", inv, tensor)


def rep_ring(g: FiniteGroup, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> FusionData:
    """K(Rep(G)): dual of the class hypergroup, rescaled to integer fusion rules.

    The irreducible degrees are recovered as sqrt of the dual orders and every
    structure constant must snap to a non-negative integer, else NumericFailure.
    """
    a = RingAnalysis(class_hypergroup(g), tol, seed)
    dual = a.dual.data
    dims = []
    for h in a.orders_hat:
        d = snap_value(float(np.sqrt(h)), tol)
        if not isinstance(d, int) or d <= 0:
            raise NumericFailure(f"rep ring: irreducible degree sqrt({h}) does not snap to int")
        dims.append(d)
    ring = rescale(dual, [Fraction(1, d) for d in dims])
    tensor = ring.tensor if ring.is_exact else snap_array(ring.tensor, tol)
    if tensor is None or any(not isinstance(x, int) or x < 0 for x in tensor.ravel()):
        raise NumericFailure("rep ring: rescaled dual is not a non-negative integer tensor")
    out = FusionData(f"K(Rep({g.name}))", ring.involution, tensor)
    if not out.flags.fusion_ring:
        raise NumericFailure(f"K(Rep({g.name})) does not validate as a fusion ring")
    return out


def near_group(group_structure, m: int, name: str | None = None) -> FusionData:
    """K(G, m): basis G u {rho} with rho^2 = sum_G g + m rho and g rho = rho g = rho."""
    g = _as_group(group_structure)
    if m < 0:
        raise InvalidOrders("m must be non-negative")
    n = g.order
    rank = n + 1
    rho = n
    tensor = np.zeros((rank, rank, rank), dtype=object)
    for i in range(n):
        for j in range(n):
            tensor[i, j, int(g.cayley[i, j])] = 1
        tensor[i, rho, rho] = 1
        tensor[rho, i, rho] = 1
    for k in range(n):
        tensor[rho, rho, k] = 1
    tensor[rho, rho, rho] = m
    inv = [g.inverse(i) for i in range(n)] + [rho]
    label = name or f"K({g.name},{m})"
    return FusionData(label, inv, tensor)


def ising() -> FusionData:
    return near_group([2], 0, name="Ising")


def fibonacci() -> FusionData:
    return near_group([], 1, name="Fibonacci")


def family_ring(n: int, G, K) -> FusionData:
    """Half-Frobenius family of type [[1, n^2], [n, m]].

    Basis {x_g : g in G} u {rho_k : k in K, k != e}; rules x_g x_h = x_{gh},
    x_g rho_k = rho_k x_g = rho_k, rho_k rho_l = n rho_{kl} with
    rho_e := (1/n) sum_g x_g.
    """
    if n < 1:
        raise InvalidOrders(f"n = {n} is not a positive integer")
    g = _as_group(G)
    k = _as_group(K)
    if g.order != n * n:
        raise InvalidOrders(f"|G| = {g.order} != n^2 = {n * n}")
    m = k.order - 1
    rank = g.order + m
    tensor = np.zeros((rank, rank, rank), dtype=object)
    # rho indices: k = 1..|K|-1 maps to g.order + (k-1)
    def rho_idx(kk: int) -> int:
        return g.order + kk - 1

    for a in range(g.order):
        for b in range(g.order):
            tensor[a, b, int(g.cayley[a, b])] = 1
        for kk in range(1, k.order):
            tensor[a, rho_idx(kk), rho_idx(kk)] = 1
            tensor[rho_idx(kk), a, rho_idx(kk)] = 1
    for kk in range(1, k.order):
        for ll in range(1, k.order):
            prod = int(k.cayley[kk, ll])
            if prod == 0:
                for a in range(g.order):
                    tensor[rho_idx(kk), rho_idx(ll), a] = 1
            else:
                tensor[rho_idx(kk), rho_idx(ll), rho_idx(prod)] = n
    inv = [g.inverse(a) for a in range(g.order)] + [
        rho_idx(k.inverse(kk)) for kk in range(1, k.order)
    ]
    return FusionData(f"Fam(n={n},{g.name},{k.name})", inv, tensor)


def corpus() -> list[FusionData]:
    """The standard self-verifying test corpus (all rings abelian)."""
    rings: list[FusionData] = []
    for name in catalog_names():
        g = catalog(name)
        rings.append(rep_ring(g))
        rings.append(class_hypergroup(g))
    rings.append(ising())
    rings.append(fibonacci())
    rings.append(near_group([3], 3))
    rings.append(family_ring(2, [2, 2], [3]))
    rings.append(family_ring(2, [4], [3]))
    return rings
