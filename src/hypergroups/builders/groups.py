"""Finite groups as Cayley tables, built from permutation generators.

The catalog ships generators only; every group-theoretic fact used in tests
(classes, centers, centralizers, nilpotency) is recomputed from the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ..errors import InvalidOrders, OrderBoundExceeded

__all__ = [
    "FiniteGroup",
    "group_from_generators",
    "abelian_group",
    "catalog",
    "catalog_names",
    "CATALOG_GENERATORS",
]

ORDER_BOUND = 10**4


@dataclass
class FiniteGroup:
    name: str
    cayley: np.ndarray  # (n, n) int, cayley[i, j] = index of g_i g_j, unit = 0
    _inverse: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._inverse = np.argmax(self.cayley == 0, axis=1)

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    def inverse(self, i: int) -> int:
        return int(self._inverse[i])

    def conj(self, a: int, g: int) -> int:
        """g a g^{-1}"""
        return int(self.cayley[self.cayley[g, a], self.inverse(g)])

    def conjugacy_classes(self) -> list[tuple]:
        """Classes as sorted index tuples; identity class first, then by (size, min).

        Entry [g, a] of the one table cayley[cayley, g^{-1}] is g a g^{-1}, so
        the class of a is the set of column a.
        """
        conj = self.cayley[self.cayley, self._inverse[:, None]]
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for a in range(self.order):
            if not seen[a]:
                cls = tuple(sorted(set(conj[:, a].tolist())))
                seen[list(cls)] = True
                classes.append(cls)
        classes.sort(key=lambda c: (0 not in c, len(c), c))
        return classes

    def center(self) -> tuple:
        n = self.order
        return tuple(
            a
            for a in range(n)
            if all(self.cayley[a, b] == self.cayley[b, a] for b in range(n))
        )

    def centralizer_order(self, a: int) -> int:
        n = self.order
        return sum(1 for b in range(n) if self.cayley[a, b] == self.cayley[b, a])

    def commutator(self, a: int, b: int) -> int:
        ab = self.cayley[a, b]
        ba = self.cayley[b, a]
        return int(self.cayley[ab, self.inverse(int(ba))])

    def is_nilpotent(self) -> bool:
        """Ascending central series on the table."""
        n = self.order
        Z = {0}
        while True:
            Zn = {
                x
                for x in range(n)
                if all(self.commutator(x, y) in Z for y in range(n))
            }
            if len(Zn) == n:
                return True
            if Zn == Z:
                return False
            Z = Zn


def _compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(x) = p(q(x))"""
    return tuple(p[q[x]] for x in range(len(p)))


def group_from_generators(perms, name: str = "G") -> FiniteGroup:
    """Breadth-first closure of permutations into a Cayley table.

    Permutations are tuples over a common finite set {0..deg-1}; the search is
    bounded at 10^4 elements.  The search records, for every element g_e and
    generator s, the index of g_e s, and the parent (e, s) of each new element
    g_j = g_e s.  Column j of the table is then column e composed with right
    multiplication by s: g_i g_j = (g_i g_e) s, one index gather per column.
    """
    perms = [tuple(int(x) for x in p) for p in perms]
    if not perms:
        return FiniteGroup(name, np.zeros((1, 1), dtype=int))
    deg = len(perms[0])
    if any(len(p) != deg or sorted(p) != list(range(deg)) for p in perms):
        raise ValueError("generators must be permutations of a common set")
    ident = tuple(range(deg))
    elements = [ident]
    index = {ident: 0}
    parent = [None]
    right = [[] for _ in perms]  # right[s][e]: index of g_e s
    for e, p in enumerate(elements):  # visits elements as the search appends them
        for s, q in enumerate(perms):
            prod = _compose(p, q)
            if prod not in index:
                if len(elements) >= ORDER_BOUND:
                    raise OrderBoundExceeded(f"closure exceeds {ORDER_BOUND}")
                index[prod] = len(elements)
                elements.append(prod)
                parent.append((e, s))
            right[s].append(index[prod])
    n = len(elements)
    right = np.array(right, dtype=np.intp)
    cayley = np.empty((n, n), dtype=int)
    cayley[:, 0] = np.arange(n)
    for j in range(1, n):
        e, s = parent[j]
        cayley[:, j] = right[s][cayley[:, e]]
    return FiniteGroup(name, cayley)


def abelian_group(cyclic_orders, name: str | None = None) -> FiniteGroup:
    """Direct product of cyclic groups given by their orders."""
    orders = [int(k) for k in cyclic_orders]
    if any(k < 1 for k in orders):
        raise InvalidOrders(f"cyclic orders {orders} must be positive")
    if not orders:
        return FiniteGroup(name or "C1", np.zeros((1, 1), dtype=int))
    starts = list(accumulate(orders, initial=0))
    gens = [_pad(_cycles(range(s, s + k)), starts[-1]) for s, k in zip(starts, orders)]
    label = name or "x".join(f"C{k}" for k in orders)
    return group_from_generators(gens, label)


def _cycles(*cycles) -> tuple:
    """The permutation with the given disjoint cycles, each a sequence of
    points, on the points up to the largest one named; `_pad` extends it to a
    common degree."""
    perm = list(range(max((max(c) + 1 for c in cycles), default=0)))
    for c in cycles:
        for t in range(len(c)):
            perm[c[t]] = c[(t + 1) % len(c)]
    return tuple(perm)


def _pad(perm: tuple, deg: int) -> tuple:
    """`perm` extended to the points {0..deg-1}, fixing the added points."""
    return tuple(list(perm) + list(range(len(perm), deg)))


def _sl23_generators() -> list[tuple]:
    """SL(2,3) acting on the 8 nonzero vectors of F_3^2 (a faithful action)."""
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(vecs)}

    def act(mat):
        out = []
        for (a, b) in vecs:
            v = ((mat[0][0] * a + mat[0][1] * b) % 3, (mat[1][0] * a + mat[1][1] * b) % 3)
            out.append(idx[v])
        return tuple(out)

    return [act([[1, 1], [0, 1]]), act([[0, -1], [1, 0]])]


def _catalog_generators() -> dict:
    gens = {}
    for k in range(2, 9):
        gens[f"C{k}"] = [_cycles(tuple(range(k)))]
    gens["C2xC2"] = [_cycles((0, 1)), _cycles((2, 3))]
    gens["C2xC2xC2"] = [_cycles((0, 1)), _cycles((2, 3)), _cycles((4, 5))]
    gens["S3"] = [_cycles((0, 1, 2)), _cycles((0, 1))]
    gens["D4"] = [_cycles((0, 1, 2, 3)), _cycles((1, 3))]
    gens["D5"] = [_cycles((0, 1, 2, 3, 4)), _cycles((1, 4), (2, 3))]
    gens["Q8"] = [_cycles((0, 2, 1, 3), (4, 6, 5, 7)), _cycles((0, 4, 1, 5), (2, 7, 3, 6))]
    gens["A4"] = [_cycles((0, 1, 2)), _cycles((0, 1), (2, 3))]
    gens["SL(2,3)"] = _sl23_generators()
    gens["S4"] = [_cycles((0, 1, 2, 3)), _cycles((0, 1))]
    gens["A5"] = [_cycles((0, 1, 2, 3, 4)), _cycles((0, 1, 2))]
    # pad generators of each group to a common degree
    for name, gs in gens.items():
        deg = max(len(g) for g in gs)
        gens[name] = [_pad(g, deg) for g in gs]
    return gens


CATALOG_GENERATORS = _catalog_generators()

_EXPECTED_ORDERS = {
    "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
    "C2xC2": 4, "C2xC2xC2": 8, "S3": 6, "D4": 8, "D5": 10, "Q8": 8,
    "A4": 12, "SL(2,3)": 24, "S4": 24, "A5": 60,
}

_CACHE: dict = {}


def catalog_names() -> list[str]:
    return list(CATALOG_GENERATORS)


def catalog(name: str) -> FiniteGroup:
    """Expand a catalog entry into a FiniteGroup (cached)."""
    if name not in _CACHE:
        g = group_from_generators(CATALOG_GENERATORS[name], name)
        expected = _EXPECTED_ORDERS[name]
        if g.order != expected:
            raise OrderBoundExceeded(
                f"catalog group {name} expanded to order {g.order}, expected {expected}"
            )
        _CACHE[name] = g
    return _CACHE[name]
