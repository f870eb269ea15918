"""Backtracking enumeration of fusion rings with a prescribed type.

Variables are the Frobenius-reciprocity orbits of tensor entries; the search
assigns them in row-major order with Frobenius-Perron row-sum pruning and
deduplicates the results by canonical form under dimension-preserving basis
relabelings.  Involutions conjugate under those relabelings give relabeled
rings, so only one involution per conjugacy class is searched.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from ..core import FusionData, bracketings
from ..errors import BudgetExceeded, InvalidType

__all__ = ["enumerate_by_type", "normalize_type", "type_of"]

SIZE_BOUND = 64


def normalize_type(type_vector) -> list[int]:
    """Accept [[d, k], ...] pairs or a flat dimension list; return sorted dims."""
    tv = list(type_vector)
    if tv and isinstance(tv[0], (list, tuple)):
        dims = []
        for d, k in tv:
            dims.extend([int(d)] * int(k))
    else:
        dims = [int(d) for d in tv]
    if any(d < 1 for d in dims):
        raise InvalidType("dimensions must be positive")
    dims.sort()
    if not dims or dims[0] != 1:
        raise InvalidType("type must contain the unit dimension 1")
    return dims


def type_of(dims) -> list[list[int]]:
    """Multiset [[d, multiplicity], ...] of a dimension vector."""
    out = []
    for d in sorted(set(int(x) for x in dims)):
        out.append([d, sum(1 for x in dims if int(x) == d)])
    return out


def _involutions_of_block(block: list[int]):
    """All involutive permutations of a block, as lists of (a, b) swaps."""
    if not block:
        yield []
        return
    a = block[0]
    rest = block[1:]
    # a is a fixed point
    for tail in _involutions_of_block(rest):
        yield tail
    # a is swapped with some b
    for t, b in enumerate(rest):
        rem = rest[:t] + rest[t + 1:]
        for tail in _involutions_of_block(rem):
            yield [(a, b)] + tail


def _blocks(dims: list[int]) -> list[list[int]]:
    """Non-unit indices grouped by dimension, in ascending dimension order."""
    m = len(dims)
    return [[i for i in range(1, m) if dims[i] == d] for d in sorted(set(dims))]


def _involution_candidates(dims: list[int]):
    m = len(dims)
    blocks = _blocks(dims)

    def rec(idx, acc):
        if idx == len(blocks):
            sigma = list(range(m))
            for (a, b) in acc:
                sigma[a], sigma[b] = b, a
            yield tuple(sigma)
            return
        for swaps in _involutions_of_block(blocks[idx]):
            yield from rec(idx + 1, acc + swaps)

    yield from rec(0, [])


def _involution_representatives(dims: list[int]):
    """The first candidate of each conjugacy class under the relabelings.

    The relabelings permute each block freely, so two involutions are
    conjugate exactly when they swap the same number of pairs in every block.
    """
    blocks = _blocks(dims)
    seen = set()
    for sigma in _involution_candidates(dims):
        swaps = tuple(sum(sigma[i] != i for i in block) for block in blocks)
        if swaps not in seen:
            seen.add(swaps)
            yield sigma


def _orbits(m: int, sigma: tuple):
    """Orbits of entry triples under N_{ij}^k = N_{i*k}^j = N_{kj*}^i."""
    seen = np.full((m, m, m), -1, dtype=int)
    orbits = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if seen[i, j, k] >= 0:
                    continue
                orb = []
                stack = [(i, j, k)]
                oid = len(orbits)
                while stack:
                    t = stack.pop()
                    if seen[t] >= 0:
                        continue
                    seen[t] = oid
                    orb.append(t)
                    a, b, c = t
                    stack.append((sigma[a], c, b))
                    stack.append((c, sigma[b], a))
                orbits.append(orb)
    return orbits


def enumerate_by_type(type_vector, budget: int = 2_000_000) -> list[FusionData]:
    """All fusion rings with the given type, up to basis relabeling.

    The search runs over one involution per conjugacy class under the
    dimension-preserving relabelings.  `budget` caps the number of search
    nodes across those involutions; exceeding it raises BudgetExceeded, as
    does a type with sum k d^2 > 64.
    """
    dims = normalize_type(type_vector)
    m = len(dims)
    if sum(d * d for d in dims) > SIZE_BOUND:
        raise BudgetExceeded(f"sum of d^2 exceeds {SIZE_BOUND}")
    d = np.array(dims, dtype=np.int64)
    nodes = {"n": 0}
    found: dict[tuple, FusionData] = {}
    relabelings = _relabelings(dims)

    for sigma in _involution_representatives(dims):
        tensors = _search_involution(m, d, sigma, nodes, budget)
        for tensor in tensors:
            key = _canonical_key(tensor, relabelings)
            if key not in found:
                canon = np.array(key, dtype=np.int64).reshape(m, m, m)
                ring = FusionData(
                    f"enum{type_of(dims)}#{len(found)}",
                    _involution_of_tensor(canon),
                    canon.astype(object),
                )
                ring.flags  # validates
                found[key] = ring
    return [found[k] for k in sorted(found)]


def _involution_of_tensor(tensor: np.ndarray) -> list[int]:
    """i* for each i: the first j with N_{ij}^0 != 0."""
    return (tensor[:, :, 0] != 0).argmax(axis=1).tolist()


def _relabelings(dims: list[int]) -> np.ndarray:
    """(R, m) array of the relabelings that fix the unit and preserve dims."""
    m = len(dims)
    blocks = _blocks(dims)
    rows = []
    for images in product(*(permutations(block) for block in blocks)):
        p = [0] * m
        for block, image in zip(blocks, images):
            for a, b in zip(block, image):
                p[a] = b
        rows.append(p)
    return np.array(rows, dtype=np.intp)


def _canonical_key(tensor: np.ndarray, P: np.ndarray) -> tuple:
    """Lexicographically least raveled T[p, p, p] over the rows p of P.

    P is `_relabelings(dims)`.  Every relabeled tensor is built at once as an
    (R, m^3) uint8 stack (the entries of a type with sum d^2 <= 64 are at most
    49) and the least row is taken with one lexsort, whose last key is the
    primary one.
    """
    T = tensor.astype(np.uint8)
    stack = T[P[:, :, None, None], P[:, None, :, None], P[:, None, None, :]]
    stack = stack.reshape(len(P), -1)
    return tuple(stack[np.lexsort(stack.T[::-1])[0]].tolist())


def _search_involution(m, d, sigma, nodes, budget):
    orbits = _orbits(m, sigma)
    # forced entries: unit rows/columns and the N^0 column
    forced_value = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                v = None
                if i == 0:
                    v = 1 if j == k else 0
                elif j == 0:
                    v = 1 if i == k else 0
                elif k == 0:
                    v = 1 if j == sigma[i] else 0
                if v is not None:
                    forced_value[(i, j, k)] = v

    orbit_value = [None] * len(orbits)
    variables = []
    for oid, orb in enumerate(orbits):
        vals = {forced_value[t] for t in orb if t in forced_value}
        if len(vals) > 1:
            return []
        if vals:
            orbit_value[oid] = vals.pop()
        else:
            variables.append(oid)
    caps = []
    for orb in orbits:
        caps.append(min(int(d[a] * d[b] // d[c]) for a, b, c in orb))
    for oid, v in enumerate(orbit_value):
        if v is not None and v > caps[oid]:
            return []

    # row bookkeeping: target and potential contributions
    target = {(i, j): int(d[i] * d[j]) for i in range(m) for j in range(m)}
    cur = {}
    rem = {}
    for (i, j) in target:
        cur[(i, j)] = 0
        rem[(i, j)] = 0
    members_by_orbit = []
    for oid, orb in enumerate(orbits):
        members_by_orbit.append([(a, b, c, int(d[c])) for a, b, c in orb])
        if orbit_value[oid] is not None:
            for a, b, c, w in members_by_orbit[oid]:
                cur[(a, b)] += orbit_value[oid] * w
        else:
            for a, b, c, w in members_by_orbit[oid]:
                rem[(a, b)] += caps[oid] * w
    for (i, j) in target:
        if cur[(i, j)] > target[(i, j)] or cur[(i, j)] + rem[(i, j)] < target[(i, j)]:
            return []

    variables.sort(key=lambda oid: min(orbits[oid]))
    results = []

    def leaf_check():
        tensor = np.zeros((m, m, m), dtype=np.int64)
        for oid, orb in enumerate(orbits):
            v = orbit_value[oid]
            for a, b, c in orb:
                tensor[a, b, c] = v
        lhs, rhs = bracketings(tensor)
        if (lhs == rhs).all():
            results.append(tensor)

    def dfs(pos):
        nodes["n"] += 1
        if nodes["n"] > budget:
            raise BudgetExceeded(f"search exceeded {budget} nodes")
        if pos == len(variables):
            leaf_check()
            return
        oid = variables[pos]
        mem = members_by_orbit[oid]
        for v in range(caps[oid] + 1):
            ok = True
            for a, b, c, w in mem:
                cur[(a, b)] += v * w
                rem[(a, b)] -= caps[oid] * w
            for a, b, c, w in mem:
                if cur[(a, b)] > target[(a, b)] or cur[(a, b)] + rem[(a, b)] < target[(a, b)]:
                    ok = False
                    break
            if ok:
                orbit_value[oid] = v
                dfs(pos + 1)
                orbit_value[oid] = None
            for a, b, c, w in mem:
                cur[(a, b)] -= v * w
                rem[(a, b)] += caps[oid] * w
        return

    dfs(0)
    return results
