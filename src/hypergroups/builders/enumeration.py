"""Backtracking enumeration of fusion rings with a prescribed type.

The variables are the orbits of tensor entries under Frobenius reciprocity,
N_{ij}^k = N_{i*k}^j = N_{kj*}^i.  Every entry carries its orbit's id, so a
complete assignment becomes a tensor by one gather.  The search assigns the
free orbits in row-major order of their first entries.  Each row sum
sum_k N_{ij}^k d_k must reach d_i d_j, so at a node the values an orbit can
take form one interval: at most what every row it meets still needs, and at
least what the later orbits cannot supply at their caps.  Only that interval
is visited, and associativity is checked at the leaves.  The results are
deduplicated by canonical form under dimension-preserving basis relabelings.
Involutions conjugate under those relabelings give relabeled rings, so only
one involution per conjugacy class is searched.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from ..core import FusionData, bracketings, components, involution_of
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


def _blocks(dims: list[int]) -> list[list[int]]:
    """Non-unit indices grouped by dimension, in ascending dimension order."""
    m = len(dims)
    return [[i for i in range(1, m) if dims[i] == d] for d in sorted(set(dims))]


def _involution_representatives(dims: list[int]):
    """One involution per conjugacy class under the relabelings.

    The relabelings permute each block freely, so two involutions are
    conjugate exactly when they swap the same number of pairs in every block.
    The class swapping k_b pairs in block b is represented by swapping the
    last 2 k_b members of each block in consecutive pairs; the classes run
    over the blocks in order, the first block's count varying slowest.
    """
    blocks = _blocks(dims)
    for counts in product(*(range(len(block) // 2 + 1) for block in blocks)):
        sigma = list(range(len(dims)))
        for block, k in zip(blocks, counts):
            tail = block[len(block) - 2 * k:]
            for a, b in zip(tail[::2], tail[1::2]):
                sigma[a], sigma[b] = b, a
        yield tuple(sigma)


def _orbit_labels(m: int, sigma) -> np.ndarray:
    """(m, m, m) orbit ids of the entries under N_{ij}^k = N_{i*k}^j = N_{kj*}^i.

    The orbits are the connected components of the graph that joins each
    entry to its images under the reciprocity maps (i,j,k) -> (i*,k,j) and
    (i,j,k) -> (k,j*,i).  Ids count the orbits in the row-major order of
    their first entries.
    """
    s = np.asarray(sigma, dtype=np.intp)
    i, j, k = np.indices((m, m, m))
    flat = np.arange(m ** 3)
    cube = flat.reshape(m, m, m)
    images = np.concatenate([cube[s[i], k, j].ravel(), cube[k, s[j], i].ravel()])
    return components(m ** 3, np.tile(flat, 2), images).reshape(m, m, m)


def _search_setup(oid_of: np.ndarray, d: np.ndarray, sigma):
    """Forced values, caps and the per-variable row steps of one involution.

    Returns None when no ring has this involution: an orbit forced to two
    values or above its cap, or a row sum out of reach from the start.
    Otherwise returns (values, caps, steps, need):
    - values[o]: orbit o's forced value (unit row and column, N^0 column),
      0 for the variable orbits;
    - caps[o]: the least d_a d_b // d_c over the members (a, b, c) of o;
    - steps: one (o, rows) per variable orbit o, in search order (ascending
      id, i.e. by first entry); rows holds (r, W_r, rem_r) for each row
      r = a m + b that o meets, with W_r the sum of d_c over o's members in
      row r and rem_r the row's sum with every later variable at its cap;
    - need[r]: d_a d_b minus the forced part of row r's sum.
    """
    m = len(d)
    n = int(oid_of.max()) + 1
    i, j, k = np.indices((m, m, m))
    s = np.asarray(sigma)
    forced = np.where(i == 0, j == k, np.where(j == 0, i == k, np.where(k == 0, j == s[i], -1)))
    values = np.full(n, -1)
    np.maximum.at(values, oid_of, forced)
    entry_caps = d[:, None, None] * d[None, :, None] // d
    caps = np.full(n, entry_caps.max())
    np.minimum.at(caps, oid_of, entry_caps)
    if ((forced >= 0) & (forced != values[oid_of])).any() or (values > caps).any():
        return None
    variables = np.flatnonzero(values < 0)
    values[variables] = 0
    need = (np.outer(d, d) - values[oid_of] @ d).ravel()
    weight = np.zeros((n, m * m), dtype=np.int64)
    np.add.at(weight, (oid_of.ravel(), np.arange(m ** 3) // m), np.tile(d, m * m))
    weight = weight[variables]
    at_cap = caps[variables, None] * weight
    rem = at_cap[::-1].cumsum(axis=0)[::-1] - at_cap
    if (need < 0).any() or (need > at_cap.sum(axis=0)).any():
        return None
    steps = [(o, []) for o in variables.tolist()]
    pos, row = np.nonzero(weight)
    for p, r, w, x in zip(pos.tolist(), row.tolist(),
                          weight[pos, row].tolist(), rem[pos, row].tolist()):
        steps[p][1].append((r, w, x))
    return values.tolist(), caps.tolist(), steps, need.tolist()


def enumerate_by_type(type_vector, budget: int = 2_000_000) -> list[FusionData]:
    """All fusion rings with the given type, up to basis relabeling.

    The search runs over one involution per conjugacy class under the
    dimension-preserving relabelings.  For each, the entries are labelled by
    their Frobenius-reciprocity orbit, and each node visits only the interval
    of values that keeps every row sum it touches within reach.  `budget`
    caps the number of search nodes across those involutions; exceeding it
    raises BudgetExceeded, as does a type with sum k d^2 > 64.
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
                    involution_of(canon[:, :, 0]),
                    canon,
                )
                ring.flags  # validates
                found[key] = ring
    return [found[k] for k in sorted(found)]


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
    oid_of = _orbit_labels(m, sigma)
    setup = _search_setup(oid_of, d, sigma)
    if setup is None:
        return []
    values, caps, steps, need = setup
    results = []

    def dfs(pos):
        nodes["n"] += 1
        if nodes["n"] > budget:
            raise BudgetExceeded(f"search exceeded {budget} nodes")
        if pos == len(steps):
            tensor = np.array(values, dtype=np.int64)[oid_of]
            lhs, rhs = bracketings(tensor)
            if (lhs == rhs).all():
                results.append(tensor)
            return
        oid, rows = steps[pos]
        # v keeps every row r of the orbit feasible iff
        # need_r - rem_r <= v W_r <= need_r; both bounds are monotone in v
        lo, hi = 0, caps[oid]
        for r, w, rem in rows:
            if need[r] // w < hi:
                hi = need[r] // w
            if (need[r] - rem + w - 1) // w > lo:
                lo = (need[r] - rem + w - 1) // w
        if lo > hi:
            return
        for r, w, _ in rows:
            need[r] -= lo * w
        for v in range(lo, hi + 1):
            values[oid] = v
            dfs(pos + 1)
            for r, w, _ in rows:
                need[r] -= w
        for r, w, _ in rows:
            need[r] += (hi + 1) * w

    dfs(0)
    return results
