"""Backtracking enumeration of fusion rings with a prescribed type.

The variables are the orbits of tensor entries under Frobenius reciprocity,
N_{ij}^k = N_{i*k}^j = N_{kj*}^i.  Every entry carries its orbit's id, so a
complete assignment becomes a tensor by one gather.  The search assigns the
free orbits in row-major order of their first entries.  Each row sum
sum_k N_{ij}^k d_k must reach d_i d_j, so at a node the values an orbit can
take form one interval: at most what every row it meets still needs, and at
least what the later orbits cannot supply at their caps.  Only that interval
is visited, and associativity is checked at the leaves.  Involutions
conjugate under the dimension-preserving basis relabelings give relabeled
rings, so only one involution per conjugacy class is searched.

The rings are deduplicated by canonical form: the least raveled T[p, p, p]
over the relabelings p.  It is computed once per isomorphism class.  The
first leaf of a class is relabeled every way by flat gathers through one
relabeling index, and every relabeled copy is indexed by a fingerprint of
its bytes; a later leaf of the class is recognised by one lookup and one
exact comparison.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from ..core import FusionData, bracketings, components, involution_of
from ..errors import BudgetExceeded, InvalidType

__all__ = ["enumerate_by_type", "normalize_type", "type_of"]

SIZE_BOUND = 64
# relabeled copies gathered per take in `_relabeled_rows`
_ROW_CHUNK = 256


def normalize_type(type_vector) -> list[int]:
    """Accept [[d, k], ...] pairs or a flat dimension list; return sorted dims.

    Raises InvalidType for a dimension or multiplicity that is not an integer,
    a negative multiplicity, a dimension below 1 or a type without the unit.
    """
    tv = list(type_vector)
    if tv and isinstance(tv[0], (list, tuple)):
        dims = []
        for d, k in tv:
            k = _integer(k, "multiplicity")
            if k < 0:
                raise InvalidType(f"multiplicity {k} is negative")
            dims.extend([_integer(d, "dimension")] * k)
    else:
        dims = [_integer(d, "dimension") for d in tv]
    if any(d < 1 for d in dims):
        raise InvalidType("dimensions must be positive")
    dims.sort()
    if not dims or dims[0] != 1:
        raise InvalidType("type must contain the unit dimension 1")
    return dims


def _integer(x, what: str) -> int:
    """x as an int, or InvalidType when x is not an integer."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidType(f"{what} {x!r} is not an integer") from None
    if n != x:
        raise InvalidType(f"{what} {x!r} is not an integer")
    return n


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

    Each associative leaf is first looked up in the class index, which maps
    the fingerprint of every relabeled copy of every class found so far to
    (the class's first leaf, the relabeling).  A hit counts only once the
    leaf equals that relabeling of that leaf, so the output never depends on
    the fingerprints.  A leaf that misses is relabeled every way; the least
    copy is its canonical form and every copy joins the index.  The
    relabelings are built at the first associative leaf, so a type with no
    ring never builds them.  Rings are named in the order their classes are
    found and returned sorted by canonical form.
    """
    dims = normalize_type(type_vector)
    m = len(dims)
    if sum(d * d for d in dims) > SIZE_BOUND:
        raise BudgetExceeded(f"sum of d^2 exceeds {SIZE_BOUND}")
    d = np.array(dims, dtype=np.int64)
    nodes = {"n": 0}
    found: dict[bytes, FusionData] = {}
    index = None
    classes: dict[int, tuple[np.ndarray, int]] = {}

    for sigma in _involution_representatives(dims):
        for tensor in _search_involution(m, d, sigma, nodes, budget):
            flat = tensor.astype(np.uint8).ravel()
            raw = flat.tobytes()
            hit = classes.get(_fingerprint(raw))
            if hit is not None and hit[0].take(index[hit[1]]).tobytes() == raw:
                continue
            if index is None:
                index = _relabeling_index(_relabelings(dims))
            key = raw  # a row itself: the relabelings include the identity
            for r, row in enumerate(_relabeled_rows(flat, index)):
                classes.setdefault(_fingerprint(row), (flat, r))
                key = min(key, row)
            if key not in found:
                canon = np.frombuffer(key, dtype=np.uint8).astype(np.int64).reshape(m, m, m)
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


def _relabeling_index(P: np.ndarray) -> np.ndarray:
    """(R, m^3) flat index: T.ravel()[index[r]] is T[p, p, p].ravel() for p = P[r].

    It is held in the smallest unsigned dtype that holds m^3 - 1 (uint16 up to
    m = 40); every partial sum below is at most m^3 - 1, so none wraps.
    """
    m = P.shape[1]
    P = P.astype(np.min_scalar_type(m ** 3 - 1))
    flat = (P[:, :, None, None] * m + P[:, None, :, None]) * m + P[:, None, None, :]
    return flat.reshape(len(P), m ** 3)


def _relabeled_rows(flat: np.ndarray, index: np.ndarray):
    """The bytes of T[p, p, p].ravel() for each row of the relabeling index, in order.

    flat is the raveled uint8 tensor.  The rows are gathered _ROW_CHUNK at a
    time, so the (R, m^3) stack is never held at once.
    """
    n = index.shape[1]
    for start in range(0, len(index), _ROW_CHUNK):
        block = flat.take(index[start:start + _ROW_CHUNK]).tobytes()
        for a in range(0, len(block), n):
            yield block[a:a + n]


def _fingerprint(row: bytes) -> int:
    """Fingerprint of a raveled uint8 tensor; a match is always confirmed exactly."""
    return hash(row)


def _canonical_key(tensor: np.ndarray, P: np.ndarray) -> tuple:
    """Lexicographically least raveled T[p, p, p] over the rows p of P.

    P is `_relabelings(dims)`.  The tensor is raveled as uint8 (the entries
    of a type with sum d^2 <= 64 are at most 49) and relabeled by one flat
    gather through `_relabeling_index`.  For uint8 rows of one length the
    byte order is the lexicographic order of the entries, so the key is the
    least byte row.
    """
    flat = tensor.astype(np.uint8).ravel()
    return tuple(min(_relabeled_rows(flat, _relabeling_index(P))))


def _search_involution(m, d, sigma, nodes, budget):
    """Associative tensors of one involution, in depth-first leaf order.

    The tree is walked iteratively.  Entering the node of step pos counts
    one node against the budget, narrows the step's orbit to its interval
    [lo, hi] and takes lo; backtracking moves the deepest step that has not
    reached its hi to its next value.
    """
    oid_of = _orbit_labels(m, sigma)
    setup = _search_setup(oid_of, d, sigma)
    if setup is None:
        return []
    values, caps, steps, need = setup
    results = []
    depth = len(steps)
    his = [0] * depth
    count = nodes["n"]
    pos = 0
    while True:
        count += 1
        if count > budget:
            raise BudgetExceeded(f"search exceeded {budget} nodes")
        if pos < depth:
            oid, rows = steps[pos]
            # v keeps every row r of the orbit feasible iff
            # need_r - rem_r <= v W_r <= need_r; both bounds are monotone in v.
            # With W_r > 0, floor(n / w) < hi iff n < hi w, and
            # ceil(n / w) > lo iff n > lo w, so a row divides only to move a bound
            lo, hi = 0, caps[oid]
            for r, w, rem in rows:
                n = need[r]
                if n < hi * w:
                    hi = n // w
                if n - rem > lo * w:
                    lo = (n - rem + w - 1) // w
            if lo <= hi:
                for r, w, _ in rows:
                    need[r] -= lo * w
                values[oid] = lo
                his[pos] = hi
                pos += 1
                continue
        else:
            tensor = np.array(values, dtype=np.int64)[oid_of]
            lhs, rhs = bracketings(tensor)
            if (lhs == rhs).all():
                results.append(tensor)
        while True:
            pos -= 1
            if pos < 0:
                nodes["n"] = count
                return results
            oid, rows = steps[pos]
            for r, w, _ in rows:
                need[r] -= w
            if values[oid] < his[pos]:
                values[oid] += 1
                pos += 1
                break
            for r, w, _ in rows:
                need[r] += (his[pos] + 1) * w
