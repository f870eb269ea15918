"""Correctness oracles computed apart from the library.

Nothing here imports `hypergroups`.  Group facts come from permutation
generators by plain closure; near-group and family facts come from their
closed forms; enumeration results are re-checked with an int64 associativity
contraction and a brute-force isomorphism test.  Each `check_*` function
returns a list of error strings, empty when the output is right.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

# Number of groups of order n (OEIS A000001), for the ring-count facts below.
GROUPS_OF_ORDER = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
                   11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14}

REL_TOL = 1e-6


class PermGroup:
    """A permutation group closed from its generators, with a Cayley table."""

    def __init__(self, generators):
        gens = [tuple(g) for g in generators]
        deg = max((len(g) for g in gens), default=1)
        gens = [g + tuple(range(len(g), deg)) for g in gens]
        ident = tuple(range(deg))
        elems = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[x] for x in g)
                    if q not in index:
                        index[q] = len(elems)
                        elems.append(q)
                        nxt.append(q)
            frontier = nxt
        self.order = len(elems)
        self.mul = [[index[tuple(p[x] for x in q)] for q in elems] for p in elems]
        self.inv = [row.index(0) for row in self.mul]
        self.generator_orders = []
        for g in gens:
            k, x = 1, index[g]
            while x != 0:
                x, k = self.mul[x][index[g]], k + 1
            self.generator_orders.append(k)

    def _commutes(self, a: int, b: int) -> bool:
        return self.mul[a][b] == self.mul[b][a]

    def classes(self) -> list[list[int]]:
        seen = set()
        out = []
        for a in range(self.order):
            if a in seen:
                continue
            cls = {self.mul[self.mul[g][a]][self.inv[g]] for g in range(self.order)}
            seen |= cls
            out.append(sorted(cls))
        return out

    def centraliser_orders(self) -> list[int]:
        """|C_G(g)| for one g in each conjugacy class."""
        return [sum(self._commutes(c[0], b) for b in range(self.order)) for c in self.classes()]

    def center_order(self) -> int:
        return sum(
            all(self._commutes(a, b) for b in range(self.order)) for a in range(self.order)
        )

    def _commutator(self, a: int, b: int) -> int:
        m = self.mul
        return m[m[m[a][b]][self.inv[a]]][self.inv[b]]

    def derived_order(self) -> int:
        """|[G, G]|: the subgroup generated by all commutators."""
        gens = {self._commutator(a, b) for a in range(self.order) for b in range(self.order)}
        sub = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    c = self.mul[a][s]
                    if c not in sub:
                        sub.add(c)
                        nxt.append(c)
            frontier = nxt
        return len(sub)

    def nilpotency_class(self) -> int | None:
        """Length of the upper central series; 1 for the trivial group, None if not nilpotent."""
        z = {0}
        steps = 0
        while len(z) < self.order:
            nz = {a for a in range(self.order)
                  if all(self._commutator(a, b) in z for b in range(self.order))}
            if nz == z:
                return None
            z = nz
            steps += 1
        return max(steps, 1)


def invariant_factors(cyclic_orders) -> list[int]:
    """Invariant factors of a product of cyclic groups, ascending."""
    by_prime: dict[int, list[int]] = {}
    for k in cyclic_orders:
        p = 2
        while k > 1:
            e = 1
            while k % p == 0:
                k //= p
                e *= p
            if e > 1:
                by_prime.setdefault(p, []).append(e)
            p += 1
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * depth
    for powers in by_prime.values():
        for t, q in enumerate(sorted(powers, reverse=True)):
            factors[t] *= q
    return sorted(factors)


# ---- facts per ring kind ------------------------------------------------

def abelian_facts(g: PermGroup) -> dict:
    """For abelian A, K(Rep(A)) and Cl(A) are both Z[A]: pointed, class 1, all
    codegrees |A|, graded by A.  When A is the direct product of the cyclic
    groups its generators generate, the invariant factors follow too."""
    n = g.order
    if g.center_order() != n:
        return {}
    facts = {"fp_dims": [1] * n, "codegrees": [n] * n, "grading_order": n,
             "nilpotency_class": 1}
    if math.prod(g.generator_orders) == n:
        facts["invariant_factors"] = invariant_factors(g.generator_orders)
    return facts


def rep_ring_facts(g: PermGroup) -> dict:
    """K(Rep(G)): codegrees are centraliser orders, Burnside's vanishing theorem,
    grading group dual to Z(G), and Rep(G) nilpotent of G's class exactly when G is."""
    cls = g.nilpotency_class()
    facts = {
        "rank": len(g.classes()),
        "order": g.order,
        "codegrees": g.centraliser_orders(),
        "fp_dim_squares_sum": g.order,
        "is_burnside": True,
        "grading_order": g.center_order(),
        "nilpotency_class": cls,
    }
    if cls is not None:
        facts["is_dual_burnside"] = True
    facts.update(abelian_facts(g))
    return facts


def class_hypergroup_facts(g: PermGroup) -> dict:
    """Cl(G): normalized class sums; FP dims 1, order |G|, grading group G/[G,G]."""
    facts = {
        "rank": len(g.classes()),
        "order": g.order,
        "fp_dims": [1] * len(g.classes()),
        "grading_order": g.order // g.derived_order(),
    }
    cls = g.nilpotency_class()
    if cls is not None:
        facts.update(is_burnside=True, is_dual_burnside=True, nilpotency_class=cls)
    facts.update(abelian_facts(g))
    return facts


def near_group_facts(n: int, m: int) -> dict:
    """K(G, m) with |G| = n: closed forms with d = (m + sqrt(m^2 + 4n)) / 2."""
    d = (m + math.sqrt(m * m + 4 * n)) / 2
    if m == 0 and n > 1:
        nil = 2
    elif m == 0:
        nil = 1
    else:
        nil = None
    return {
        "rank": n + 1,
        "order": n + d * d,
        "fp_dims": [1] * n + [d],
        "is_burnside": n > 1 or m == 0,
        "is_dual_burnside": m == 0,
        "nilpotency_class": nil,
    }


def family_facts(n: int, g_order: int, k_order: int) -> dict:
    """Half-Frobenius family of type [[1, n^2], [n, |K|-1]], graded by K."""
    return {
        "rank": g_order + k_order - 1,
        "order": n * n * k_order,
        "fp_dims": [1] * g_order + [n] * (k_order - 1),
        "grading_order": k_order,
    }


# ---- checks ---------------------------------------------------------------

def _close(a, b) -> bool:
    return abs(float(a) - float(b)) <= REL_TOL * max(1.0, abs(float(b)))


def _same_multiset(got, want) -> bool:
    return len(got) == len(want) and all(
        _close(a, b) for a, b in zip(sorted(map(float, got)), sorted(map(float, want)))
    )


def report_view(rep: dict) -> dict:
    """The checked fields of a structured analyze() report."""
    b = rep.get("burnside") or {}
    g = rep.get("grading") or {}
    return {
        "rank": rep.get("rank"),
        "order": rep.get("order"),
        "fp_dims": rep.get("fp_dims"),
        "codegrees": rep.get("codegrees"),
        "is_burnside": b.get("is_burnside"),
        "is_dual_burnside": b.get("is_dual_burnside"),
        "grading_order": g.get("group_order"),
        "invariant_factors": g.get("invariant_factors"),
        "nilpotency_class": rep.get("nilpotency_class"),
    }


def check_facts(view: dict, facts: dict) -> list[str]:
    """Compare a report view with the facts that apply to its ring."""
    errs = []
    for key, want in facts.items():
        if key == "fp_dim_squares_sum":
            got = view.get("fp_dims")
            if got is None or not _close(sum(x * x for x in got), want):
                errs.append(f"sum of FP dim squares {got} != {want}")
            continue
        got = view.get(key)
        if key in ("fp_dims", "codegrees"):
            ok = got is not None and _same_multiset(got, want)
        elif key == "invariant_factors":
            ok = got is not None and sorted(got) == sorted(want)
        elif key == "order":
            ok = got is not None and _close(got, want)
        else:
            ok = got == want
        if not ok:
            errs.append(f"{key}: got {got!r}, want {want!r}")
    return errs


def check_class_vs_rep(cl_view: dict, rep_view: dict) -> list[str]:
    """Cl(G) is Burnside exactly when K(Rep(G)) is dual-Burnside (the two are dual)."""
    if cl_view["is_burnside"] != rep_view["is_dual_burnside"]:
        return [f"Cl is_burnside {cl_view['is_burnside']} != "
                f"K(Rep) is_dual_burnside {rep_view['is_dual_burnside']}"]
    return []


def parse_batch_line(line: str):
    """(path, view) for a report line, (path, error text) for an ERROR line."""
    path, _, rest = line.partition(": ")
    if rest.startswith("ERROR "):
        return path, rest[len("ERROR "):]
    tok = rest.split()
    fields = dict(zip(tok[0::2], tok[1::2]))
    nil = fields.get("nilpotency")
    return path, {
        "rank": int(fields["rank"]),
        "is_burnside": {"True": True, "False": False}.get(fields.get("burnside")),
        "is_dual_burnside": {"True": True, "False": False}.get(fields.get("dual")),
        "nilpotency_class": None if nil in (None, "-") else int(nil),
    }


def type_count(dims) -> int | None:
    """Rings of type [1^n] or [1^n, d] with d^2 = n + m d: one per group of order n."""
    n = sum(1 for d in dims if d == 1)
    rest = [d for d in dims if d != 1]
    if not rest:
        return GROUPS_OF_ORDER.get(n)
    if len(rest) == 1:
        d = rest[0]
        if (d * d - n) % d == 0 and d * d >= n:
            return GROUPS_OF_ORDER.get(n)
    return None


def associative_int64(t: np.ndarray) -> bool:
    lhs = np.einsum("ijp,pkq->ijkq", t, t)
    rhs = np.einsum("jkp,ipq->ijkq", t, t)
    return bool((lhs == rhs).all())


def _relabelings(dims):
    blocks = [[i for i in range(len(dims)) if dims[i] == d and i != 0]
              for d in sorted(set(dims))]
    for choice in product(*(permutations(b) for b in blocks)):
        p = list(range(len(dims)))
        for block, image in zip(blocks, choice):
            for a, b in zip(block, image):
                p[a] = b
        yield p


def isomorphic(a: np.ndarray, b: np.ndarray, dims) -> bool:
    """Brute force over every dimension-preserving relabeling fixing the unit."""
    return any((a[np.ix_(p, p, p)] == b).all() for p in _relabelings(dims))


def check_enumeration(dims, tensors, expected_count) -> list[str]:
    """Every ring is a fusion ring of the given FP dims; no two are isomorphic."""
    errs = []
    d = np.array(dims, dtype=np.int64)
    m = len(dims)
    for t, ten in enumerate(tensors):
        if ten.shape != (m, m, m) or (ten < 0).any():
            errs.append(f"ring {t}: not a non-negative rank-{m} tensor")
            continue
        unit = np.eye(m, dtype=np.int64)
        if not ((ten[0] == unit).all() and (ten[:, 0, :] == unit).all()):
            errs.append(f"ring {t}: unit laws fail")
        dual0 = ten[:, :, 0]
        if not ((dual0.sum(axis=1) == 1).all() and (dual0 == dual0.T).all()):
            errs.append(f"ring {t}: N_ij^0 is not an involution")
        if not associative_int64(ten):
            errs.append(f"ring {t}: not associative")
        if not (np.einsum("ijk,k->ij", ten, d) == np.outer(d, d)).all():
            errs.append(f"ring {t}: FP dims {dims} do not satisfy d_i d_j = sum N_ij^k d_k")
    for a in range(len(tensors)):
        for b in range(a + 1, len(tensors)):
            if isomorphic(tensors[a], tensors[b], dims):
                errs.append(f"rings {a} and {b} are isomorphic")
    if len(tensors) != expected_count:
        errs.append(f"{len(tensors)} rings, want {expected_count}")
    return errs
