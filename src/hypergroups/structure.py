"""Sub-hypergroup machinery: generated closures, kernels, adjoint, supports,
universal grading, perp, quotients, central series and nilpotency.

Every function takes the RingAnalysis.  Every "x_k is a constituent of
x_i x_j" question reads its one boolean tensor `support`, so the lattice laws
tested downstream see one consistent notion of "constituent" at one
tolerance.  The tensor-side functions (closures, the adjoint and commutator
indices, grouplikes, the central series) read only `flags` and `support` and
never build the character table, so they work on non-commutative rings; the
character-side ones (kernels, centers, adjoint, supports, perp, the universal
grading and quotients) read its table, FP dimensions, order and grouplike
characters.

Kernels, centers and perps are rows and columns of the analysis's agreement
matrices `fp_agreement` (mu_j(x_i) = d_i) and `modulus_agreement`
(|mu_j(x_i)| = d_i); the grading and Harrison checks read its `normalized`
table mu_j(x_i)/d_i.  A SubHypergroup always holds the unit, index 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import Element, FusionData, _bad_indices, _constituents, check_indices, check_length, components, normalize
from .errors import ClosureViolation, CrossCheckFailed, HypergroupError, NotAbelian, NotPositive
from .spectra import _match_columns, character_table, integral_element_of_subset
from .tolerance import GRADING_DIGITS, IDENTITY_SLACK, ROUTE_SLACK, VALUE_SLACK

if TYPE_CHECKING:
    from .analysis import RingAnalysis

__all__ = [
    "SubHypergroup",
    "GradingResult",
    "CentralSeries",
    "generated_sub",
    "kernel_of_character",
    "kernel_of_element",
    "center_of_element",
    "adjoint",
    "adjoint_indices",
    "support",
    "universal_grading",
    "perp",
    "perp_characters",
    "quotient",
    "commutator_sub",
    "commutator_indices",
    "central_series",
    "all_sub_hypergroups",
    "grouplike_indices",
]


@dataclass(frozen=True)
class SubHypergroup:
    indices: tuple
    parent: FusionData

    def __post_init__(self):
        outside = _bad_indices(self.parent.rank, self.indices)
        if outside:
            raise ClosureViolation(
                f"indices {outside} are out of range for rank {self.parent.rank}"
            )
        object.__setattr__(self, "indices", tuple(sorted(set(self.indices) | {0})))

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def __len__(self):
        return len(self.indices)

    @property
    def is_whole(self) -> bool:
        return len(self.indices) == self.parent.rank

    @property
    def is_trivial(self) -> bool:
        return self.indices == (0,)


@dataclass(frozen=True)
class GradingResult:
    components: tuple  # tuple of sorted index tuples
    iso_class: tuple  # invariant factors of the (abelian) grading group

    @property
    def group_order(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class CentralSeries:
    upper: tuple  # SubHypergroup, H = H^(0) >= H^(1) = H_ad >= ...
    lower: tuple  # SubHypergroup, {1} = H_(0) <= H_(1) = H_pt <= ...
    nilpotency_class: int | None


# ---------------------------------------------------------------- supports

def _close(a: RingAnalysis, S: np.ndarray, member: np.ndarray) -> tuple:
    """Smallest index set containing 0 and `member` (a boolean mask) that is
    closed under the involution and under the constituents S of products."""
    inv = np.array(a.data.involution)
    member = member.copy()
    member[0] = True
    while True:
        grown = member | S[np.ix_(member, member)].any(axis=(0, 1))
        grown[inv[grown]] = True
        if (grown == member).all():
            return tuple(np.flatnonzero(member).tolist())
        member = grown


def _self_products(a: RingAnalysis) -> np.ndarray:
    """Row i: the constituents of x_i x_{i*}."""
    return a.support[np.arange(a.data.rank), a.data.involution]


def closure(a: RingAnalysis, seeds) -> tuple:
    """Smallest involution- and product-closed index set containing 0 and seeds."""
    member = np.zeros(a.data.rank, dtype=bool)
    member[list(seeds)] = True
    return _close(a, a.support, member)


def element_support(a: RingAnalysis, x: Element) -> set:
    """Indices of the positive coordinates of a positive-cone element, compared
    with 0 on an exact element and within the analysis tolerance otherwise."""
    thr = 0 if x.is_exact else a.tol.zero(1.0 + float(np.abs(x.float_coords()).max()))
    c = np.array(x.coords, dtype=object)
    neg = np.flatnonzero(c < -thr)
    if len(neg):
        raise NotPositive(f"coordinate {neg[0]} is negative")
    return set(np.flatnonzero(c > thr).tolist())


def generated_sub(a: RingAnalysis, x: Element) -> SubHypergroup:
    """Sub-hypergroup generated by the constituents of a positive-cone element.

    The tests check two laws on it: the Brauer criterion (<x> = H iff
    ker(x) = {FP}) and <P^2> = H_ad."""
    check_length(a.data, x)
    return SubHypergroup(closure(a, element_support(a, x)), a.data)


def _check_sub(a: RingAnalysis, sub: SubHypergroup):
    """Raise ClosureViolation unless `sub` is closed: a sub-hypergroup."""
    got = closure(a, sub.indices)
    if got != sub.indices:
        raise ClosureViolation(f"indices {sub.indices} are not closed (closure {got})")


# ---------------------------------------------------------------- kernels

def kernel_of_character(a: RingAnalysis, j: int) -> SubHypergroup:
    """ker(mu_j) = {i : mu_j(x_i) = FPdim(x_i)}; verified closed.  The indices
    come from the analysis, not the caller, so a kernel that is not closed is
    a failed cross-check."""
    check_indices(a.data, [j])
    idx = np.flatnonzero(a.fp_agreement[:, j]).tolist()
    got = closure(a, idx)
    if list(got) != idx:
        raise CrossCheckFailed(f"kernel: indices {tuple(idx)} are not closed (closure {got})")
    return SubHypergroup(idx, a.data)


def kernel_of_element(a: RingAnalysis, x: Element) -> frozenset:
    """ker(x) = {j : mu_j(x) = FPdim(x)} for x in the positive cone.

    Asserts Lemma-style consistency: the kernel of a positive sum equals the
    intersection of the kernels of its constituents.  The tests check the
    Brauer criterion and ker(I(1)) = the intersection of the Z(x_i) on it.
    """
    check_length(a.data, x)
    xv = x.float_coords()
    fp = float(xv @ a.d)
    vals = xv @ a.table.values
    ker = frozenset(np.flatnonzero(a.tol.agrees(vals, fp)).tolist())
    supp = sorted(element_support(a, x))
    inter = frozenset(np.flatnonzero(a.fp_agreement[supp].all(axis=0)).tolist())
    if supp and inter != ker:
        raise CrossCheckFailed(
            f"kernel: kernel of sum {sorted(ker)} != intersection {sorted(inter)}"
        )
    return ker


def center_of_element(a: RingAnalysis, i: int) -> frozenset:
    """Z(x_i) = {j : |mu_j(x_i)| = FPdim(x_i)}; the tests check
    ker(I(1)) = the intersection of the Z(x_i)."""
    check_indices(a.data, [i])
    return frozenset(np.flatnonzero(a.modulus_agreement[i]).tolist())


# ---------------------------------------------------------------- adjoint

def adjoint_indices(a: RingAnalysis, indices=None) -> tuple:
    """Adjoint of the sub-hypergroup on the closed set `indices` (default: the
    whole ring): generated, inside it, by the constituents of x x* over its
    members x, which are the support of its regular element I(1)."""
    inside = np.ones(a.data.rank, dtype=bool)
    if indices is not None:
        inside[:] = False
        inside[[0, *indices]] = True
    seeds = _self_products(a)[inside].any(axis=0) & inside
    return _close(a, a.support & inside, seeds)


def adjoint(a: RingAnalysis) -> SubHypergroup:
    """H_ad = <I(1)>, with the Prop-6.4 support cross-check J_ad = {j : n_j = FPdim}."""
    ad = SubHypergroup(adjoint_indices(a), a.data)
    by_codegree = frozenset(a.grouplike_chars)
    js = support(a, ad)
    if js != by_codegree:
        raise CrossCheckFailed(f"adjoint: J_ad {sorted(js)} != codegree test {sorted(by_codegree)}")
    return ad


def support(a: RingAnalysis, sub: SubHypergroup) -> frozenset:
    """J_S: characters with mu_j(lambda_S) = 1; verified lambda_S = sum_{J_S} F_j."""
    table, tol = a.table, a.tol
    lam = integral_element_of_subset(a, sub.indices)
    vals = lam.float_coords() @ table.values
    js = frozenset(np.flatnonzero(np.abs(vals - 1.0) <= VALUE_SLACK * tol.zero(1.0)).tolist())
    rebuilt = table.idempotents[sorted(js)].sum(axis=0)
    tol.check(np.abs(rebuilt - lam.float_coords()).max(), IDENTITY_SLACK, 1.0,
              "support: lambda_S != sum of F_j over its support for S = {}", sub.indices)
    return js


# ---------------------------------------------------------------- grading

def grouplike_indices(a: RingAnalysis) -> tuple:
    """Basis elements with x x* supported on the unit alone (Def of grouplike)."""
    xx = _self_products(a)
    unit_only = xx[:, 0] & ~xx[:, 1:].any(axis=1)
    return tuple(np.flatnonzero(unit_only).tolist())


def _abelian_invariants(table: np.ndarray) -> tuple:
    """Invariant factors of an abelian group given by its Cayley table.

    The count c(k) = #{a : a^k = 1} is the product of gcd(k, n_i) over the
    invariant factors n_i, so the largest factor n is the least k >= 1 with
    c(k) = c(0) = |G|; dividing gcd(k, n) out of c(k) leaves the counts of
    the rest."""
    n = table.shape[0]
    powers = [np.zeros(n, dtype=int)]  # powers[k][a]: a^k
    for _ in range(n):
        powers.append(table[powers[-1], np.arange(n)])
    counts = (np.array(powers) == 0).sum(axis=1)
    factors = []
    while counts[0] > 1:
        factors.append(int(np.flatnonzero(counts[1:] == counts[0])[0]) + 1)
        counts //= np.gcd(np.arange(n + 1), factors[-1])
    return tuple(reversed(factors))


def universal_grading(a: RingAnalysis) -> GradingResult:
    """Universal grading from the adjoint-bimodule graph, with spectral cross-checks.

    The combinatorial path (components of the graph with an edge a-b whenever
    some adjoint element s has N_{sa}^b > 0) is authoritative; on abelian data
    the character-side partition and the component count |G(H-hat)| are
    mandatory cross-checks.
    """
    if not a.flags.real_non_negative:
        raise HypergroupError("universal grading needs RN data")
    m = a.data.rank
    S = a.support
    ad = a.adjoint.indices
    # linked[a, b]: x_b is a constituent of s x_a or x_a s for some s in H_ad
    linked = S[list(ad)].any(axis=0) | S[:, list(ad)].any(axis=1)
    # stable labels: component of the unit first, then by smallest member
    label = components(m, *np.nonzero(linked))
    comps = [np.flatnonzero(label == c).tolist() for c in range(label.max() + 1)]
    if tuple(comps[0]) != ad:
        raise CrossCheckFailed(f"grading: identity component {comps[0]} != adjoint {ad}")
    g = len(comps)
    gtable = np.full((g, g), -1, dtype=int)
    for la, comp_a in enumerate(comps):
        for lb, comp_b in enumerate(comps):
            targets = set(label[S[np.ix_(comp_a, comp_b)].any(axis=(0, 1))].tolist())
            if len(targets) != 1:
                raise CrossCheckFailed(
                    f"grading: component product {la} * {lb} spreads over {sorted(targets)}"
                )
            gtable[la, lb] = targets.pop()
    _check_group_table(gtable)

    if a.flags.abelian:
        _grading_spectral_checks(a, comps)

    iso = _abelian_invariants(gtable) if (gtable == gtable.T).all() else ()
    return GradingResult(components=tuple(map(tuple, comps)), iso_class=iso)


def _check_group_table(t: np.ndarray):
    g = t.shape[0]
    if any(t[0, a] != a or t[a, 0] != a for a in range(g)):
        raise CrossCheckFailed("grading: table has no unit")
    for a in range(g):
        if 0 not in t[a, :]:
            raise CrossCheckFailed(f"grading: component {a} has no inverse")
    if (t[t] != t[:, t]).any():
        raise CrossCheckFailed("grading: table not associative")


def _grading_spectral_checks(a: RingAnalysis, components):
    n_h, d, gl_chars = a.n_h, a.d, a.grouplike_chars
    if len(gl_chars) != len(components):
        raise CrossCheckFailed(
            f"grading: |components| = {len(components)} != |G(H-hat)| = {len(gl_chars)}"
        )
    # character-side partition: omega_i = (mu_j(x_i)/d_i)_{j grouplike}
    part_of = {}
    for i, omega in enumerate(np.round(a.normalized[:, list(gl_chars)], GRADING_DIGITS)):
        part_of.setdefault(tuple(omega), []).append(i)
    char_partition = set(map(tuple, part_of.values()))
    comb_partition = {tuple(sorted(c)) for c in components}
    if char_partition != comb_partition:
        raise CrossCheckFailed(
            "grading: character-side partition differs from bimodule components"
        )
    # regular component dimensions: FPdim(R_g) = FPdim(H)/|U|
    h = a.table.h
    share = n_h / len(components)
    for comp in components:
        r = sum(h[i] * d[i] ** 2 for i in comp)
        a.tol.check(abs(r - share), IDENTITY_SLACK, 1.0 + n_h,
                    "grading: FPdim(R_g) = {} != FPdim(H)/|U| = {}", r, share)


# ---------------------------------------------------------------- perp

def perp(a: RingAnalysis, sub: SubHypergroup) -> frozenset:
    """S-perp: characters restricting to FPdim on the sub-hypergroup S (else
    ClosureViolation); biperp must return S."""
    _check_sub(a, sub)
    out = np.flatnonzero(a.fp_agreement[list(sub.indices)].all(axis=0)).tolist()
    back = perp_characters(a, out)
    if back != frozenset(sub.indices):
        raise CrossCheckFailed(
            f"perp: (S-perp)-perp = {sorted(back)} != S = {list(sub.indices)}"
        )
    return frozenset(out)


def perp_characters(a: RingAnalysis, char_indices) -> frozenset:
    """Perp of a set of characters: basis elements where each acts like FPdim."""
    acts = a.fp_agreement[:, list(char_indices)].all(axis=1)
    return frozenset(np.flatnonzero(acts).tolist())


# ---------------------------------------------------------------- quotient

def quotient(a: RingAnalysis, sub: SubHypergroup) -> tuple:
    """H // S on FPdim-normalized representatives.

    Returns (quotient FusionData, classes).  Classes come from the overlap
    relation supp(aS) meets supp(bS); the quotient tensor entry on classes
    [a][b] -> [c] is the sum over w in [c] of the coefficient of w in the
    product of normalized representatives (representative independence is
    asserted).  `sub` must be a sub-hypergroup (else ClosureViolation).  The
    result validates as an ARN hypergroup at the analysis tolerance, and its
    characters are checked to be the restrictions of the S-perp characters
    (Harrison duality).
    """
    data, tol = a.data, a.tol
    if not a.flags.abelian:
        raise NotAbelian("quotients are defined for abelian data")
    if not a.flags.real_non_negative:
        raise HypergroupError("quotients are defined for RN data")
    sperp = perp(a, sub)
    normalized = normalize(data, a.d, tol)

    m = data.rank
    # reach[p, w]: x_w is a constituent of x_p s for some s in S
    reach = _constituents(normalized, tol)[:, list(sub.indices)].any(axis=1)
    meets = np.triu(reach @ reach.T, 1)
    label = components(m, *np.nonzero(meets))
    classes = [tuple(np.flatnonzero(label == c).tolist()) for c in range(label.max() + 1)]

    # sums[p, r, c]: coefficient of class c in x_p x_r; each block of
    # representative pairs must agree with its first pair
    exact = normalized.is_exact
    onehot = np.zeros((m, len(classes)), dtype=object if exact else float)
    onehot[np.arange(m), label] = 1
    sums = normalized.tensor @ onehot
    reps = [cls[0] for cls in classes]
    qt = sums[np.ix_(reps, reps)]
    spread = np.abs(sums - qt[np.ix_(label, label)]).max(axis=2)
    bad = np.argwhere(spread > (0 if exact else VALUE_SLACK * tol.zero(1.0)))
    if len(bad):
        la, lb = min((int(label[p]), int(label[r])) for p, r in bad)
        raise CrossCheckFailed(
            f"quotient: class product [{la}][{lb}] depends on representatives"
        )
    inv = data.involution
    qinv = [label[inv[cls[0]]] for cls in classes]
    result = FusionData(f"{data.name}//{list(sub.indices)}", qinv, qt)
    qflags = result.flags_at(tol)
    if not (qflags.abelian and qflags.real_non_negative):
        raise CrossCheckFailed("quotient: quotient is not an ARN hypergroup")
    _harrison_check(a, sperp, result, classes)
    return result, classes


def _harrison_check(a: RingAnalysis, sperp, quot, classes):
    """Characters of H//S are the restrictions of the S-perp characters."""
    qtable = character_table(quot, tol=a.tol, seed=a.seed)
    reps = [cls[0] for cls in classes]
    # row r: the S-perp character sorted(sperp)[r] on the normalized representatives
    restrictions = a.normalized[np.ix_(reps, sorted(sperp))].T
    matched = _match_columns(
        qtable.values,
        restrictions,
        ROUTE_SLACK * a.tol.zero(1.0),
        lambda r, resid: "quotient: Harrison duality failed:"
        " S-perp restriction is not a quotient character",
    )
    if len(matched) != quot.rank:
        raise CrossCheckFailed("quotient: Harrison duality failed: character counts differ")


# ---------------------------------------------------------------- commutator and series

def commutator_indices(a: RingAnalysis, indices) -> tuple:
    """Closure of the x with supp(x x*) inside `indices`."""
    outside = np.ones(a.data.rank, dtype=bool)
    outside[list(indices)] = False
    seeds = ~(_self_products(a) & outside).any(axis=1)
    return _close(a, a.support, seeds)


def commutator_sub(a: RingAnalysis, sub: SubHypergroup) -> SubHypergroup:
    """S^co: generated by all x with supp(x x*) inside S; the sandwich law
    (S^co)_ad <= S <= (S_ad)^co is asserted.
    The tensor must pass the axioms (else AxiomViolation) and `sub` must be a
    sub-hypergroup (else ClosureViolation)."""
    a.flags
    _check_sub(a, sub)
    co = commutator_indices(a, sub.indices)
    # (S^co)_ad <= S <= (S_ad)^co
    co_ad = adjoint_indices(a, co)
    s_ad = adjoint_indices(a, sub.indices)
    s_ad_co = commutator_indices(a, s_ad)
    if not (set(co_ad) <= set(sub.indices) <= set(s_ad_co)):
        raise CrossCheckFailed(
            f"sandwich: (S^co)_ad = {co_ad}, S = {sub.indices}, (S_ad)^co = {s_ad_co}"
        )
    return SubHypergroup(co, a.data)


def central_series(a: RingAnalysis) -> CentralSeries:
    """Upper series by iterated adjoints, lower by iterated commutators.

    The tensor must pass the axioms (else AxiomViolation), and the two
    characterizations of nilpotency must agree (H^(n) trivial iff H_(n) is
    everything)."""
    a.flags
    m = a.data.rank
    upper = [tuple(range(m))]
    while True:
        nxt = adjoint_indices(a, upper[-1])
        if nxt == upper[-1]:
            break
        upper.append(nxt)
        if nxt == (0,):
            break
    lower = [(0,)]
    while True:
        nxt = commutator_indices(a, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
        if len(nxt) == m:
            break
    cls = None
    if upper[-1] == (0,):
        cls = len(upper) - 1
    lower_cls = None
    if len(lower[-1]) == m:
        lower_cls = len(lower) - 1
    if (cls is None) != (lower_cls is None) or (cls is not None and cls != lower_cls):
        raise CrossCheckFailed(
            f"series: upper series class {cls} vs lower series class {lower_cls}"
        )
    return CentralSeries(
        upper=tuple(SubHypergroup(u, a.data) for u in upper),
        lower=tuple(SubHypergroup(l, a.data) for l in lower),
        nilpotency_class=cls,
    )


def all_sub_hypergroups(a: RingAnalysis) -> list:
    """Every sub-hypergroup, as the join-closure of singleton-generated subs.

    The tests check the join law J_{S v T} = J_S n J_T over its output."""
    gens = {closure(a, [i]) for i in range(a.data.rank)}
    subs = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for s in frontier:
            for t in gens:
                joined = closure(a, set(s) | set(t))
                if joined not in subs:
                    new.add(joined)
        subs |= new
        frontier = new
    return [SubHypergroup(s, a.data) for s in sorted(subs, key=lambda s: (len(s), s))]
