"""Categorification exclusion tests for candidate fusion rings.

Each test returns an ExclusionVerdict: whether its hypotheses apply to the
ring, whether the ring is excluded, and a human-readable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import exact_det
from .analysis import RingAnalysis
from .core import FusionData
from .errors import HypergroupError, NotApplicable, NotNearGroup, NotWeaklyIntegral
from .structure import grouplike_indices
from .tolerance import DEFAULT_TOL, Tolerance, snap_value

__all__ = [
    "ExclusionVerdict",
    "exclusions",
    "burnside_exclusion",
    "modular_prime_support",
    "squarefree_factor_test",
    "divisibility_test",
    "near_group_modular_test",
    "frobenius_test",
    "is_frobenius",
    "prime_factorization",
    "detect_near_group",
]


@dataclass(frozen=True)
class ExclusionVerdict:
    test_name: str
    applicable: bool
    excluded: bool
    certificate: str

    def __post_init__(self):
        if self.excluded and not self.applicable:
            raise ValueError("excluded implies applicable")


def prime_factorization(n: int) -> dict:
    n = int(n)
    if n <= 0:
        raise ValueError("need a positive integer")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def exclusions(a: RingAnalysis, dual_h_integral: bool, modular_candidate: bool) -> list:
    """The exclusion tests an analysis runs on a fusion ring; the modular-only
    tests run when the ring is asserted to be a modular candidate."""
    verdicts = [burnside_exclusion(a, dual_h_integral), divisibility_test(a)]
    verdicts += [frobenius_test(a, Fraction(alpha)) for alpha in (1, "1/2")]
    if modular_candidate:
        for name, test in (
            ("modular_prime_support", modular_prime_support),
            ("squarefree_factor", squarefree_factor_test),
        ):
            try:
                verdicts.append(test(a))
            except NotWeaklyIntegral as exc:
                verdicts.append(ExclusionVerdict(name, False, False, str(exc)))
        try:
            verdicts.append(near_group_modular_test(a))
        except NotNearGroup:
            pass
    return verdicts


def _require_fusion_ring(data: FusionData, tol: Tolerance):
    if not data.flags_at(tol).fusion_ring:
        raise HypergroupError(f"{data.name}: test needs a fusion ring")


def _integer_order(a: RingAnalysis) -> int:
    snapped = snap_value(a.n_h, a.tol)
    if not isinstance(snapped, int):
        raise NotWeaklyIntegral(f"{a.data.name}: FPdim {a.n_h} is not an integer")
    return snapped


def _integer_dim_squares(a: RingAnalysis) -> list[int] | None:
    out = []
    for x in a.d:
        s = snap_value(float(x) ** 2, a.tol)
        if not isinstance(s, int):
            return None
        out.append(s)
    return out


def burnside_exclusion(a: RingAnalysis, dual_h_integral: bool) -> ExclusionVerdict:
    """Weakly-integral fusion rings with h-integral dual must be Burnside."""
    _require_fusion_ring(a.data, a.tol)
    weakly_integral = isinstance(snap_value(a.n_h, a.tol), int)
    applicable = bool(weakly_integral and dual_h_integral)
    if not applicable:
        return ExclusionVerdict(
            "burnside",
            False,
            False,
            f"not applicable (weakly integral: {weakly_integral}, h-integral dual: {dual_h_integral})",
        )
    burn, witness = a.burnside
    if burn:
        return ExclusionVerdict("burnside", True, False, "ring is Burnside")
    det = exact_det(a.data.left_matrix(witness)) if a.data.is_exact else None
    cert = (
        f"basis element {witness} of FPdim {a.d[witness]:.6g} is non-vanishing "
        f"(det L = {det}) but not grouplike"
    )
    return ExclusionVerdict("burnside", True, True, cert)


def modular_prime_support(a: RingAnalysis) -> ExclusionVerdict:
    """Modular candidates obey V(FPdim) = V(|G(H)|) u V(d_i^2)."""
    _require_fusion_ring(a.data, a.tol)
    n = _integer_order(a)
    d_sq = _integer_dim_squares(a)
    if d_sq is None:
        return ExclusionVerdict(
            "modular_prime_support", False, False, "some d_i^2 is not an integer"
        )
    g_count = len(a.grouplikes)
    for p in sorted(prime_factorization(n)):
        if g_count % p != 0 and all(sq % p != 0 for sq in d_sq):
            return ExclusionVerdict(
                "modular_prime_support",
                True,
                True,
                f"prime {p} divides FPdim {n} but neither |G(H)| = {g_count} nor any d_i^2",
            )
    return ExclusionVerdict(
        "modular_prime_support", True, False, f"every prime of {n} is covered"
    )


def squarefree_factor_test(a: RingAnalysis) -> ExclusionVerdict:
    """Square-free part test: the largest square-free divisor d of FPdim coprime
    to FPdim/d and to every d_i^2 must divide |G(H)|; perfect rings must have
    no powerless prime at all."""
    _require_fusion_ring(a.data, a.tol)
    n = _integer_order(a)
    d_sq = _integer_dim_squares(a)
    if d_sq is None:
        return ExclusionVerdict(
            "squarefree_factor", False, False, "some d_i^2 is not an integer"
        )
    factors = prime_factorization(n)
    powerless = [p for p, e in factors.items() if e == 1]
    valid = [p for p in powerless if all(sq % p != 0 for sq in d_sq)]
    d = 1
    for p in valid:
        d *= p
    g_count = len(a.grouplikes)
    perfect = g_count == 1
    if perfect and powerless:
        return ExclusionVerdict(
            "squarefree_factor",
            True,
            True,
            f"perfect ring with powerless prime(s) {powerless} in FPdim {n}",
        )
    if d > 1 and g_count % d != 0:
        alts = sorted(valid)
        return ExclusionVerdict(
            "squarefree_factor",
            True,
            True,
            f"square-free factor d = {d} (valid primes {alts}) does not divide |G(H)| = {g_count}",
        )
    return ExclusionVerdict(
        "squarefree_factor", True, False, f"d = {d} divides |G(H)| = {g_count}"
    )


def divisibility_test(a: RingAnalysis) -> ExclusionVerdict:
    """For dual-Burnside rings (prod d_i)^2 / FPdim(H_ad) must be an integer;
    nilpotent rings additionally need V(FPdim(H_ad)) = u V(d_i^2)."""
    dual_burn, _ = a.dual_burnside
    if not dual_burn:
        return ExclusionVerdict(
            "divisibility", False, False, "not applicable (ring is not dual-Burnside)"
        )
    d = a.d
    fp_ad = float(sum(a.table.h[i] * d[i] ** 2 for i in a.adjoint.indices))
    ratio = float(np.prod(d)) ** 2 / fp_ad
    snapped = snap_value(ratio, a.tol)
    if not isinstance(snapped, int):
        return ExclusionVerdict(
            "divisibility",
            True,
            True,
            f"(prod d_i)^2 / FPdim(H_ad) = {ratio:.9g} is not an integer",
        )
    cls = a.series.nilpotency_class
    if cls is not None and a.flags.fusion_ring:
        d_sq = _integer_dim_squares(a)
        fp_ad_int = snap_value(fp_ad, a.tol)
        if d_sq is not None and isinstance(fp_ad_int, int):
            lhs = set(prime_factorization(fp_ad_int)) if fp_ad_int > 1 else set()
            rhs = set()
            for sq in d_sq:
                if sq > 1:
                    rhs |= set(prime_factorization(sq))
            if lhs != rhs:
                return ExclusionVerdict(
                    "divisibility",
                    True,
                    True,
                    f"nilpotent ring with V(FPdim(H_ad)) = {sorted(lhs)} != u V(d_i^2) = {sorted(rhs)}",
                )
    return ExclusionVerdict(
        "divisibility", True, False, f"(prod d_i)^2 / FPdim(H_ad) = {snapped}"
    )


def detect_near_group(data: FusionData, tol: Tolerance = DEFAULT_TOL):
    """(group_size, m) when the ring is K(G, m): one non-invertible rho absorbed
    by every grouplike, with rho^2 = sum_G g + m rho."""
    _require_fusion_ring(data, tol)
    g = grouplike_indices(data, tol)
    non = [i for i in range(data.rank) if i not in set(g)]
    if len(non) != 1:
        raise NotNearGroup(f"{data.name}: {len(non)} non-invertible basis elements")
    rho = non[0]
    S = data.support_at(tol)
    only_rho = np.zeros(data.rank, dtype=bool)
    only_rho[rho] = True
    for i in g:
        if not ((S[i, rho] == only_rho).all() and (S[rho, i] == only_rho).all()):
            raise NotNearGroup(f"{data.name}: grouplike {i} does not absorb rho")
        if data.tensor[i, rho, rho] != 1:
            raise NotNearGroup(f"{data.name}: grouplike action on rho not multiplicity-free")
    for i in g:
        if data.tensor[rho, rho, i] != 1:
            raise NotNearGroup(f"{data.name}: rho^2 misses a grouplike")
    m = int(data.tensor[rho, rho, rho])
    return len(g), m


def near_group_modular_test(a: RingAnalysis) -> ExclusionVerdict:
    """Modular near-group screening: K(G, m) cannot be modular when G is
    non-trivial with m > 0, nor when m = 0 and |G| is not 1 or 2."""
    g_size, m = detect_near_group(a.data, a.tol)
    excluded = (g_size > 1 and m > 0) or (m == 0 and g_size not in (1, 2))
    g_hat = len(a.grouplike_chars)
    cert = f"K(G,m) with |G| = {g_size}, m = {m}; |G(H)| = {g_size} vs |G(H-hat)| = {g_hat}"
    return ExclusionVerdict("near_group_modular", True, excluded, cert)


def is_frobenius(a: RingAnalysis, alpha) -> bool:
    """FPdim(H)^alpha / d_i is an algebraic integer for every i.

    alpha = 1 needs an integral ring and checks FPdim / d_i in Z;
    alpha = 1/2 checks FPdim / d_i^2 in Z (the usual half-Frobenius reading
    on integral data).
    """
    n = _integer_order(a)
    alpha = Fraction(alpha)
    if alpha == 1:
        dims = [snap_value(float(x), a.tol) for x in a.d]
        if any(not isinstance(x, int) for x in dims):
            raise NotApplicable("alpha = 1 needs integral dimensions")
        return all(n % x == 0 for x in dims)
    if alpha == Fraction(1, 2):
        d_sq = _integer_dim_squares(a)
        if d_sq is None:
            raise NotApplicable("alpha = 1/2 needs integral d_i^2")
        return all(n % sq == 0 for sq in d_sq)
    raise NotApplicable(f"unsupported alpha {alpha}")


def frobenius_test(a: RingAnalysis, alpha) -> ExclusionVerdict:
    """Report of the alpha-Frobenius property (informational, never excluding)."""
    try:
        ok = is_frobenius(a, alpha)
    except (NotApplicable, NotWeaklyIntegral) as exc:
        return ExclusionVerdict(f"frobenius({alpha})", False, False, str(exc))
    word = "holds" if ok else "fails"
    return ExclusionVerdict(
        f"frobenius({alpha})", True, False, f"{alpha}-Frobenius property {word}"
    )
