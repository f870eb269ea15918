"""Categorification exclusion tests for candidate fusion rings.

Each test returns an ExclusionVerdict: whether its hypotheses apply to the
ring, whether the ring is excluded, and a human-readable certificate.  A test
whose hypotheses fail says so in its verdict and never raises; only a ring
that is not a fusion ring, passed to a test that needs one, raises
HypergroupError.  Every
integrality the tests decide (FPdim, d_i, d_i^2, FPdim(H_ad)) is read from the
analysis's exact certificates `fpdim`, `exact_d`, `dim_squares` and
`exact_fp`; this module snaps no float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import exact_det
from .analysis import RingAnalysis
from .core import prime_factorization, regular_element
from .errors import HypergroupError
from .structure import grouplike_indices

__all__ = [
    "ExclusionVerdict",
    "exclusions",
    "burnside_exclusion",
    "modular_prime_support",
    "squarefree_factor_test",
    "divisibility_test",
    "near_group_modular_test",
    "frobenius_test",
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


def exclusions(a: RingAnalysis, modular_candidate: bool) -> list:
    """The exclusion tests an analysis runs on a fusion ring; the modular-only
    tests run when the ring is asserted to be a modular candidate."""
    verdicts = [burnside_exclusion(a), divisibility_test(a)]
    verdicts += [frobenius_test(a, Fraction(alpha)) for alpha in (1, "1/2")]
    if modular_candidate:
        verdicts += [modular_prime_support(a), squarefree_factor_test(a)]
        near_group = near_group_modular_test(a)
        if near_group.applicable:
            verdicts.append(near_group)
    return verdicts


def _require_fusion_ring(a: RingAnalysis):
    if not a.flags.fusion_ring:
        raise HypergroupError(f"{a.data.name}: test needs a fusion ring")


def _fpdim_not_integer(name: str, a: RingAnalysis) -> ExclusionVerdict:
    """The verdict of a test that needs an integer FPdim on a ring without one."""
    return ExclusionVerdict(name, False, False, f"{a.data.name}: FPdim {a.n_h} is not an integer")


def _integers(values) -> bool:
    return all(isinstance(x, int) for x in values)


def burnside_exclusion(a: RingAnalysis) -> ExclusionVerdict:
    """Weakly-integral fusion rings with h-integral dual must be Burnside
    (the paper's categorification criterion): a ring that meets both
    hypotheses and is not Burnside is excluded.  This is the one place the
    obstruction is decided; the report's note reads this verdict."""
    _require_fusion_ring(a)
    weakly_integral, dual_h_integral = isinstance(a.fpdim, int), a.dual.flags.h_integral
    if not (weakly_integral and dual_h_integral):
        return ExclusionVerdict(
            "burnside",
            False,
            False,
            f"not applicable (weakly integral: {weakly_integral}, h-integral dual: {dual_h_integral})",
        )
    burn, witness = a.burnside
    if burn:
        return ExclusionVerdict("burnside", True, False, "ring is Burnside")
    # a fusion ring has L = 1, so det C_i = det L_{x_i}
    det = exact_det(a.data.integer_tensor()[1][witness])
    cert = (
        f"basis element {witness} of FPdim {a.d[witness]:.6g} is non-vanishing "
        f"(det L = {det}) but not grouplike"
    )
    return ExclusionVerdict("burnside", True, True, cert)


def modular_prime_support(a: RingAnalysis) -> ExclusionVerdict:
    """Modular candidates obey V(FPdim) = V(|G(H)|) u V(d_i^2)."""
    _require_fusion_ring(a)
    if not isinstance(a.fpdim, int):
        return _fpdim_not_integer("modular_prime_support", a)
    n = a.fpdim
    d_sq = a.dim_squares
    if not _integers(d_sq):
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
    _require_fusion_ring(a)
    if not isinstance(a.fpdim, int):
        return _fpdim_not_integer("squarefree_factor", a)
    n = a.fpdim
    d_sq = a.dim_squares
    if not _integers(d_sq):
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
    _require_fusion_ring(a)
    dual_burn, _ = a.dual_burnside
    if not dual_burn:
        return ExclusionVerdict(
            "divisibility", False, False, "not applicable (ring is not dual-Burnside)"
        )
    fp_ad = a.exact_fp(regular_element(a.data, a.adjoint.indices).coords)
    d_sq = a.dim_squares
    if not any(isinstance(x, float) for x in d_sq + [fp_ad]):
        ratio = Fraction(math.prod(d_sq)) / fp_ad
        integral = ratio.denominator == 1
    else:
        ratio, integral = float(np.prod(a.d)) ** 2 / float(fp_ad), False
    if not integral:
        return ExclusionVerdict(
            "divisibility",
            True,
            True,
            f"(prod d_i)^2 / FPdim(H_ad) = {float(ratio):.9g} is not an integer",
        )
    cls = a.series.nilpotency_class
    if cls is not None and _integers(d_sq + [fp_ad]):
        lhs = set(prime_factorization(fp_ad)) if fp_ad > 1 else set()
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
        "divisibility", True, False, f"(prod d_i)^2 / FPdim(H_ad) = {ratio}"
    )


def detect_near_group(a: RingAnalysis):
    """(group_size, m) when the ring is K(G, m): one non-invertible rho absorbed
    by every grouplike, with rho^2 = sum_G g + m rho; None when it is not.
    It reads the tensor and `support` only, never the character table."""
    _require_fusion_ring(a)
    data = a.data
    g = grouplike_indices(a)
    non = [i for i in range(data.rank) if i not in set(g)]
    if len(non) != 1:
        return None
    rho = non[0]
    S = a.support
    only_rho = np.zeros(data.rank, dtype=bool)
    only_rho[rho] = True
    for i in g:
        if not ((S[i, rho] == only_rho).all() and (S[rho, i] == only_rho).all()):
            return None
        if data.tensor[i, rho, rho] != 1 or data.tensor[rho, rho, i] != 1:
            return None
    m = int(data.tensor[rho, rho, rho])
    return len(g), m


def near_group_modular_test(a: RingAnalysis) -> ExclusionVerdict:
    """Modular near-group screening: K(G, m) cannot be modular when G is
    non-trivial with m > 0, nor when m = 0 and |G| is not 1 or 2."""
    shape = detect_near_group(a)
    if shape is None:
        return ExclusionVerdict(
            "near_group_modular", False, False, f"{a.data.name}: not a near-group ring K(G, m)"
        )
    g_size, m = shape
    excluded = (g_size > 1 and m > 0) or (m == 0 and g_size not in (1, 2))
    g_hat = len(a.grouplike_chars)
    cert = f"K(G,m) with |G| = {g_size}, m = {m}; |G(H)| = {g_size} vs |G(H-hat)| = {g_hat}"
    return ExclusionVerdict("near_group_modular", True, excluded, cert)


def frobenius_test(a: RingAnalysis, alpha) -> ExclusionVerdict:
    """Whether FPdim(H)^alpha / d_i is an algebraic integer for every i
    (informational, never excluding).

    alpha = 1 needs an integral ring and checks FPdim / d_i in Z;
    alpha = 1/2 checks FPdim / d_i^2 in Z (the usual half-Frobenius reading
    on integral data).
    """
    name = f"frobenius({alpha})"
    if not isinstance(a.fpdim, int):
        return _fpdim_not_integer(name, a)
    exponent = Fraction(alpha)
    if exponent == 1:
        divisors, need = a.exact_d, "alpha = 1 needs integral dimensions"
    elif exponent == Fraction(1, 2):
        divisors, need = a.dim_squares, "alpha = 1/2 needs integral d_i^2"
    else:
        return ExclusionVerdict(name, False, False, f"unsupported alpha {exponent}")
    if divisors is None or not _integers(divisors):
        return ExclusionVerdict(name, False, False, need)
    word = "holds" if all(a.fpdim % x == 0 for x in divisors) else "fails"
    return ExclusionVerdict(name, True, False, f"{alpha}-Frobenius property {word}")
