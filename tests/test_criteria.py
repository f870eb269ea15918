import numpy as np
import pytest
from fractions import Fraction

import hypergroups as hg
from hypergroups import criteria as cr
from hypergroups.builders import (
    catalog,
    family_ring,
    group_ring,
    near_group,
    rep_ring,
)
from hypergroups.errors import NotNearGroup


def _table(ring):
    return hg.character_table(ring)


def test_prime_factorization():
    assert cr.prime_factorization(798) == {2: 1, 3: 1, 7: 1, 19: 1}
    assert cr.prime_factorization(12) == {2: 2, 3: 1}


def test_burnside_exclusion_group_ring():
    ring = group_ring(catalog("C6"))
    v = cr.burnside_exclusion(hg.RingAnalysis(ring), dual_h_integral=True)
    assert v.applicable and not v.excluded


def test_burnside_exclusion_not_applicable_fibonacci(fib_ring, fib_table):
    v = cr.burnside_exclusion(
        hg.RingAnalysis(fib_ring, table=fib_table), dual_h_integral=False
    )
    assert not v.applicable and not v.excluded


def test_modular_prime_support_family():
    ring = family_ring(2, [2, 2], [3])
    v = cr.modular_prime_support(hg.RingAnalysis(ring))
    assert v.excluded and "prime 3" in v.certificate


def test_modular_prime_support_s3(s3_rep, s3_table):
    v = cr.modular_prime_support(hg.RingAnalysis(s3_rep, table=s3_table))
    assert v.excluded and "prime 3" in v.certificate


def test_modular_prime_support_pointed_ok():
    ring = group_ring(catalog("C6"))
    v = cr.modular_prime_support(hg.RingAnalysis(ring))
    assert v.applicable and not v.excluded


def test_squarefree_factor_family():
    ring = family_ring(2, [2, 2], [3])
    v = cr.squarefree_factor_test(hg.RingAnalysis(ring))
    assert v.excluded and "d = 3" in v.certificate


def test_squarefree_factor_perfect_ring():
    # Rep(A5) as a ring is perfect (no nontrivial grouplikes); FPdim 60 = 2^2*3*5
    # has powerless primes, so no modular categorification
    ring = rep_ring(catalog("A5"))
    v = cr.squarefree_factor_test(hg.RingAnalysis(ring))
    assert v.excluded and "perfect" in v.certificate


def test_squarefree_factor_group_ring_ok():
    ring = group_ring(catalog("C6"))
    v = cr.squarefree_factor_test(hg.RingAnalysis(ring))
    assert not v.excluded


def test_divisibility_ising(ising_ring, ising_table):
    v = cr.divisibility_test(hg.RingAnalysis(ising_ring, table=ising_table))
    assert v.applicable and not v.excluded


def test_divisibility_q8(q8_rep, q8_table):
    v = cr.divisibility_test(hg.RingAnalysis(q8_rep, table=q8_table))
    assert v.applicable and not v.excluded
    assert "= 1" in v.certificate  # (1*1*1*1*2)^2 / FPdim(H_ad) = 4/4


def test_divisibility_not_applicable(s3_rep, s3_table):
    v = cr.divisibility_test(hg.RingAnalysis(s3_rep, table=s3_table))
    assert not v.applicable


def test_near_group_detection(ising_ring, fib_ring):
    assert cr.detect_near_group(ising_ring) == (2, 0)
    assert cr.detect_near_group(fib_ring) == (1, 1)
    assert cr.detect_near_group(near_group([3], 3)) == (3, 3)
    with pytest.raises(NotNearGroup):
        cr.detect_near_group(group_ring(catalog("C4")))


def test_near_group_modular_verdicts(ising_ring, ising_table, fib_ring, fib_table):
    k33 = near_group([3], 3)
    v = cr.near_group_modular_test(hg.RingAnalysis(k33))
    assert v.excluded
    assert "|G(H)| = 3" in v.certificate and "|G(H-hat)| = 1" in v.certificate
    for ring, table in ((ising_ring, ising_table), (fib_ring, fib_table)):
        assert not cr.near_group_modular_test(hg.RingAnalysis(ring, table=table)).excluded
    ty3 = near_group([3], 0)  # Tambara-Yamagami shape with |G| = 3
    assert cr.near_group_modular_test(hg.RingAnalysis(ty3)).excluded


def test_frobenius(s3_rep, s3_table):
    assert cr.is_frobenius(hg.RingAnalysis(s3_rep, table=s3_table), 1)
    fam = family_ring(2, [2, 2], [3])
    t = _table(fam)
    a = hg.RingAnalysis(fam)
    assert cr.is_frobenius(a, Fraction(1, 2))
    v = cr.frobenius_test(a, Fraction(1, 2))
    assert v.applicable and not v.excluded and "holds" in v.certificate


def test_rep_rings_never_excluded_by_ungated_tests(corpus_with_tables):
    # group-derived rings are categorifiable; the non-modular tests must not exclude
    for ring, table in corpus_with_tables:
        if not ring.name.startswith("K(Rep("):
            continue
        dd = hg.dual_hypergroup(ring, table)
        h_int = hg.dual_flags(dd).h_integral
        a = hg.RingAnalysis(ring, table=table)
        assert not cr.burnside_exclusion(a, h_int).excluded, ring.name
        assert not cr.divisibility_test(a).excluded, ring.name


def test_verdicts_deterministic(s3_rep):
    t1 = _table(s3_rep)
    t2 = _table(s3_rep)
    v1 = cr.modular_prime_support(hg.RingAnalysis(s3_rep, table=t1))
    v2 = cr.modular_prime_support(hg.RingAnalysis(s3_rep, table=t2))
    assert v1 == v2
