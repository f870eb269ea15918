import ast
import inspect

import numpy as np
import pytest
from fractions import Fraction

import hypergroups as hg
from hypergroups import criteria as cr
from hypergroups.builders import (
    catalog,
    class_hypergroup,
    family_ring,
    fibonacci,
    group_ring,
    near_group,
    rep_ring,
)


def test_prime_factorization():
    assert cr.prime_factorization(798) == {2: 1, 3: 1, 7: 1, 19: 1}
    assert cr.prime_factorization(12) == {2: 2, 3: 1}


def test_burnside_exclusion_group_ring():
    ring = group_ring(catalog("C6"))
    v = cr.burnside_exclusion(hg.RingAnalysis(ring))
    assert v.applicable and not v.excluded


def test_burnside_exclusion_not_applicable_fibonacci(fib_ring):
    v = cr.burnside_exclusion(hg.RingAnalysis(fib_ring))
    assert not v.applicable and not v.excluded


def test_modular_prime_support_family():
    ring = family_ring(2, [2, 2], [3])
    v = cr.modular_prime_support(hg.RingAnalysis(ring))
    assert v.excluded and "prime 3" in v.certificate


def test_modular_prime_support_s3(s3_rep):
    v = cr.modular_prime_support(hg.RingAnalysis(s3_rep))
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


def test_divisibility_ising(ising_ring):
    v = cr.divisibility_test(hg.RingAnalysis(ising_ring))
    assert v.applicable and not v.excluded


def test_divisibility_q8(q8_rep):
    v = cr.divisibility_test(hg.RingAnalysis(q8_rep))
    assert v.applicable and not v.excluded
    assert "= 1" in v.certificate  # (1*1*1*1*2)^2 / FPdim(H_ad) = 4/4


def test_divisibility_not_applicable(s3_rep):
    v = cr.divisibility_test(hg.RingAnalysis(s3_rep))
    assert not v.applicable


def test_near_group_detection(ising_ring, fib_ring):
    assert cr.detect_near_group(hg.RingAnalysis(ising_ring)) == (2, 0)
    assert cr.detect_near_group(hg.RingAnalysis(fib_ring)) == (1, 1)
    assert cr.detect_near_group(hg.RingAnalysis(near_group([3], 3))) == (3, 3)
    assert cr.detect_near_group(hg.RingAnalysis(group_ring(catalog("C4")))) is None


def test_near_group_modular_verdicts(ising_ring, fib_ring):
    k33 = near_group([3], 3)
    v = cr.near_group_modular_test(hg.RingAnalysis(k33))
    assert v.excluded
    assert "|G(H)| = 3" in v.certificate and "|G(H-hat)| = 1" in v.certificate
    for ring in (ising_ring, fib_ring):
        assert not cr.near_group_modular_test(hg.RingAnalysis(ring)).excluded
    ty3 = near_group([3], 0)  # Tambara-Yamagami shape with |G| = 3
    assert cr.near_group_modular_test(hg.RingAnalysis(ty3)).excluded


def test_frobenius(s3_rep):
    v = cr.frobenius_test(hg.RingAnalysis(s3_rep), 1)
    assert v.applicable and not v.excluded and "holds" in v.certificate
    fam = family_ring(2, [2, 2], [3])
    a = hg.RingAnalysis(fam)
    v = cr.frobenius_test(a, Fraction(1, 2))
    assert v.applicable and not v.excluded and "holds" in v.certificate


EXCLUDING_TESTS = [
    cr.burnside_exclusion,
    cr.divisibility_test,
    cr.modular_prime_support,
    cr.squarefree_factor_test,
    cr.near_group_modular_test,
]


@pytest.mark.parametrize("test", EXCLUDING_TESTS, ids=lambda test: test.__name__)
def test_excluding_tests_need_a_fusion_ring(test):
    a = hg.RingAnalysis(class_hypergroup(catalog("S3")))
    with pytest.raises(hg.HypergroupError, match=r"Cl\(S3\): test needs a fusion ring"):
        test(a)


def test_every_exclusion_test_returns_a_verdict_on_every_fusion_ring(full_corpus):
    # a test whose hypotheses fail says so in its verdict; exclusions() lists
    # the same verdicts, leaving out a near-group test that does not apply
    tests = EXCLUDING_TESTS + [
        lambda a: cr.frobenius_test(a, Fraction(1)),
        lambda a: cr.frobenius_test(a, Fraction(1, 2)),
    ]
    extra = [fibonacci(), group_ring(catalog("C4")), near_group([3], 3)]
    for ring in [r for r in full_corpus if r.flags.fusion_ring] + extra:
        a = hg.RingAnalysis(ring)
        verdicts = [test(a) for test in tests]
        assert all(isinstance(v, cr.ExclusionVerdict) for v in verdicts), ring.name
        listed = [v for v in verdicts if v.applicable or v.test_name != "near_group_modular"]
        assert sorted(cr.exclusions(a, True), key=str) == sorted(listed, key=str), ring.name


def test_tests_needing_an_integer_fpdim_do_not_apply_to_fibonacci(fib_ring):
    a = hg.RingAnalysis(fib_ring)
    for v in (
        cr.modular_prime_support(a),
        cr.squarefree_factor_test(a),
        cr.frobenius_test(a, 1),
        cr.frobenius_test(a, "1/2"),
    ):
        assert not v.applicable and not v.excluded
        assert v.certificate == f"Fibonacci: FPdim {a.n_h} is not an integer"


def test_rep_rings_never_excluded_by_ungated_tests(full_corpus):
    # group-derived rings are categorifiable; the non-modular tests must not exclude
    for ring in full_corpus:
        if not ring.name.startswith("K(Rep("):
            continue
        a = hg.RingAnalysis(ring)
        assert not cr.burnside_exclusion(a).excluded, ring.name
        assert not cr.divisibility_test(a).excluded, ring.name


def test_verdicts_deterministic(s3_rep):
    v1 = cr.modular_prime_support(hg.RingAnalysis(s3_rep))
    v2 = cr.modular_prime_support(hg.RingAnalysis(s3_rep))
    assert v1 == v2


def test_criteria_reads_no_float_snap():
    # every integrality verdict rests on the analysis's exact certificates
    # (exact_d, dim_squares, exact_fp), never on a snap of its own
    tree = ast.parse(inspect.getsource(cr))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"snap_value", "snap_array", "snap"}
