import math

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import galois as ga
from hypergroups.builders import catalog, catalog_names, class_hypergroup, group_ring, rep_ring
from hypergroups.errors import HypergroupError
from conftest import PHI


def test_orbits_s3_all_singletons(s3_rep, s3_table):
    part = ga.galois_orbits(hg.RingAnalysis(s3_rep, table=s3_table))
    assert part.orbits == ((0,), (1,), (2,))
    assert all(part.rational_mask)


def test_orbits_fibonacci(fib_ring, fib_table):
    part = ga.galois_orbits(hg.RingAnalysis(fib_ring, table=fib_table))
    assert part.orbits == ((0, 1),)
    assert not any(part.rational_mask)
    # symmetric functions: sum of roots 1, product -1 at rho
    rho_vals = fib_table.values[1, :]
    assert abs(rho_vals.sum() - 1) < 1e-9
    assert abs(rho_vals.prod() + 1) < 1e-9


def test_orbits_ising(ising_ring, ising_table):
    part = ga.galois_orbits(hg.RingAnalysis(ising_ring, table=ising_table))
    paired = next(o for o in part.orbits if len(o) == 2)
    single = next(o for o in part.orbits if len(o) == 1)
    # the +-sqrt(2) columns pair up; the (1,-1,0) column is rational
    assert abs(ising_table.values[2, paired[0]] + ising_table.values[2, paired[1]]) < 1e-9
    assert abs(ising_table.values[2, single[0]]) < 1e-9


def test_orbits_rejects_irrational_tensor(fib_ring, fib_table):
    floaty = hg.FusionData(
        "irr", [0, 1], [[[1.0, 0], [0, 1]], [[0, 1], [1, math.sqrt(2)]]]
    )
    table = hg.character_table(floaty)
    with pytest.raises(HypergroupError):
        ga.galois_orbits(hg.RingAnalysis(floaty, table=table))


def test_singleton_orbits_are_exactly_rational_characters(corpus_with_tables):
    for ring, table in corpus_with_tables:
        if not ring.flags.rational:
            continue
        part = ga.galois_orbits(hg.RingAnalysis(ring, table=table))
        for orb in part.orbits:
            if len(orb) == 1:
                assert part.rational_mask[orb[0]], ring.name
            else:
                assert not any(part.rational_mask[j] for j in orb), ring.name


def test_rep_ring_orbit_polynomials_integer(corpus_with_tables):
    # character values of Rep-rings are algebraic integers: certificates snap to ints
    for ring, table in corpus_with_tables:
        if not ring.name.startswith("K(Rep("):
            continue
        part = ga.galois_orbits(hg.RingAnalysis(ring, table=table))
        for orb, resid in part.certificates.items():
            assert resid < 1e-7, (ring.name, orb)


def test_codegree_conjugation(fib_ring, fib_table, ising_ring, ising_table):
    fib = hg.RingAnalysis(fib_ring, table=fib_table)
    report = ga.check_codegree_conjugation(fib, ga.galois_orbits(fib))
    # n1 * n2 = (1 + phi^2)(1 + phi^-2) = 5
    prod = fib_table.codegrees.prod()
    assert abs(prod - 5) < 1e-8
    ising = hg.RingAnalysis(ising_ring, table=ising_table)
    part = ga.galois_orbits(ising)
    report = ga.check_codegree_conjugation(ising, part)
    paired = next(o for o in part.orbits if len(o) == 2)
    assert report[paired]["dual_order_spread"] < 1e-9


def test_weak_integrality_examples(s3_rep, s3_table, ising_ring, ising_table, fib_ring, fib_table):
    assert ga.weak_integrality(hg.RingAnalysis(s3_rep, table=s3_table)) == "integral"
    assert ga.weak_integrality(hg.RingAnalysis(ising_ring, table=ising_table)) == "weakly_integral"
    assert ga.weak_integrality(hg.RingAnalysis(fib_ring, table=fib_table)) == "irrational"


def test_weak_integrality_theorem_guard(corpus_with_tables):
    # rational + RN + dual-Burnside implies at least weakly rational
    for ring, table in corpus_with_tables:
        if table.fp_index is None:
            continue
        a = hg.RingAnalysis(ring, table=table)
        dual_burn, _ = a.dual_burnside
        verdict = ga.weak_integrality(a)
        if dual_burn and ring.flags.rational and ring.flags.real_non_negative:
            assert verdict in ("integral", "weakly_integral", "weakly_rational"), ring.name


def test_h_integral_dual_order_sum(corpus_with_tables):
    for ring, table in corpus_with_tables:
        dd = hg.dual_hypergroup(ring, table)
        if not dd.base.flags.h_integral:
            continue
        total = hg.snap(float(dd.orders_hat.sum()))
        assert isinstance(total, int), ring.name
        assert abs(total - hg.order(table)) < 1e-8, ring.name


def test_fp_singleton_orbit_iff_rational_fpdim(corpus_with_tables):
    for ring, table in corpus_with_tables:
        if not ring.flags.rational or table.fp_index is None:
            continue
        part = ga.galois_orbits(hg.RingAnalysis(ring, table=table))
        n_h = hg.order(table)
        fp_rational = not isinstance(hg.snap(n_h), float)
        fp_orbit = part.orbit_of(table.fp_index)
        # rational FPdim iff the FP character is fixed by the Galois action
        if len(fp_orbit) == 1:
            assert fp_rational, ring.name
        if fp_rational and part.rational_mask[table.fp_index]:
            assert len(fp_orbit) == 1, ring.name
