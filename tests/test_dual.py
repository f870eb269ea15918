import math
from dataclasses import replace

import numpy as np
import pytest

import hypergroups as hg
from hypergroups.builders import catalog, class_hypergroup, group_ring, rep_ring
from hypergroups.dual import augmentation_index, match_dual_characters
from hypergroups.errors import CrossCheckFailed, NotNormalizable
from conftest import PHI


def test_z2_self_dual(z2_ring):
    t = hg.character_table(z2_ring)
    dd = hg.dual_hypergroup(z2_ring, t)
    assert dd.base.rank == 2
    # self-dual up to normalization: the dual of Z[Z2] is the Z[Z2] hypergroup
    assert np.allclose(dd.base.float_tensor(), z2_ring.float_tensor())
    assert list(dd.orders_hat) == [1.0, 1.0]


def test_dual_needs_a_nonvanishing_character(s3_rep, s3_table):
    vanishing = next(
        j for j in range(3) if (np.abs(s3_table.values[:, j]) < 1e-9).any()
    )
    with pytest.raises(NotNormalizable):
        hg.dual_hypergroup(s3_rep, s3_table, vanishing)


def test_s3_dual_is_class_hypergroup(s3_rep, s3_table):
    dd = hg.dual_hypergroup(s3_rep, s3_table)
    assert sorted(np.round(dd.orders_hat, 8)) == [1.0, 2.0, 3.0]
    fl = dd.base.flags
    assert fl.real_non_negative and fl.rational and fl.h_integral
    # it is the normalized class hypergroup of S3, up to basis order
    cl = class_hypergroup(catalog("S3"))
    assert sorted(float(h) for h in hg.orders(cl)) == [1.0, 2.0, 3.0]


def test_ising_dual(ising_ring, ising_table):
    dd = hg.dual_hypergroup(ising_ring, ising_table)
    assert sorted(np.round(dd.orders_hat, 8)) == [1.0, 1.0, 2.0]
    fl = dd.base.flags
    assert fl.real_non_negative and fl.rational and fl.h_integral


def test_fibonacci_dual_not_h_integral(fib_ring, fib_table):
    dd = hg.dual_hypergroup(fib_ring, fib_table)
    fl = dd.base.flags
    assert fl.real_non_negative
    assert not fl.h_integral
    expected = (1 + PHI**2) / (1 + PHI**-2)
    assert any(abs(h - expected) < 1e-8 for h in dd.orders_hat)


def test_z3_dual_all_flags():
    ring = group_ring(catalog("C3"))
    t = hg.character_table(ring)
    fl = hg.dual_hypergroup(ring, t).base.flags
    assert fl.real_non_negative and fl.rational and fl.h_integral


def test_dual_codegrees(ising_ring, z2_ring, s3_rep):
    nhat = hg.dual_codegrees(hg.RingAnalysis(ising_ring))
    assert sorted(np.round(nhat, 8)) == [2.0, 4.0, 4.0]
    nhat = hg.dual_codegrees(hg.RingAnalysis(z2_ring))
    assert list(np.round(nhat, 8)) == [2.0, 2.0]
    nhat = hg.dual_codegrees(hg.RingAnalysis(s3_rep))
    assert sorted(np.round(nhat, 8)) == [1.5, 6.0, 6.0]


def test_dual_order_equals_primal_order(corpus_with_tables):
    for ring, table in corpus_with_tables:
        dd = hg.dual_hypergroup(ring, table)
        n = hg.order(table)
        assert abs(dd.orders_hat.sum() - n) < 1e-8, ring.name
        assert np.abs(dd.orders_hat - n / table.codegrees).max() < 1e-8, ring.name


def test_dual_is_normalized(corpus_with_tables):
    for ring, table in corpus_with_tables[:10]:
        dd = hg.dual_hypergroup(ring, table)
        sums = dd.base.float_tensor().sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-8, ring.name


def test_dual_idempotent_pairing(ising_ring, ising_table):
    # <E-hat_i, x_j/d_j> = delta_ij via the dual table alignment
    dd = hg.dual_hypergroup(ising_ring, ising_table)
    dual_table = hg.character_table(dd.base)
    match = match_dual_characters(dd, ising_table, dual_table)
    d = ising_table.fp_dims()
    m = ising_ring.rank
    for i in range(m):
        ehat = dual_table.idempotents[match[i]]  # coords over dual basis mu_j
        for j in range(m):
            val = sum(
                ehat[pos] * ising_table.values[j, dd.char_order[pos]] / d[j]
                for pos in range(m)
            )
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-9


def test_double_dual_everywhere(full_corpus):
    for ring in full_corpus:
        perm = hg.double_dual_check(hg.RingAnalysis(ring))
        assert sorted(perm) == list(range(ring.rank)), ring.name


def test_augmentation_index(ising_ring, ising_table):
    dd = hg.dual_hypergroup(ising_ring, ising_table)
    dt = hg.character_table(dd.base)
    j = augmentation_index(dt)
    assert np.abs(dt.values[:, j] - 1.0).max() < 1e-9


def test_augmentation_index_rejects_a_table_without_an_all_ones_column(
    ising_ring, ising_table
):
    dt = hg.character_table(hg.dual_hypergroup(ising_ring, ising_table).base)
    values = dt.values.copy()
    values[1, augmentation_index(dt)] += 1e-3
    with pytest.raises(NotNormalizable):
        augmentation_index(replace(dt, values=values))


def test_match_dual_characters_rejects_a_corrupted_primal_value(ising_ring, ising_table):
    dd = hg.dual_hypergroup(ising_ring, ising_table)
    values = ising_table.values.copy()
    values[1, next(j for j in range(3) if j != dd.mu1)] += 0.1
    with pytest.raises(CrossCheckFailed, match="cannot align dual character"):
        match_dual_characters(dd, replace(ising_table, values=values), hg.character_table(dd.base))
