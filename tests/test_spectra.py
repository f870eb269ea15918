import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import spectra
from hypergroups.builders import catalog, catalog_names, class_hypergroup, group_ring, rep_ring
from hypergroups.errors import (
    InexactTensor,
    NotAbelian,
    NotNormalizable,
)
from hypergroups.tolerance import snap_value
from conftest import PHI, SQRT2, match_columns, s3_indices


def oracle_ising_columns():
    # mu(g) = +-1 and mu(rho)^2 = 1 + mu(g); g and rho rows in basis order (1, g, rho)
    cols = []
    for g in (1.0, -1.0):
        disc = 1.0 + g
        if disc > 0:
            for r in (math.sqrt(disc), -math.sqrt(disc)):
                cols.append((1.0, g, r))
        else:
            cols.append((1.0, g, 0.0))
    return cols


def oracle_s3_columns():
    # mu(s)^2 = 1, mu(s)mu(t) = mu(t), mu(t)^2 = 1 + mu(s) + mu(t)
    cols = []
    for s in (1.0, -1.0):
        if s == 1.0:
            # t^2 - t - 2 = 0
            for t in (2.0, -1.0):
                cols.append((1.0, s, t))
        else:
            cols.append((1.0, s, 0.0))
    return cols


def test_character_table_z2(z2_ring):
    t = hg.character_table(z2_ring)
    assert match_columns(t.values, [(1, 1), (1, -1)])


def test_character_table_s3(s3_rep, s3_table):
    s, tt = s3_indices(s3_rep)
    perm = [0, s, tt]  # reorder rows to (1, s, t) to match the oracle
    assert match_columns(s3_table.values[perm, :], oracle_s3_columns())


def test_character_table_ising(ising_table):
    assert match_columns(ising_table.values, oracle_ising_columns())


def test_character_table_rejects_nonabelian():
    ring = group_ring(catalog("S3"))
    with pytest.raises(NotAbelian):
        hg.character_table(ring)


def test_fp_character_examples(ising_table, s3_table, z2_ring):
    assert ising_table.fp_index == 0
    assert sorted(np.round(ising_table.fp_dims(), 6)) == [1.0, 1.0, round(SQRT2, 6)]
    d = sorted(np.round(s3_table.fp_dims(), 6))
    assert d == [1.0, 1.0, 2.0]
    t = hg.character_table(z2_ring)
    assert list(np.round(t.fp_dims(), 9)) == [1.0, 1.0]


def test_fp_character_no_positive_column():
    # sign-rescaled Z[Z3]: y y = -y^2, no character column stays positive
    data = hg.rescale(group_ring(catalog("C3")), [1, -1, -1])
    assert not data.flags.real_non_negative
    table = hg.character_table(data)
    with pytest.raises(NotNormalizable, match="no strictly positive character column"):
        hg.fp_character(table)


def test_fp_character_multiple_positive_guard(ising_table):
    from dataclasses import replace

    fake = replace(ising_table, positive_columns=(0, 1))
    with pytest.raises(NotNormalizable, match=r"positive columns \[0, 1\]"):
        hg.fp_character(fake)


def test_codegrees_examples(s3_table, ising_table, fib_table):
    assert sorted(np.round(s3_table.codegrees, 8)) == [2.0, 3.0, 6.0]
    assert sorted(np.round(ising_table.codegrees, 8)) == [2.0, 4.0, 4.0]
    expected = sorted([1 + PHI**2, 1 + PHI**-2])
    assert np.allclose(sorted(fib_table.codegrees), expected)


def test_formal_codegrees_cross_check(s3_rep, s3_table):
    assert np.allclose(sorted(s3_table.codegrees), [2, 3, 6])


def test_order_examples(z2_ring, ising_ring, ising_table, fib_ring, fib_table):
    t = hg.character_table(z2_ring)
    assert abs(hg.order(t) - 2) < 1e-12
    assert abs(hg.order(ising_table) - 4) < 1e-10
    assert abs(hg.order(fib_table) - (5 + math.sqrt(5)) / 2) < 1e-10


def test_order_needs_nonvanishing(s3_rep, s3_table):
    # d_t = 2.5e-9 is positive beyond tol.zero(1) = 2e-9, but zero within
    # tol.zero(1 + max |d|) = 3e-9, the scale of the vanishing test
    s, t = s3_indices(s3_rep)
    values = s3_table.values.copy()
    values[t, 0] = 2.5e-9
    tiny = replace(s3_table, values=values)
    assert spectra._positive_columns(values, s3_table.tol) == [0] == list(tiny.positive_columns)
    with pytest.raises(NotNormalizable, match="character 0 vanishes on a basis element"):
        hg.order(tiny)


def test_integral_element(z2_ring, ising_ring, s3_rep):
    lam = hg.integral_element(hg.RingAnalysis(z2_ring))
    assert np.allclose(lam.float_coords(), [0.5, 0.5])
    lam = hg.integral_element(hg.RingAnalysis(ising_ring))
    assert np.allclose(lam.float_coords(), [0.25, 0.25, SQRT2 / 4])
    s, tt = s3_indices(s3_rep)
    lam = hg.integral_element(hg.RingAnalysis(s3_rep))
    expected = np.zeros(3)
    expected[0] = 1 / 6
    expected[s] = 1 / 6
    expected[tt] = 2 / 6
    assert np.allclose(lam.float_coords(), expected)


def test_snap():
    assert snap_value(3.9999999997) == 4
    assert snap_value(0.49999999991) == Fraction(1, 2)
    out = snap_value(PHI**2)
    assert isinstance(out, float)


def test_verify_integer_fpdim(ising_ring, s3_rep):
    def verify(ring, candidate):
        return hg.verify_fp_value(ring, hg.regular_element(ring).coords, candidate)

    assert verify(ising_ring, 4)
    assert verify(s3_rep, 6)
    assert not verify(s3_rep, 5)
    # rational tensors: FPdim of a class hypergroup is |G|
    for name, order in (("S3", 6), ("A4", 12)):
        cl = class_hypergroup(catalog(name))
        assert verify(cl, order)
        assert not verify(cl, order - 1)
    floaty = hg.FusionData(
        "f", [0, 1], np.array([1.0, 0, 0, 1, 0, 1, 1, 0]).reshape(2, 2, 2)
    )
    with pytest.raises(InexactTensor):
        verify(floaty, 2)


def test_verify_fp_value_of_dim_squares(ising_ring):
    # x_s x_s = 1 + psi in Ising: FP value d_s^2 = 2, and 3 is no eigenvalue
    row = list(ising_ring.tensor[2, 2])
    assert hg.verify_fp_value(ising_ring, row, 2)
    assert not hg.verify_fp_value(ising_ring, row, 3)
    # 0 is an eigenvalue of L_{1 + psi} but not its Perron value
    assert not hg.verify_fp_value(ising_ring, row, 0)


def test_second_orthogonality(corpus_with_tables):
    for ring, table in corpus_with_tables:
        inv = list(ring.involution)
        lhs = np.einsum("ij,lj,j->il", table.values, table.values.conj(), 1.0 / table.codegrees)
        target = np.diag(1.0 / table.h)
        assert np.abs(lhs - target).max() < 1e-9, ring.name


def test_dual_bases_identity(corpus_with_tables):
    # sum_i h_i x_i (x) x_{i*} = sum_j n_j F_j (x) F_j
    for ring, table in corpus_with_tables[:12]:
        m = ring.rank
        inv = list(ring.involution)
        lhs = np.zeros((m, m), dtype=complex)
        for i in range(m):
            lhs[i, inv[i]] += table.h[i]
        F = table.idempotents
        rhs = np.einsum("j,ja,jb->ab", table.codegrees.astype(complex), F, F)
        assert np.abs(lhs - rhs).max() < 1e-9, ring.name


def test_value_bound_and_codegree_bound(corpus_with_tables):
    # |mu_j(x_i)| <= d_i and n_j <= n(H), equality iff grouplike character
    for ring, table in corpus_with_tables:
        if table.fp_index is None:
            continue
        d = table.fp_dims()
        assert (np.abs(table.values) <= d[:, None] + 1e-9).all(), ring.name
        n_h = hg.order(table)
        assert (table.codegrees <= n_h + 1e-8).all(), ring.name
        gl = set(hg.RingAnalysis(ring).grouplike_chars)
        for j in range(ring.rank):
            is_max = abs(table.codegrees[j] - n_h) < 1e-8
            assert is_max == (j in gl), ring.name


def test_codegrees_invariant_under_rescale(ising_ring, ising_table, s3_rep, s3_table):
    rng = np.random.default_rng(3)
    for ring, table in ((ising_ring, ising_table), (s3_rep, s3_table)):
        base = sorted(table.codegrees)
        for _ in range(5):
            alphas = [1.0] + [float(rng.uniform(0.5, 2.0)) for _ in range(ring.rank - 1)]
            re = hg.rescale(ring, alphas)
            tab = hg.character_table(re)
            assert np.allclose(sorted(tab.codegrees), base, atol=1e-8)


def test_rep_ring_codegrees_equal_centralizer_orders():
    # oracle: centralizer orders computed by brute force from the Cayley table
    for name in catalog_names():
        g = catalog(name)
        ring = rep_ring(g)
        table = hg.character_table(ring)
        reps = [cls[0] for cls in g.conjugacy_classes()]
        oracle = sorted(g.centralizer_order(r) for r in reps)
        got = sorted(snap_value(float(x)) for x in table.codegrees)
        assert got == oracle, name


def test_character_table_deterministic(s3_rep):
    t1 = hg.character_table(s3_rep, seed=0)
    t2 = hg.character_table(s3_rep, seed=0)
    assert (t1.values == t2.values).all()
