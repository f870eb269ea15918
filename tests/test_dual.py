import inspect
import pathlib
from dataclasses import replace

import numpy as np
import pytest

import hypergroups as hg
from hypergroups.builders import catalog, class_hypergroup, corpus, group_ring, near_group
from hypergroups.errors import CrossCheckFailed
from hypergroups.spectra import _match_columns
from hypergroups.tolerance import IDENTITY_SLACK, ROUTE_SLACK, VALUE_SLACK
from conftest import PHI
from test_golden import NEAR_GROUPS


def test_z2_self_dual(z2_ring):
    a = hg.RingAnalysis(z2_ring)
    dual = hg.dual_hypergroup(a)
    assert dual.rank == 2
    # self-dual up to normalization: the dual of Z[Z2] is the Z[Z2] hypergroup
    assert np.allclose(dual.float_tensor(), z2_ring.float_tensor())
    assert list(a.orders_hat) == [1.0, 1.0]


def test_s3_dual_is_class_hypergroup(s3_rep):
    a = hg.RingAnalysis(s3_rep)
    assert sorted(np.round(a.orders_hat, 8)) == [1.0, 2.0, 3.0]
    fl = a.dual.flags
    assert fl.real_non_negative and fl.rational and fl.h_integral
    # it is the normalized class hypergroup of S3, up to basis order
    cl = class_hypergroup(catalog("S3"))
    assert sorted(float(h) for h in hg.orders(cl)) == [1.0, 2.0, 3.0]


def test_ising_dual(ising_ring):
    a = hg.RingAnalysis(ising_ring)
    assert sorted(np.round(a.orders_hat, 8)) == [1.0, 1.0, 2.0]
    fl = a.dual.flags
    assert fl.real_non_negative and fl.rational and fl.h_integral


def test_fibonacci_dual_not_h_integral(fib_ring):
    a = hg.RingAnalysis(fib_ring)
    fl = a.dual.flags
    assert fl.real_non_negative
    assert not fl.h_integral
    expected = (1 + PHI**2) / (1 + PHI**-2)
    assert any(abs(h - expected) < 1e-8 for h in a.orders_hat)


def test_z3_dual_all_flags():
    ring = group_ring(catalog("C3"))
    fl = hg.dual_hypergroup(hg.RingAnalysis(ring)).flags
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
        a = hg.RingAnalysis(ring)
        n = hg.order(table)
        assert abs(a.orders_hat.sum() - n) < 1e-8, ring.name
        assert np.abs(a.orders_hat - n / table.codegrees).max() < 1e-8, ring.name


def test_dual_is_normalized(corpus_with_tables):
    for ring, _ in corpus_with_tables[:10]:
        dual = hg.dual_hypergroup(hg.RingAnalysis(ring))
        sums = dual.float_tensor().sum(axis=2)
        assert np.abs(sums - 1.0).max() < 1e-8, ring.name


def test_dual_idempotent_pairing(ising_ring):
    # <E-hat_i, x_j/d_j> = delta_ij via the dual table alignment
    a = hg.RingAnalysis(ising_ring)
    d = a.table.fp_dims()
    m = ising_ring.rank
    for i in range(m):
        ehat = a.dual.table.idempotents[a.dual_match[i]]  # coords over dual basis mu_j
        for j in range(m):
            val = sum(
                ehat[pos] * a.table.values[j, pos] / d[j]
                for pos in range(m)
            )
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-9


def test_double_dual_everywhere(full_corpus):
    for ring in full_corpus:
        a = hg.RingAnalysis(ring)
        assert hg.double_dual_check(a) is None
        # the basis map the check matched the double dual through
        assert sorted(a.dual_match.tolist()) == list(range(ring.rank)), ring.name


def _invariant_rings():
    return corpus() + [near_group(orders, m) for orders in NEAR_GROUPS for m in range(6)]


def test_the_dual_is_built_at_column_0_and_its_fp_column_is_all_ones():
    """Dual basis element j is table column j, so the FP column 0 is the
    dual's unit and the dual's own FP column, its all-ones column, is
    column 0 of the dual's table: no index map between them."""
    rings = _invariant_rings()
    assert len(rings) == 39 + 96
    for ring in rings:
        a = hg.RingAnalysis(ring)
        assert a.table.fp_index == 0, ring.name
        dual = a.dual.data.float_tensor()
        assert np.abs(dual[0] - np.eye(ring.rank)).max() <= VALUE_SLACK * a.tol.zero(1.0), ring.name
        assert a.dual.table.positive_columns == (0,), ring.name
        ones = np.abs(a.dual.table.values[:, 0] - 1.0).max()
        assert ones <= VALUE_SLACK * a.tol.zero(1.0), ring.name
        assert a.dual_match[0] == 0, ring.name
        # dual character dual_match[i] at dual element j is mu_j(x_i) / d_i
        aligned = np.abs(a.dual.table.values[:, a.dual_match] - a.normalized.T).max()
        assert aligned <= ROUTE_SLACK * a.tol.zero(1.0 + np.abs(a.normalized).max()), ring.name


def test_the_dual_is_a_ring_under_analysis():
    a = hg.RingAnalysis(near_group([2], 1), hg.Tolerance(abs=1e-8, rel=1e-8), seed=7)
    assert isinstance(a.dual, hg.RingAnalysis)
    assert (a.dual.tol, a.dual.seed) == (a.tol, a.seed)
    assert a.dual.data.name == "dual(K(C2,1))"
    # the double dual is the dual's dual, built once and cached
    assert a.dual.dual is a.dual.dual
    assert a.dual.dual.data.rank == a.data.rank


def test_orders_hat_agree_with_the_dual_rings_own_orders():
    """h-hat_j = n(H)/n_j (Lemma 2.6) is the order of dual basis element j."""
    for ring in _invariant_rings():
        a = hg.RingAnalysis(ring)
        resid = np.abs(a.orders_hat - a.dual.table.h).max()
        assert resid <= IDENTITY_SLACK * a.tol.zero(1.0 + a.n_h), ring.name


@pytest.mark.xfail(strict=True, reason=(
    "K(C1,8) has d = 4 + sqrt(17); its dual entry 1/d^2 = 0.01515499506 is "
    "irrational but lies 8.0e-10 from 66/4355, under tol.zero = 1e-9, so the "
    "whole dual snaps to an exact rational ring (ROADMAP items 7 and 9)"))
def test_an_irrational_dual_does_not_snap_to_an_exact_ring():
    assert not hg.RingAnalysis(near_group([], 8)).dual.data.is_exact


def test_the_dual_takes_no_character_argument():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(hg.dual_hypergroup) == ["a"]
    assert params(hg.order) == ["table"]
    assert params(_match_columns) == ["values", "vecs", "thr", "message"]
    assert not hasattr(hg.RingAnalysis, "fp")
    assert not hasattr(hg, "DualData")
    assert not hasattr(hg.RingAnalysis, "dual_flags")
    assert not hasattr(hg.RingAnalysis, "dual_table")
    root = pathlib.Path(__file__).resolve().parent.parent
    texts = [p.read_text() for p in [root / "README.md", *(root / "src").rglob("*.py"),
                                     *(root / "demos").glob("*.py")]]
    for name in ("augmentation_index", "match_dual_characters", "char_order", "col_to_pos"):
        assert not any(name in text for text in texts), name


def test_match_dual_characters_rejects_a_corrupted_primal_value(ising_ring, ising_table):
    # RingAnalysis.dual_match aligns the dual built from the true table
    # against the rows of a corrupted one
    a = hg.RingAnalysis(ising_ring)
    a.dual.table
    values = ising_table.values.copy()
    values[1, 1] += 0.1
    a.table = replace(ising_table, values=values)
    with pytest.raises(CrossCheckFailed, match="cannot align dual character"):
        a.dual_match
