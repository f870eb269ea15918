import numpy as np
import pytest

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups.builders import catalog, class_hypergroup, group_ring, near_group, rep_ring
from hypergroups.errors import ExactNumericDisagreement
from conftest import NILPOTENT_CATALOG, s3_indices


def test_grouplike_elements_examples(ising_ring, ising_table, s3_rep, s3_table):
    z4 = group_ring(catalog("C4"))
    t4 = hg.character_table(z4)
    assert hg.RingAnalysis(z4, table=t4).grouplikes == (0, 1, 2, 3)
    assert hg.RingAnalysis(ising_ring, table=ising_table).grouplikes == (0, 1)
    s, _ = s3_indices(s3_rep)
    assert hg.RingAnalysis(s3_rep, table=s3_table).grouplikes == (0, s)


def test_vanishing_elements(s3_rep, s3_table, fib_ring, fib_table):
    _, t = s3_indices(s3_rep)
    assert bn.vanishing_elements(s3_rep, s3_table) == (t,)
    assert bn.vanishing_elements(fib_ring, fib_table) == ()
    z6 = group_ring(catalog("C6"))
    assert bn.vanishing_elements(z6, hg.character_table(z6)) == ()


def test_exact_numeric_agreement_enforced(s3_rep, s3_table):
    # with an absurdly loose tolerance the numeric path flags everything as
    # vanishing while the exact determinants do not; the run must abort
    from hypergroups.tolerance import Tolerance

    loose = Tolerance(abs=10.0, rel=10.0)
    with pytest.raises(ExactNumericDisagreement):
        bn.vanishing_elements(s3_rep, s3_table, loose)


def test_is_burnside(s3_rep, s3_table, fib_ring, fib_table):
    assert hg.RingAnalysis(s3_rep, table=s3_table).burnside == (True, None)
    verdict, witness = hg.RingAnalysis(fib_ring, table=fib_table).burnside
    assert not verdict and witness == 1


def test_grouplike_characters(ising_ring, ising_table, s3_table, s3_rep, q8_rep, q8_table):
    assert len(hg.RingAnalysis(ising_ring, table=ising_table).grouplike_chars) == 2
    assert hg.RingAnalysis(s3_rep, table=s3_table).grouplike_chars == (0,)
    assert len(hg.RingAnalysis(q8_rep, table=q8_table).grouplike_chars) == 2


def test_is_dual_burnside(ising_ring, ising_table, s3_rep, s3_table):
    assert hg.RingAnalysis(ising_ring, table=ising_table).dual_burnside == (True, None)
    verdict, witness = hg.RingAnalysis(s3_rep, table=s3_table).dual_burnside
    assert not verdict
    # the witness is the (1,1,-1) column: zero-free but codegree 3 < 6
    col = s3_table.values[:, witness]
    assert (np.abs(col) > 1e-8).all()
    assert abs(s3_table.codegrees[witness] - 3) < 1e-8


def test_sl23_dual_burnside():
    ring = rep_ring(catalog("SL(2,3)"))
    table = hg.character_table(ring)
    assert hg.RingAnalysis(ring, table=table).dual_burnside[0]


def test_product_P(q8_rep, q8_table, z2_ring, s3_rep, s3_table):
    # Q8: invertibles multiply to 1, so P = t/2 and P^2 = (1+a+b+ab)/4
    P = bn.product_P(q8_rep, q8_table)
    d = q8_table.fp_dims()
    tq = int(np.argmax(d))
    expected = np.zeros(5)
    expected[tq] = 0.5
    assert np.allclose(P.float_coords(), expected)
    P2 = hg.multiply(q8_rep, P, P)
    gl = hg.RingAnalysis(q8_rep, table=q8_table).grouplikes
    expected2 = np.array([0.25 if i in gl else 0.0 for i in range(5)])
    assert np.allclose(P2.float_coords(), expected2)

    t = hg.character_table(z2_ring)
    assert np.allclose(bn.product_P(z2_ring, t).float_coords(), [0, 1])

    # S3: s t = t, so P = t/2
    s, tt = s3_indices(s3_rep)
    P = bn.product_P(s3_rep, s3_table)
    expected = np.zeros(3)
    expected[tt] = 0.5
    assert np.allclose(P.float_coords(), expected)


def test_product_P_exact_for_integral_rings(q8_rep, q8_table):
    P = bn.product_P(q8_rep, q8_table)
    assert P.is_exact


def test_phat_values_against_determinants(s3_rep, s3_table):
    bn.product_Phat_values(s3_rep, s3_table)  # raises CrossCheckFailed on mismatch


def test_product_phat_in_dual(q8_rep, q8_table, fib_ring, fib_table):
    # Q8 is Burnside: P-hat^2 must be the sum of the grouplike dual idempotents,
    # i.e. P-hat evaluates to +-1 exactly on the grouplikes
    dd = hg.dual_hypergroup(q8_rep, q8_table)
    phat = bn.product_Phat(q8_rep, q8_table, dd)
    assert len(phat) == q8_rep.rank
    vals = bn.phat_values(q8_table)
    gl = set(hg.RingAnalysis(q8_rep, table=q8_table).grouplikes)
    for i in range(q8_rep.rank):
        if i in gl:
            assert abs(abs(vals[i]) - 1) < 1e-9
        else:
            assert abs(vals[i]) < 1e-9
    # and Prop 4.2 via dual determinants: mu_j(P) = det of dual left multiplication
    ddf = hg.dual_hypergroup(fib_ring, fib_table)
    L = ddf.base.left_matrices_float()
    pv = bn.p_values(fib_table)
    for pos in range(ddf.rank):
        det = np.linalg.det(L[pos])
        j = ddf.char_order[pos]
        assert abs(det - pv[j]) < 1e-8


def test_sgn_examples(z2_ring, s3_rep, s3_table, ising_ring, ising_table):
    t = hg.character_table(z2_ring)
    el, ch = bn.sgn_values(hg.RingAnalysis(z2_ring, table=t))
    assert el[0] == 1 and el[1] == -1
    s, _ = s3_indices(s3_rep)
    el, ch = bn.sgn_values(hg.RingAnalysis(s3_rep, table=s3_table))
    assert el[0] == 1 and el[s] == -1
    el, ch = bn.sgn_values(hg.RingAnalysis(ising_ring, table=ising_table))
    assert set(el.values()) <= {1, -1} and set(ch.values()) <= {1, -1}


def test_phat_bound_equality_iff_grouplike(corpus_with_tables):
    for ring, table in corpus_with_tables:
        vals = np.abs(bn.phat_values(table))
        assert (vals <= 1 + 1e-8).all(), ring.name
        a = hg.RingAnalysis(ring, table=table)
        for i in range(ring.rank):
            assert (abs(vals[i] - 1) < 1e-8) == (i in a.grouplikes), ring.name
        mu_vals = np.abs(bn.p_values(table))
        glc = set(a.grouplike_chars)
        for j in range(ring.rank):
            assert (abs(mu_vals[j] - 1) < 1e-8) == (j in glc), ring.name


def test_grouplike_character_products_permute(q8_rep, q8_table):
    # mu grouplike, mu * mu_k matches a unique character column
    d = q8_table.fp_dims()
    norm = q8_table.values / d[:, None]
    for j in hg.RingAnalysis(q8_rep, table=q8_table).grouplike_chars:
        seen = set()
        for k in range(q8_rep.rank):
            prod = norm[:, j] * q8_table.values[:, k]
            diffs = np.abs(q8_table.values.T - prod[None, :]).max(axis=1)
            l = int(np.argmin(diffs))
            assert diffs[l] < 1e-8
            seen.add(l)
        assert seen == set(range(q8_rep.rank))


def test_identity_checks_examples(q8_rep, q8_table, ising_ring, ising_table, fib_ring, fib_table):
    checks = bn.identity_checks(hg.RingAnalysis(q8_rep, table=q8_table))
    assert checks["p_sq_vs_adjoint_integral"] < 1e-9  # Eq (9.10) both sides
    checks = bn.identity_checks(hg.RingAnalysis(ising_ring, table=ising_table))
    assert checks["p4_minus_p2"] < 1e-9
    checks = bn.identity_checks(hg.RingAnalysis(fib_ring, table=fib_table))
    assert checks["phat4_minus_phat2"] >= 1e-4


def test_nilpotent_corpus_is_burnside_and_dual(corpus_with_tables):
    for ring, table in corpus_with_tables:
        from hypergroups.structure import is_nilpotent

        if is_nilpotent(ring) is not None:
            a = hg.RingAnalysis(ring, table=table)
            assert a.burnside[0] and a.dual_burnside[0], ring.name


def test_hypothesis_report(fib_ring, fib_table):
    rep = bn.burnside_hypothesis_report(
        hg.RingAnalysis(fib_ring, table=fib_table), dual_h_integral=False
    )
    assert not rep["weakly_integral"]
    assert rep["obstruction"] is None


def test_obstruction_flagged_for_qualifying_failure(s3_rep, s3_table):
    # S3 is Burnside, so no obstruction; force the hypothetical branch shape
    rep = bn.burnside_hypothesis_report(
        hg.RingAnalysis(s3_rep, table=s3_table), dual_h_integral=True
    )
    assert rep["burnside"] and rep["obstruction"] is None


def test_burnside_report_assembly(ising_ring, ising_table):
    rep = bn.burnside_report(hg.RingAnalysis(ising_ring, table=ising_table), dual_h_integral=True)
    assert rep.is_burnside and rep.is_dual_burnside
    assert rep.grouplike_closure_ok
    assert set(rep.vanishing_elements) | set(rep.nonvanishing) == {0, 1, 2}
    assert set(rep.grouplike_elements) <= set(rep.nonvanishing)
