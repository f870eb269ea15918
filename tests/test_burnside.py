from dataclasses import replace

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups import report as report_module
from hypergroups.builders import catalog, class_hypergroup, group_ring, near_group, rep_ring
from hypergroups.criteria import burnside_exclusion
from hypergroups.errors import CrossCheckFailed, HypergroupError
from hypergroups.report import analyze
from conftest import NILPOTENT_CATALOG, s3_indices
from test_golden import NEAR_GROUPS


def test_grouplike_elements_examples(ising_ring, s3_rep):
    z4 = group_ring(catalog("C4"))
    assert hg.RingAnalysis(z4).grouplikes == (0, 1, 2, 3)
    assert hg.RingAnalysis(ising_ring).grouplikes == (0, 1)
    s, _ = s3_indices(s3_rep)
    assert hg.RingAnalysis(s3_rep).grouplikes == (0, s)


def test_vanishing_elements(s3_rep, fib_ring):
    _, t = s3_indices(s3_rep)
    assert bn.vanishing_elements(hg.RingAnalysis(s3_rep)) == (t,)
    assert bn.vanishing_elements(hg.RingAnalysis(fib_ring)) == ()
    z6 = group_ring(catalog("C6"))
    assert bn.vanishing_elements(hg.RingAnalysis(z6)) == ()


def test_exact_numeric_agreement_enforced(s3_rep):
    # with an absurdly loose tolerance the numeric path flags everything as
    # vanishing while the exact determinants do not; the run must abort
    from hypergroups.tolerance import Tolerance

    loose = Tolerance(abs=10.0, rel=10.0)
    with pytest.raises(CrossCheckFailed, match="vanishing: x_.*: exact det .* vs numeric vanishing yes"):
        bn.vanishing_elements(hg.RingAnalysis(s3_rep, loose))


def test_is_burnside(s3_rep, fib_ring):
    assert hg.RingAnalysis(s3_rep).burnside == (True, None)
    verdict, witness = hg.RingAnalysis(fib_ring).burnside
    assert not verdict and witness == 1


def test_grouplike_characters(ising_ring, s3_rep, q8_rep):
    assert len(hg.RingAnalysis(ising_ring).grouplike_chars) == 2
    assert hg.RingAnalysis(s3_rep).grouplike_chars == (0,)
    assert len(hg.RingAnalysis(q8_rep).grouplike_chars) == 2


def test_is_dual_burnside(ising_ring, s3_rep, s3_table):
    assert hg.RingAnalysis(ising_ring).dual_burnside == (True, None)
    verdict, witness = hg.RingAnalysis(s3_rep).dual_burnside
    assert not verdict
    # the witness is the (1,1,-1) column: zero-free but codegree 3 < 6
    col = s3_table.values[:, witness]
    assert (np.abs(col) > 1e-8).all()
    assert abs(s3_table.codegrees[witness] - 3) < 1e-8


def test_sl23_dual_burnside():
    ring = rep_ring(catalog("SL(2,3)"))
    table = hg.character_table(ring)
    assert hg.RingAnalysis(ring).dual_burnside[0]


def test_product_P(q8_rep, q8_table, z2_ring, s3_rep):
    # Q8: invertibles multiply to 1, so P = t/2 and P^2 = (1+a+b+ab)/4
    P = bn.product_P(hg.RingAnalysis(q8_rep))
    d = q8_table.fp_dims()
    tq = int(np.argmax(d))
    expected = np.zeros(5)
    expected[tq] = 0.5
    assert np.allclose(P.float_coords(), expected)
    P2 = hg.multiply(q8_rep, P, P)
    gl = hg.RingAnalysis(q8_rep).grouplikes
    expected2 = np.array([0.25 if i in gl else 0.0 for i in range(5)])
    assert np.allclose(P2.float_coords(), expected2)

    assert np.allclose(bn.product_P(hg.RingAnalysis(z2_ring)).float_coords(), [0, 1])

    # S3: s t = t, so P = t/2
    s, tt = s3_indices(s3_rep)
    P = bn.product_P(hg.RingAnalysis(s3_rep))
    expected = np.zeros(3)
    expected[tt] = 0.5
    assert np.allclose(P.float_coords(), expected)


def test_product_P_exact_for_integral_rings(q8_rep):
    P = bn.product_P(hg.RingAnalysis(q8_rep))
    assert P.is_exact


def test_phat_values_against_determinants(full_corpus):
    # Prop 4.1: P-hat(x_i/d_i) = det(L_i/d_i)
    for ring in full_corpus:
        a = hg.RingAnalysis(ring)
        if a.table.fp_index is None:
            continue
        vals, L = bn.phat_values(a), ring.left_matrices_float()
        for i in range(ring.rank):
            det = np.linalg.det(L[i] / a.d[i])
            assert abs(det - vals[i]) <= 1e-8 * (1 + abs(det)), (ring.name, i)


def test_product_phat_in_dual(q8_rep, fib_ring):
    # Q8 is Burnside: P-hat^2 must be the sum of the grouplike dual idempotents,
    # i.e. P-hat evaluates to +-1 exactly on the grouplikes
    q8 = hg.RingAnalysis(q8_rep)
    vals = bn.phat_values(q8)
    assert len(vals) == q8_rep.rank
    gl = set(q8.grouplikes)
    for i in range(q8_rep.rank):
        if i in gl:
            assert abs(abs(vals[i]) - 1) < 1e-9
        else:
            assert abs(vals[i]) < 1e-9
    # and Prop 4.2 via dual determinants: mu_j(P) = det of dual left multiplication
    fib = hg.RingAnalysis(fib_ring)
    ddf = fib.dual.data
    L = ddf.left_matrices_float()
    pv = bn.p_values(fib)
    for pos in range(ddf.rank):
        det = np.linalg.det(L[pos])
        j = pos  # dual basis element j is character column j
        assert abs(det - pv[j]) < 1e-8


def test_sgn_examples(z2_ring, s3_rep, ising_ring):
    el, ch = bn.sgn_values(hg.RingAnalysis(z2_ring))
    assert el[0] == 1 and el[1] == -1
    s, _ = s3_indices(s3_rep)
    el, ch = bn.sgn_values(hg.RingAnalysis(s3_rep))
    assert el[0] == 1 and el[s] == -1
    el, ch = bn.sgn_values(hg.RingAnalysis(ising_ring))
    assert set(el.values()) <= {1, -1} and set(ch.values()) <= {1, -1}


def test_sgn_values_rejects_a_product_that_is_no_character(ising_ring, ising_table):
    # Ising: the grouplike character (1, 1, -sqrt2) times mu_k = (1, -1, 0)
    # must be a column again; corrupt mu_k at the non-grouplike sigma
    k = int(np.argmin(ising_table.codegrees))
    values = ising_table.values.copy()
    values[2, k] = 0.5
    a = hg.RingAnalysis(ising_ring)
    a.table = replace(ising_table, values=values)
    with pytest.raises(CrossCheckFailed, match="is not a character"):
        bn.sgn_values(a)


def test_phat_bound_equality_iff_grouplike(full_corpus):
    for ring in full_corpus:
        a = hg.RingAnalysis(ring)
        vals = np.abs(bn.phat_values(a))
        assert (vals <= 1 + 1e-8).all(), ring.name
        for i in range(ring.rank):
            assert (abs(vals[i] - 1) < 1e-8) == (i in a.grouplikes), ring.name
        mu_vals = np.abs(bn.p_values(a))
        glc = set(a.grouplike_chars)
        for j in range(ring.rank):
            assert (abs(mu_vals[j] - 1) < 1e-8) == (j in glc), ring.name


def test_grouplike_character_products_permute(q8_rep, q8_table):
    # mu grouplike, mu * mu_k matches a unique character column
    d = q8_table.fp_dims()
    norm = q8_table.values / d[:, None]
    for j in hg.RingAnalysis(q8_rep).grouplike_chars:
        seen = set()
        for k in range(q8_rep.rank):
            prod = norm[:, j] * q8_table.values[:, k]
            diffs = np.abs(q8_table.values.T - prod[None, :]).max(axis=1)
            l = int(np.argmin(diffs))
            assert diffs[l] < 1e-8
            seen.add(l)
        assert seen == set(range(q8_rep.rank))


def test_identity_checks_examples(q8_rep, ising_ring, fib_ring):
    checks = bn.identity_checks(hg.RingAnalysis(q8_rep))
    assert checks["p_sq_vs_adjoint_integral"] < 1e-9  # Eq (9.10) both sides
    checks = bn.identity_checks(hg.RingAnalysis(ising_ring))
    assert checks["p4_minus_p2"] < 1e-9
    checks = bn.identity_checks(hg.RingAnalysis(fib_ring))
    assert checks["phat4_minus_phat2"] >= 1e-4


def test_nilpotent_corpus_is_burnside_and_dual(full_corpus):
    for ring in full_corpus:
        a = hg.RingAnalysis(ring)
        if a.series.nilpotency_class is not None:
            assert a.burnside[0] and a.dual_burnside[0], ring.name


def test_hypothesis_report(fib_ring):
    verdict = burnside_exclusion(hg.RingAnalysis(fib_ring))
    assert not verdict.applicable and not verdict.excluded
    assert "weakly integral: False" in verdict.certificate


def test_obstruction_flagged_for_qualifying_failure(s3_rep):
    # S3 is Burnside, so no obstruction
    a = hg.RingAnalysis(s3_rep)
    assert a.burnside[0]
    verdict = burnside_exclusion(a)
    assert verdict.applicable and not verdict.excluded
    # a failed Burnside verdict on the same qualifying ring (weakly integral,
    # h-integral dual) is an obstruction, and the Burnside test excludes it
    a = hg.RingAnalysis(s3_rep)
    a.burnside = (False, 1)
    assert isinstance(a.fpdim, int) and a.dual.flags.h_integral
    verdict = burnside_exclusion(a)
    assert verdict.applicable and verdict.excluded
    assert verdict.certificate == (
        "basis element 1 of FPdim 2 is non-vanishing (det L = 0) but not grouplike"
    )


OBSTRUCTION = (
    "weakly-integral fusion ring with h-integral dual is not Burnside: "
    "no weakly-integral categorification exists"
)


def _burnside_verdict(report) -> dict:
    return next(v for v in report.exclusions if v["test"] == "burnside")


def test_report_notes_the_obstruction_of_an_excluded_ring(s3_rep, monkeypatch):
    # a forced failed verdict; the identity residuals, which would rightly
    # contradict it, are stubbed
    monkeypatch.setattr(hg.RingAnalysis, "burnside", property(lambda self: (False, 1)))
    monkeypatch.setattr(report_module, "identity_checks", lambda a: {})
    rep = analyze(s3_rep)
    assert rep.notes == [OBSTRUCTION]
    assert _burnside_verdict(rep)["excluded"]


def test_obstruction_note_iff_the_burnside_verdict_excludes(full_corpus):
    rings = full_corpus + [near_group(g, m) for g in NEAR_GROUPS for m in range(6)]
    reports = 0
    for ring in rings:
        try:
            rep = analyze(ring)
        except HypergroupError:
            continue
        reports += 1
        excluded = rep.exclusions != [] and _burnside_verdict(rep)["excluded"]
        assert (OBSTRUCTION in rep.notes) == excluded, ring.name
    assert reports > len(full_corpus)


def test_burnside_report_assembly(ising_ring):
    rep = bn.burnside_report(hg.RingAnalysis(ising_ring))
    assert list(rep) == [
        "grouplike_elements", "vanishing_elements", "nonvanishing", "is_burnside",
        "burnside_witness", "grouplike_characters", "is_dual_burnside", "dual_witness",
        "sgn_elements", "sgn_characters",
    ]
    assert rep["is_burnside"] and rep["is_dual_burnside"]
    assert set(rep["vanishing_elements"]) | set(rep["nonvanishing"]) == {0, 1, 2}
    assert set(rep["grouplike_elements"]) <= set(rep["nonvanishing"])
