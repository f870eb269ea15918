"""Cross-path robustness: float tensors, rescalings, and order invariants."""

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import structure as st
from hypergroups.builders import catalog, class_hypergroup, ising, rep_ring
from hypergroups.errors import DualAxiomViolation
from hypergroups.report import analyze


def as_float(ring):
    return hg.FusionData(ring.name + "/float", ring.involution, ring.float_tensor())


def noisy_copy(ring, scale):
    """Float copy with seeded uniform noise in [-scale, scale] on every entry."""
    m = ring.rank
    noise = np.random.default_rng(0).uniform(-scale, scale, (m, m, m))
    return hg.FusionData(ring.name + "/noisy", ring.involution, ring.float_tensor() + noise)


@pytest.mark.parametrize("name", ["S3", "Q8", "SL(2,3)", "A5"])
def test_float_tensor_pipeline_matches_exact(name):
    exact = rep_ring(catalog(name))
    floaty = as_float(exact)
    te = hg.character_table(exact)
    tf = hg.character_table(floaty)
    assert np.allclose(sorted(te.codegrees), sorted(tf.codegrees), atol=1e-8)
    ae, af = hg.RingAnalysis(exact), hg.RingAnalysis(floaty)
    assert ae.grouplikes == af.grouplikes
    assert ae.burnside[0] == af.burnside[0]
    assert ae.dual_burnside[0] == af.dual_burnside[0]
    assert st.adjoint(ae).indices == st.adjoint(af).indices
    assert ae.series.nilpotency_class == af.series.nilpotency_class


def test_class_hypergroup_float_path():
    exact = class_hypergroup(catalog("S4"))
    floaty = as_float(exact)
    te = hg.character_table(exact)
    tf = hg.character_table(floaty)
    assert np.allclose(sorted(te.codegrees), sorted(tf.codegrees), atol=1e-8)
    assert hg.RingAnalysis(exact).burnside[0] == hg.RingAnalysis(floaty).burnside[0]


def test_verdicts_invariant_under_rescaling():
    rng = np.random.default_rng(23)
    for ring in (ising(), rep_ring(catalog("S3")), rep_ring(catalog("Q8"))):
        a = hg.RingAnalysis(ring)
        base = (a.grouplikes, set(a.vanishing), a.burnside[0], a.dual_burnside[0])
        inv = ring.involution
        for _ in range(3):
            alphas = [1.0] * ring.rank
            for i in range(1, ring.rank):
                if alphas[i] == 1.0:
                    a = float(rng.uniform(0.5, 2.0))
                    alphas[i] = a
                    alphas[inv[i]] = a
            re = hg.rescale(ring, alphas)
            a = hg.RingAnalysis(re)
            got = (a.grouplikes, set(a.vanishing), a.burnside[0], a.dual_burnside[0])
            assert got == base, ring.name


def test_orders_invariants(full_corpus):
    for ring in full_corpus:
        hs = hg.orders(ring)
        assert hs[0] == 1, ring.name
        if ring.flags.symmetric:
            for i in range(ring.rank):
                assert hs[i] == hs[ring.involution[i]], ring.name


def test_dual_of_dual_flags_roundtrip(ising_ring):
    fl = hg.RingAnalysis(ising_ring).dual.dual.data.flags
    assert fl.real_non_negative and fl.h_integral


def test_dual_of_a_noisy_ring_is_validated_at_the_analysis_tolerance():
    # 2e-9 noise passes validation at 1e-8 but not at the default 1e-9; the
    # dual used to be validated at the default and failed its unit axiom
    tol = hg.Tolerance(abs=1e-8, rel=1e-8)
    ring = noisy_copy(class_hypergroup(catalog("A4")), 2e-9)
    assert ring.flags_at(tol).abelian
    report = analyze(ring, tol=tol)
    exact = analyze(class_hypergroup(catalog("A4")))
    assert report.dual is not None
    assert report.burnside["is_burnside"] == exact.burnside["is_burnside"]


@pytest.mark.xfail(
    strict=True,
    raises=DualAxiomViolation,
    reason="the dual amplifies 2e-9 primal noise into a 4.7e-8 unit-row error",
)
def test_dual_of_a_noisy_cl_a5_passes_its_axioms():
    # the only float copy of a corpus ring whose dual fails at 1e-8
    # ("unit violated at indices (0, 0, 1)"); no slack is raised to pass it
    tol = hg.Tolerance(abs=1e-8, rel=1e-8)
    ring = noisy_copy(class_hypergroup(catalog("A5")), 2e-9)
    assert ring.flags_at(tol).abelian
    report = analyze(ring, tol=tol)
    assert report.dual is not None


def test_quotient_of_a_noisy_ring_is_validated_at_the_analysis_tolerance():
    tol = hg.Tolerance(abs=1e-8, rel=1e-8)
    ring = noisy_copy(ising(), 2e-9)
    q, classes = st.quotient(hg.RingAnalysis(ring, tol), st.SubHypergroup((0, 1), ring))
    assert classes == [(0, 1), (2,)]
    exact, _ = st.quotient(hg.RingAnalysis(ising()), st.SubHypergroup((0, 1), ising()))
    assert np.allclose(q.float_tensor(), exact.float_tensor(), atol=1e-7)
