"""Cross-path robustness: float tensors, rescalings, and order invariants."""

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import structure as st
from hypergroups.builders import catalog, class_hypergroup, ising, rep_ring


def as_float(ring):
    return hg.FusionData(ring.name + "/float", ring.involution, ring.float_tensor())


@pytest.mark.parametrize("name", ["S3", "Q8", "SL(2,3)", "A5"])
def test_float_tensor_pipeline_matches_exact(name):
    exact = rep_ring(catalog(name))
    floaty = as_float(exact)
    te = hg.character_table(exact)
    tf = hg.character_table(floaty)
    assert np.allclose(sorted(te.codegrees), sorted(tf.codegrees), atol=1e-8)
    ae, af = hg.RingAnalysis(exact, table=te), hg.RingAnalysis(floaty, table=tf)
    assert ae.grouplikes == af.grouplikes
    assert ae.burnside[0] == af.burnside[0]
    assert ae.dual_burnside[0] == af.dual_burnside[0]
    assert st.adjoint(exact, te).indices == st.adjoint(floaty, tf).indices
    assert st.is_nilpotent(exact) == st.is_nilpotent(floaty)


def test_class_hypergroup_float_path():
    exact = class_hypergroup(catalog("S4"))
    floaty = as_float(exact)
    te = hg.character_table(exact)
    tf = hg.character_table(floaty)
    assert np.allclose(sorted(te.codegrees), sorted(tf.codegrees), atol=1e-8)
    assert hg.RingAnalysis(exact, table=te).burnside[0] == hg.RingAnalysis(floaty, table=tf).burnside[0]


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


def test_dual_of_dual_flags_roundtrip(ising_ring, ising_table):
    dd = hg.dual_hypergroup(ising_ring, ising_table)
    tdd = hg.character_table(dd.base)
    from hypergroups.dual import augmentation_index

    dd2 = hg.dual_hypergroup(dd.base, tdd, augmentation_index(tdd))
    fl = hg.dual_flags(dd2)
    assert fl.rn and fl.h_integral
