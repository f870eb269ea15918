import numpy as np
import pytest
from fractions import Fraction

import hypergroups as hg
from hypergroups.builders import catalog, class_hypergroup, group_ring, ising, serialize, parse
from hypergroups.errors import AxiomViolation, InvalidRescale, NotNormalizable


def test_group_ring_z2_all_flags(z2_ring):
    f = z2_ring.flags
    assert f.symmetric and f.real and f.rational and f.real_non_negative
    assert f.abelian and f.fusion_ring and f.h_integral
    # group rings are normalized (every product is a single basis element)
    assert f.normalized


def test_ising_flags(ising_ring):
    f = ising_ring.flags
    assert f.fusion_ring
    assert not f.normalized


def test_def11_violation_detected():
    # N_{1,1}^0 = 0 while the involution fixes 1
    tensor = np.zeros((2, 2, 2), dtype=object)
    tensor[0, 0, 0] = 1
    tensor[0, 1, 1] = 1
    tensor[1, 0, 1] = 1
    tensor[1, 1, 1] = 1  # x^2 = x, no unit constituent
    data = hg.FusionData("bad", [0, 1], tensor)
    with pytest.raises(AxiomViolation):
        hg.validate(data)


def test_associativity_violation_detected():
    tensor = np.zeros((3, 3, 3), dtype=object)
    for j in range(3):
        tensor[0, j, j] = 1
        tensor[j, 0, j] = 1
    tensor[1, 1, 0] = 1
    tensor[2, 2, 0] = 1
    tensor[1, 2, 2] = 1
    tensor[2, 1, 1] = 1  # breaks associativity (and abelianness)
    data = hg.FusionData("nonassoc", [0, 1, 2], tensor)
    with pytest.raises(AxiomViolation) as exc:
        hg.validate(data)
    assert exc.value.law == "associativity"


def test_multiply_examples(z2_ring, ising_ring, s3_rep):
    g = hg.basis_element(z2_ring, 1)
    assert hg.multiply(z2_ring, g, g).coords == (1, 0)
    rho = hg.basis_element(ising_ring, 2)
    assert hg.multiply(ising_ring, rho, rho).coords == (1, 1, 0)
    from conftest import s3_indices

    s, t = s3_indices(s3_rep)
    tt = hg.multiply(s3_rep, hg.basis_element(s3_rep, t), hg.basis_element(s3_rep, t))
    assert tt.coords[0] == 1 and tt.coords[s] == 1 and tt.coords[t] == 1


def test_multiply_exactness(s3_rep):
    x = hg.Element((1, Fraction(1, 2), 3))
    y = hg.Element((0, 1, Fraction(2, 3)))
    out = hg.multiply(s3_rep, x, y)
    assert out.is_exact


def test_tau_pairing(ising_ring):
    rho = hg.basis_element(ising_ring, 2)
    one = hg.basis_element(ising_ring, 0)
    assert hg.tau_pairing(ising_ring, rho, rho) == 1
    rho_sq = hg.multiply(ising_ring, rho, rho)
    assert hg.tau_pairing(ising_ring, one, rho_sq) == 1


def test_tau_is_kronecker_over_h(q8_rep):
    # m(x_i, x_j) = delta_ij / h_i; fusion ring so h_i = 1
    m = q8_rep.rank
    for i in range(m):
        for j in range(m):
            val = hg.tau_pairing(
                q8_rep, hg.basis_element(q8_rep, i), hg.basis_element(q8_rep, j)
            )
            assert val == (1 if i == j else 0)


def test_tau_on_class_hypergroup():
    cl = class_hypergroup(catalog("S3"))
    hs = hg.orders(cl)
    for i in range(cl.rank):
        v = hg.tau_pairing(cl, hg.basis_element(cl, i), hg.basis_element(cl, i))
        assert v == Fraction(1, 1) / hs[i]


def test_rescale_identity(ising_ring):
    out = hg.rescale(ising_ring, [1, 1, 1])
    assert (out.tensor == ising_ring.tensor).all()


def test_rescale_normalizes_ising(ising_ring):
    import math

    out = hg.rescale(ising_ring, [1.0, 1.0, math.sqrt(2)])
    assert out.flags.normalized
    assert abs(out.float_tensor()[2, 2, 0] - 0.5) < 1e-12
    assert abs(out.float_tensor()[2, 2, 1] - 0.5) < 1e-12


def test_rescale_rejects_bad_alpha(ising_ring):
    with pytest.raises(InvalidRescale):
        hg.rescale(ising_ring, [2, 1, 1])
    with pytest.raises(InvalidRescale):
        hg.rescale(ising_ring, [1, 0, 1])


def test_normalize_examples(ising_ring, ising_table, s3_rep, s3_table):
    cl = class_hypergroup(catalog("C3"))
    tab = hg.character_table(cl)
    out = hg.normalize(cl, tab.values[:, tab.fp_index])
    assert (out.tensor == cl.tensor).all()  # already normalized

    norm = hg.normalize(ising_ring, ising_table.values[:, ising_table.fp_index])
    ft = norm.float_tensor()
    assert abs(ft[2, 2, 0] - 0.5) < 1e-9 and abs(ft[2, 2, 1] - 0.5) < 1e-9

    # mu with a zero value is rejected
    from conftest import s3_indices

    s, t = s3_indices(s3_rep)
    zero_col = next(
        j for j in range(3) if abs(s3_table.values[t, j]) < 1e-9
    )
    with pytest.raises(NotNormalizable):
        hg.normalize(s3_rep, s3_table.values[:, zero_col])


def test_normalize_float_column_within_tolerance(ising_ring):
    import math

    # one ulp off 1 at the unit, and unequal in the last bits at i and i*:
    # accepted, and the result is normalized
    col = [1.0 + 2.0**-52, 1.0, math.sqrt(2) * (1 + 2.0**-52)]
    assert hg.normalize(ising_ring, col).flags.normalized
    with pytest.raises(NotNormalizable):
        hg.normalize(ising_ring, [1.0 + 1e-6, 1.0, math.sqrt(2)])


def test_normalize_rejects_unequal_values_at_i_and_istar():
    z3 = group_ring(catalog("C3"))  # x_1* = x_2
    with pytest.raises(NotNormalizable):
        hg.normalize(z3, [1.0, 1.5, 2.0])


def test_serialize_roundtrip_preserves_flags(full_corpus):
    for ring in full_corpus[:8]:
        back = parse(serialize(ring))
        assert back.flags == ring.flags
        assert back.involution == ring.involution


def test_orders_of_fusion_rings_are_one(full_corpus):
    for ring in full_corpus:
        if ring.flags.fusion_ring:
            assert all(h == 1 for h in hg.orders(ring))


def test_order_invariant_under_rescaling(ising_ring, ising_table):
    rng = np.random.default_rng(7)
    n0 = hg.order(ising_ring, ising_table)
    for _ in range(5):
        alphas = [1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))]
        re = hg.rescale(ising_ring, alphas)
        tab = hg.character_table(re)
        assert abs(hg.order(re, tab) - n0) < 1e-8


def test_multiply_associative_random_triples(full_corpus):
    rng = np.random.default_rng(11)
    for ring in full_corpus[:6] + [r for r in full_corpus if not r.is_exact][:2]:
        m = ring.rank
        for _ in range(50):
            x = hg.Element(tuple(int(v) for v in rng.integers(-3, 4, size=m)))
            y = hg.Element(tuple(int(v) for v in rng.integers(-3, 4, size=m)))
            z = hg.Element(tuple(int(v) for v in rng.integers(-3, 4, size=m)))
            lhs = hg.multiply(ring, hg.multiply(ring, x, y), z)
            rhs = hg.multiply(ring, x, hg.multiply(ring, y, z))
            if ring.is_exact:
                assert lhs.coords == rhs.coords
            else:
                assert np.abs(lhs.float_coords() - rhs.float_coords()).max() < 1e-6
