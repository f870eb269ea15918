"""Independent cross-checks against classical facts and internal identities."""

import numpy as np

import hypergroups as hg
from hypergroups import structure as st
from hypergroups.builders import catalog, family_ring, group_ring, near_group, rep_ring
from hypergroups.builders.enumeration import _canonical_key, _relabelings


def test_dual_of_abelian_group_ring_is_the_dual_group():
    # Z[Z4]-dual: a group hypergroup again, with element orders {1, 2, 4, 4}
    ring = group_ring(catalog("C4"))
    a = hg.RingAnalysis(ring)
    assert np.allclose(a.orders_hat, 1.0)
    t = a.dual.data.float_tensor()
    cayley = np.zeros((4, 4), dtype=int)
    for i in range(4):
        for j in range(4):
            hits = np.nonzero(t[i, j] > 0.5)[0]
            assert len(hits) == 1
            cayley[i, j] = hits[0]
    orders = []
    for a in range(4):
        k, x = 1, a
        while x != 0:
            x = cayley[x, a]
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 4, 4]


def test_q8_and_d4_share_one_fusion_ring():
    # classical: Rep(Q8) and Rep(D4) have isomorphic Grothendieck rings
    rings = [rep_ring(catalog("Q8")), rep_ring(catalog("D4"))]
    dims = [1, 1, 1, 1, 2]
    rel = _relabelings(dims)
    keys = []
    for ring in rings:
        # reorder so dimensions are ascending before canonicalizing
        table = hg.character_table(ring)
        order_perm = np.argsort(np.round(table.fp_dims(), 6), kind="stable")
        t = np.array(
            [
                [
                    [int(ring.tensor[order_perm[i], order_perm[j], order_perm[k]]) for k in range(5)]
                    for j in range(5)
                ]
                for i in range(5)
            ],
            dtype=np.int64,
        )
        keys.append(_canonical_key(t, rel))
    assert keys[0] == keys[1]


def test_family_with_k2_is_tambara_yamagami_near_group():
    fam = family_ring(2, [2, 2], [2])
    ty = near_group([2, 2], 0)
    assert fam.rank == ty.rank == 5
    assert (fam.tensor == ty.tensor).all()
    assert fam.involution == ty.involution


def test_tau_cyclic_symmetry(corpus_with_tables):
    # h_i^{-1} m(x_{i*}, x_j x_k) is invariant under cyclic rotation of (i, j, k)
    rng = np.random.default_rng(5)
    for ring, table in corpus_with_tables[:10]:
        m = ring.rank
        for _ in range(20):
            i, j, k = rng.integers(0, m, size=3)
            vals = []
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                prod = hg.multiply(
                    ring, hg.basis_element(ring, b), hg.basis_element(ring, c)
                )
                trip = hg.multiply(ring, hg.basis_element(ring, a), prod)
                vals.append(float(trip.coords[0]))  # tau(x_a x_b x_c)
            assert abs(vals[0] - vals[1]) < 1e-9 and abs(vals[1] - vals[2]) < 1e-9, ring.name


def test_regular_element_kernel_is_center_intersection(corpus_with_tables):
    # ker(I(1)) = intersection over i of Z(x_i)
    for ring, table in corpus_with_tables[:12]:
        if table.fp_index is None:
            continue
        a = hg.RingAnalysis(ring)
        el = hg.regular_element(ring)
        ker = st.kernel_of_element(a, el)
        inter = None
        for i in range(ring.rank):
            z = st.center_of_element(a, i)
            inter = z if inter is None else inter & z
        assert ker == inter, ring.name
