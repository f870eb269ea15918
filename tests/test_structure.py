import numpy as np
import pytest
from fractions import Fraction

import hypergroups as hg
from hypergroups import structure as st
from hypergroups import burnside as bn
from hypergroups.builders import catalog, class_hypergroup, group_ring, rep_ring
from hypergroups.errors import ClosureViolation, NotAbelian, NotPositive
from conftest import s3_indices


def test_generated_sub_examples(ising_ring, s3_rep):
    one = hg.basis_element(ising_ring, 0)
    assert st.generated_sub(ising_ring, one).indices == (0,)
    rho = hg.basis_element(ising_ring, 2)
    assert st.generated_sub(ising_ring, rho).indices == (0, 1, 2)
    s, _ = s3_indices(s3_rep)
    assert st.generated_sub(s3_rep, hg.basis_element(s3_rep, s)).indices == (0, s)


def test_generated_sub_rejects_negative(ising_ring):
    with pytest.raises(NotPositive):
        st.generated_sub(ising_ring, hg.Element((1, -1, 0)))


def test_kernel_of_character(ising_ring, ising_table, s3_rep, s3_table):
    ising = hg.RingAnalysis(ising_ring, table=ising_table)
    assert st.kernel_of_character(ising, ising_table.fp_index).indices == (0, 1, 2)
    s, t = s3_indices(s3_rep)
    sign_col = next(
        j
        for j in range(3)
        if abs(s3_table.values[s, j] - 1) < 1e-8
        and abs(s3_table.values[t, j] + 1) < 1e-8
    )
    s3 = hg.RingAnalysis(s3_rep, table=s3_table)
    assert st.kernel_of_character(s3, sign_col).indices == (0, s)
    zero_col = next(j for j in range(3) if abs(s3_table.values[t, j]) < 1e-8)
    assert st.kernel_of_character(s3, zero_col).indices == (0,)


def test_kernel_and_center_of_element(ising_ring, ising_table, s3_rep, s3_table):
    ising = hg.RingAnalysis(ising_ring, table=ising_table)
    one = hg.basis_element(ising_ring, 0)
    assert st.kernel_of_element(ising, one) == frozenset({0, 1, 2})
    _, t = s3_indices(s3_rep)
    assert st.kernel_of_element(
        hg.RingAnalysis(s3_rep, table=s3_table), hg.basis_element(s3_rep, t)
    ) == frozenset({s3_table.fp_index})
    center = st.center_of_element(ising, 2)
    # |mu(rho)| = sqrt(2) for the two grouplike characters
    assert center == frozenset(ising.grouplike_chars)


def test_adjoint_examples(ising_ring, ising_table, s3_rep, s3_table):
    z5 = group_ring(catalog("C5"))
    assert st.adjoint(hg.RingAnalysis(z5)).indices == (0,)
    assert st.adjoint(hg.RingAnalysis(ising_ring, table=ising_table)).indices == (0, 1)
    assert st.adjoint(hg.RingAnalysis(s3_rep, table=s3_table)).indices == (0, 1, 2)


def test_support_examples(ising_ring, ising_table):
    ising = hg.RingAnalysis(ising_ring, table=ising_table)
    whole = st.SubHypergroup((0, 1, 2), ising_ring)
    assert st.support(ising, whole) == frozenset({ising_table.fp_index})
    trivial = st.SubHypergroup((0,), ising_ring)
    assert st.support(ising, trivial) == frozenset({0, 1, 2})
    sub = st.SubHypergroup((0, 1), ising_ring)
    assert st.support(ising, sub) == frozenset(ising.grouplike_chars)


def test_universal_grading(ising_ring, ising_table, s3_rep, s3_table, q8_rep, q8_table):
    g = st.universal_grading(hg.RingAnalysis(ising_ring, table=ising_table))
    assert g.group_order == 2 and g.iso_class == (2,)
    assert g.components == ((0, 1), (2,))
    g = st.universal_grading(hg.RingAnalysis(s3_rep, table=s3_table))
    assert g.group_order == 1
    g = st.universal_grading(hg.RingAnalysis(q8_rep, table=q8_table))
    assert g.group_order == 2  # |Z(Q8)| = 2


def test_grading_matches_center_for_catalog():
    from hypergroups.builders import catalog_names

    for name in catalog_names():
        grp = catalog(name)
        ring = rep_ring(grp)
        a = hg.RingAnalysis(ring)
        g = st.universal_grading(a)
        assert g.group_order == len(grp.center()), name
        glc = a.grouplike_chars
        assert g.group_order == len(glc), name


def test_perp_examples(ising_ring, ising_table):
    ising = hg.RingAnalysis(ising_ring, table=ising_table)
    trivial = st.SubHypergroup((0,), ising_ring)
    assert st.perp(ising, trivial) == frozenset({0, 1, 2})
    whole = st.SubHypergroup((0, 1, 2), ising_ring)
    assert st.perp(ising, whole) == frozenset({ising_table.fp_index})
    sub = st.SubHypergroup((0, 1), ising_ring)
    assert st.perp(ising, sub) == frozenset(ising.grouplike_chars)


def test_grouplike_char_perp_is_adjoint(corpus_with_tables):
    # Cor 7.16: G(H-hat)-perp = H_ad
    for ring, table in corpus_with_tables:
        a = hg.RingAnalysis(ring, table=table)
        ad = st.adjoint(a)
        assert st.perp_characters(a, a.grouplike_chars) == frozenset(ad.indices), ring.name


def test_quotient_trivial_is_identity(s3_rep, s3_table):
    q, classes = st.quotient(
        hg.RingAnalysis(s3_rep, table=s3_table), st.SubHypergroup((0,), s3_rep)
    )
    assert q.rank == s3_rep.rank
    # normalized version of the ring itself
    assert q.flags.normalized


def test_quotient_z4_by_order2():
    z4 = group_ring(catalog("C4"))
    # the order-2 subgroup is generated by g^2; find it from the tensor
    sq = next(
        i for i in range(1, 4) if z4.tensor[i, i, 0] == 1 and i == z4.involution[i]
    )
    q, classes = st.quotient(hg.RingAnalysis(z4), st.SubHypergroup((0, sq), z4))
    assert q.rank == 2
    assert q.tensor[1, 1, 0] == 1  # Z[Z2]


def test_quotient_s3_example(s3_rep, s3_table):
    s, t = s3_indices(s3_rep)
    q, classes = st.quotient(
        hg.RingAnalysis(s3_rep, table=s3_table), st.SubHypergroup((0, s), s3_rep)
    )
    assert q.rank == 2
    assert [c for c in classes] == [(0, s), (t,)]
    # normalized class tensor [t][t] = 1/2 [1] + 1/2 [t]
    assert q.tensor[1, 1, 0] == Fraction(1, 2)
    assert q.tensor[1, 1, 1] == Fraction(1, 2)
    # raw Eq (7.5) sums on the un-normalized ring: 2 on [1], 1 on [t]
    tt = s3_rep.tensor[t, t]
    assert tt[0] + tt[s] == 2 and tt[t] == 1


def test_quotient_rejects_nonabelian():
    ring = group_ring(catalog("S3"))
    with pytest.raises(NotAbelian):
        st.quotient(hg.RingAnalysis(ring), st.SubHypergroup((0,), ring))


def test_commutator_examples(ising_ring, s3_rep):
    # S = {0}: commutator = grouplikes
    z4 = group_ring(catalog("C4"))
    assert st.commutator_sub(z4, st.SubHypergroup((0,), z4)).indices == (0, 1, 2, 3)
    sub = st.SubHypergroup((0, 1), ising_ring)
    assert st.commutator_sub(ising_ring, sub).indices == (0, 1, 2)
    s, _ = s3_indices(s3_rep)
    assert st.commutator_sub(s3_rep, st.SubHypergroup((0, s), s3_rep)).indices == (0, s)


def test_central_series(ising_ring, s3_rep):
    z6 = group_ring(catalog("C6"))
    assert st.central_series(z6).nilpotency_class == 1
    cs = st.central_series(ising_ring)
    assert cs.nilpotency_class == 2
    assert [s.indices for s in cs.upper] == [(0, 1, 2), (0, 1), (0,)]
    assert [s.indices for s in cs.lower] == [(0,), (0, 1), (0, 1, 2)]
    assert st.central_series(s3_rep).nilpotency_class is None


def test_nilpotency_matches_group_nilpotency():
    from hypergroups.builders import catalog_names
    from conftest import NILPOTENT_CATALOG

    for name in catalog_names():
        ring = rep_ring(catalog(name))
        got = st.is_nilpotent(ring) is not None
        assert got == (name in NILPOTENT_CATALOG), name


def test_dual_nilpotency_class_equal(corpus_with_tables):
    # Theorem: H nilpotent iff dual nilpotent, same class (dualizable corpus rings)
    for ring, table in corpus_with_tables:
        dd = hg.dual_hypergroup(ring, table)
        if not dd.base.flags.real_non_negative:
            continue
        assert st.is_nilpotent(ring) == st.is_nilpotent(dd.base), ring.name


def test_brauer_criterion(corpus_with_tables):
    # <x> = H iff ker(x) = {FP}; lambda_<x> = sum F_j over ker(x)
    for ring, table in corpus_with_tables[:14]:
        if table.fp_index is None:
            continue
        a = hg.RingAnalysis(ring, table=table)
        for i in range(ring.rank):
            x = hg.basis_element(ring, i)
            gen = st.generated_sub(ring, x)
            ker = st.kernel_of_element(a, x)
            assert gen.is_whole == (ker == frozenset({table.fp_index})), ring.name
            js = st.support(a, gen)
            assert js == ker, (ring.name, i)


def test_p_squared_generates_adjoint(corpus_with_tables):
    # <P^2> = H_ad and H_ad <= <P>
    for ring, table in corpus_with_tables:
        if table.fp_index is None:
            continue
        a = hg.RingAnalysis(ring, table=table)
        P = bn.product_P(a)
        P2 = hg.multiply(ring, P, P)
        ad = set(st.adjoint(a).indices)
        assert set(st.generated_sub(ring, P2).indices) == ad, ring.name
        assert ad <= set(st.generated_sub(ring, P).indices), ring.name


def test_join_support_law(corpus_with_tables):
    # J_{S v T} = J_S n J_T for rings with few sub-hypergroups
    for ring, table in corpus_with_tables:
        subs = st.all_sub_hypergroups(ring)
        if len(subs) > 8:
            continue
        a = hg.RingAnalysis(ring, table=table)
        for s1 in subs:
            for s2 in subs:
                join = st.SubHypergroup(
                    st.closure(ring, set(s1.indices) | set(s2.indices)), ring
                )
                lhs = st.support(a, join)
                rhs = st.support(a, s1) & st.support(a, s2)
                assert lhs == rhs, (ring.name, s1.indices, s2.indices)


def test_grouplike_constituent_law(corpus_with_tables):
    # g constituent of x x* iff g x = d_g x (Lemma on grouplike constituents)
    for ring, table in corpus_with_tables[:16]:
        if table.fp_index is None:
            continue
        support = ring.support_at(table.tol)
        gl = hg.RingAnalysis(ring, table=table).grouplikes
        d = table.fp_dims()
        inv = ring.involution
        for g in gl:
            for i in range(ring.rank):
                lhs = support[i, inv[i], g]
                gx = hg.multiply(ring, hg.basis_element(ring, g), hg.basis_element(ring, i))
                target = np.zeros(ring.rank)
                target[i] = d[g]
                rhs = np.abs(gx.float_coords() - target).max() < 1e-8
                assert lhs == rhs, (ring.name, g, i)


def test_adjoint_trivial_iff_dual_pointed(corpus_with_tables):
    # H_ad = C iff dual pointed; H_ad = H iff dual perfect
    for ring, table in corpus_with_tables:
        a = hg.RingAnalysis(ring, table=table)
        ad = st.adjoint(a)
        glc = a.grouplike_chars
        assert ad.is_trivial == (len(glc) == ring.rank), ring.name
        assert ad.is_whole == (len(glc) == 1), ring.name


def test_quotient_vanishing_lift():
    # a class vanishing in H//S lifts to a vanishing element of H
    ring = rep_ring(catalog("S4"))
    a = hg.RingAnalysis(ring)
    # S = {1, sgn}: the grouplike elements
    q, classes = st.quotient(a, st.SubHypergroup(a.grouplikes, ring))
    qvanish = bn.vanishing_elements(hg.RingAnalysis(q))
    assert qvanish  # the quotient does have a vanishing class here
    vanish = set(bn.vanishing_elements(a))
    for lbl in qvanish:
        for member in classes[lbl]:
            assert member in vanish


def test_sub_arguments_are_checked():
    z4 = group_ring(catalog("C4"))
    with pytest.raises(ClosureViolation, match="not closed"):
        st.quotient(hg.RingAnalysis(z4), st.SubHypergroup((0, 1), z4))
    with pytest.raises(ClosureViolation, match="out of range"):
        st.quotient(hg.RingAnalysis(z4), st.SubHypergroup((0, 7), z4))
    with pytest.raises(ClosureViolation, match="not closed"):
        st.commutator_sub(z4, st.SubHypergroup((0, 1), z4))


def test_quotient_of_irrational_and_float_rings(ising_ring):
    # FP dims that do not snap to rationals normalize on the float path
    q, classes = st.quotient(hg.RingAnalysis(ising_ring), st.SubHypergroup((0, 1), ising_ring))
    assert classes == [(0, 1), (2,)] and q.rank == 2
    floaty = hg.FusionData("Ising/float", ising_ring.involution, ising_ring.float_tensor())
    qf, classes_f = st.quotient(hg.RingAnalysis(floaty), st.SubHypergroup((0, 1), floaty))
    assert classes_f == classes
    assert np.allclose(qf.float_tensor(), q.float_tensor(), atol=1e-12)


def test_one_support_tensor_per_tolerance(ising_ring):
    support = ising_ring.support_at(hg.Tolerance(abs=1e-3, rel=1e-3))
    assert support is ising_ring.support_at(hg.Tolerance())  # exact: one key
    assert support.dtype == bool and not support.flags.writeable
    assert (support == (ising_ring.float_tensor() > 0)).all()
    floaty = hg.FusionData("Ising/float", ising_ring.involution, ising_ring.float_tensor())
    loose, tight = hg.Tolerance(abs=10.0, rel=1e-9), hg.Tolerance()
    assert not floaty.support_at(loose).any()  # every entry is below the threshold
    assert (floaty.support_at(tight) == support).all()


# ---------------------------------------------------------------- set-based references
# The element-by-element constituent relation that support_at replaced, kept
# here as an independent reference for the boolean-array readers.

def _ref_threshold(data, tol):
    if data.is_exact:
        return 0.0
    return tol.zero(1.0 + float(np.abs(data.float_tensor()).max()))


def _ref_supp(data, i, j, thr):
    """Constituents of x_i x_j, entry by entry."""
    return {k for k in range(data.rank) if data.tensor[i, j, k] > thr}


def _ref_closure(data, seeds, tol):
    thr = _ref_threshold(data, tol)
    inv = data.involution
    result = {0} | {inv[i] for i in seeds} | set(seeds)
    queue = list(result)
    while queue:
        a = queue.pop()
        for b in sorted(result):
            for prod in (_ref_supp(data, a, b, thr), _ref_supp(data, b, a, thr)):
                for k in prod:
                    for c in (k, inv[k]):
                        if c not in result:
                            result.add(c)
                            queue.append(c)
    return tuple(sorted(result))


def _ref_restrict(data, indices):
    idx = sorted(set(indices) | {0})
    pos = {a: t for t, a in enumerate(idx)}
    sub = data.tensor[np.ix_(idx, idx, idx)]
    inv = [pos[data.involution[a]] for a in idx]
    return hg.FusionData(f"{data.name}|{idx}", inv, sub), idx


def _ref_adjoint(data, indices, tol):
    sub, back = (data, list(range(data.rank))) if indices is None else _ref_restrict(data, indices)
    seeds = st.element_support(hg.regular_element(sub), tol)
    return tuple(sorted(back[i] for i in _ref_closure(sub, seeds, tol)))


def _ref_grouplikes(data, tol):
    thr = _ref_threshold(data, tol)
    inv = data.involution
    return tuple(
        i for i in range(data.rank) if _ref_supp(data, i, inv[i], thr) == {0}
    )


def _ref_commutator(data, indices, tol):
    thr = _ref_threshold(data, tol)
    inv = data.involution
    seeds = [
        x for x in range(data.rank) if _ref_supp(data, x, inv[x], thr) <= set(indices)
    ]
    return _ref_closure(data, seeds, tol)


def _ref_series(data, tol):
    upper = [tuple(range(data.rank))]
    while upper[-1] != (0,):
        nxt = _ref_adjoint(data, upper[-1], tol)
        if nxt == upper[-1]:
            break
        upper.append(nxt)
    lower = [(0,)]
    while len(lower[-1]) < data.rank:
        nxt = _ref_commutator(data, lower[-1], tol)
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    return upper, lower


def _ref_grading_components(data, tol):
    thr = _ref_threshold(data, tol)
    ad = _ref_adjoint(data, None, tol)
    label = list(range(data.rank))
    changed = True
    while changed:  # propagate the smallest member along the adjoint-bimodule edges
        changed = False
        for s in ad:
            for a in range(data.rank):
                for b in _ref_supp(data, s, a, thr) | _ref_supp(data, a, s, thr):
                    low = min(label[a], label[b])
                    if label[a] != low or label[b] != low:
                        label[a] = label[b] = low
                        changed = True
    return tuple(
        tuple(a for a in range(data.rank) if label[a] == root) for root in sorted(set(label))
    )


def _variants(ring, seed):
    """The ring, a seeded relabeling of it, and a floating copy of the
    relabeling with noise far below the support threshold on its zeros."""
    rng = np.random.default_rng(seed)
    m, inv = ring.rank, ring.involution
    perm = [0, *(1 + rng.permutation(m - 1)).tolist()]
    where = {p: i for i, p in enumerate(perm)}
    relabeled = hg.FusionData(
        f"{ring.name}/relabeled",
        [where[inv[p]] for p in perm],
        ring.tensor[np.ix_(perm, perm, perm)],
    )
    noisy = relabeled.float_tensor().copy()
    zeros = noisy == 0
    noisy[zeros] = rng.uniform(0.0, 1e-13, int(zeros.sum()))
    return ring, relabeled, hg.FusionData(f"{ring.name}/noisy", relabeled.involution, noisy)


def test_support_readers_match_set_based_references(full_corpus, tol):
    for seed, ring in enumerate(full_corpus):
        for data in _variants(ring, seed):
            name = data.name
            for i in range(data.rank):
                assert st.closure(data, [i], tol) == _ref_closure(data, [i], tol), (name, i)
            assert st.grouplike_indices(data, tol) == _ref_grouplikes(data, tol), name
            subs = [s.indices for s in st.all_sub_hypergroups(data, tol)]
            assert st.adjoint_indices(data, None, tol) == _ref_adjoint(data, None, tol), name
            for s in subs:
                assert st.adjoint_indices(data, s, tol) == _ref_adjoint(data, s, tol), (name, s)
                assert st.commutator_indices(data, s, tol) == _ref_commutator(data, s, tol), (
                    name,
                    s,
                )
            series = st.central_series(data, tol)
            assert (
                [u.indices for u in series.upper],
                [low.indices for low in series.lower],
            ) == _ref_series(data, tol), name
            grading = st.universal_grading(hg.RingAnalysis(data, tol))
            assert grading.components == _ref_grading_components(data, tol), name
