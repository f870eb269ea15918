import os
from itertools import product

import numpy as np
import pytest
from fractions import Fraction

import hypergroups as hg
from hypergroups import builders as bd
from hypergroups.errors import BudgetExceeded, HypergroupError, InvalidType, ParseError
from conftest import NILPOTENT_CATALOG, PHI

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def test_group_from_generators_examples():
    c2 = bd.group_from_generators([(1, 0)], "C2")
    assert c2.order == 2
    s3 = bd.parse_group("(012),(01)", "S3")
    assert s3.order == 6
    sl23 = bd.catalog("SL(2,3)")
    assert sl23.order == 24
    assert not sl23.is_nilpotent()


def test_catalog_orders_and_nilpotency():
    expected = {
        "C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C7": 7, "C8": 8,
        "C2xC2": 4, "C2xC2xC2": 8, "S3": 6, "D4": 8, "D5": 10, "Q8": 8,
        "A4": 12, "SL(2,3)": 24, "S4": 24, "A5": 60,
    }
    for name, order in expected.items():
        g = bd.catalog(name)
        assert g.order == order, name
        assert g.is_nilpotent() == (name in NILPOTENT_CATALOG), name


def _reference_cayley(perms):
    # the closure in breadth-first order, then one _compose per pair
    from hypergroups.builders.groups import _compose

    ident = tuple(range(len(perms[0])))
    elements, index, frontier = [ident], {ident: 0}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in perms:
                prod = _compose(e, g)
                if prod not in index:
                    index[prod] = len(elements)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return np.array([[index[_compose(p, q)] for q in elements] for p in elements])


def test_cayley_table_matches_composition_loop():
    cases = dict(bd.CATALOG_GENERATORS)
    cases["S5"] = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    cases["S6"] = [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]
    for name, perms in cases.items():
        g = bd.group_from_generators(perms, name)
        assert (g.cayley == _reference_cayley(perms)).all(), name
    assert g.order == 720


def _reference_conjugacy_classes(g):
    # closure of each class under conjugation by every element, one conj at a time
    n = g.order
    seen = [False] * n
    classes = []
    for a in range(n):
        if seen[a]:
            continue
        cls = {a}
        frontier = [a]
        while frontier:
            x = frontier.pop()
            for h in range(n):
                y = g.conj(x, h)
                if y not in cls:
                    cls.add(y)
                    frontier.append(y)
        for x in cls:
            seen[x] = True
        classes.append(tuple(sorted(cls)))
    classes.sort(key=lambda c: (0 not in c, len(c), c))
    return classes


def test_conjugacy_classes_match_reference_loop():
    groups = [bd.catalog(name) for name in bd.catalog_names()]
    groups.append(bd.parse_group("(01234),(01)", "S5"))
    groups.append(bd.parse_group("(012345),(01)", "S6"))
    for g in groups:
        inv = [g.inverse(a) for a in range(g.order)]
        assert all(g.cayley[a, inv[a]] == 0 for a in range(g.order)), g.name
        assert g.conjugacy_classes() == _reference_conjugacy_classes(g), g.name
    sizes = [len(c) for c in groups[-1].conjugacy_classes()]
    assert sizes == [1, 15, 15, 40, 40, 45, 90, 90, 120, 120, 144]


def test_class_hypergroup_examples():
    cl = bd.class_hypergroup(bd.catalog("C2"))
    assert cl.rank == 2 and cl.flags.fusion_ring
    cl = bd.class_hypergroup(bd.catalog("S3"))
    assert sorted(float(h) for h in hg.orders(cl)) == [1.0, 2.0, 3.0]
    assert cl.flags.abelian and cl.flags.rational and cl.flags.real_non_negative
    assert cl.flags.normalized
    cl = bd.class_hypergroup(bd.catalog("Q8"))
    assert sorted(float(h) for h in hg.orders(cl)) == [1.0, 1.0, 2.0, 2.0, 2.0]


def test_rep_ring_examples(s3_rep, q8_rep):
    from conftest import s3_indices

    s, t = s3_indices(s3_rep)
    row = s3_rep.tensor[t, t]
    assert row[0] == 1 and row[s] == 1 and row[t] == 1
    # Q8: t^2 = 1 + a + b + ab
    d = hg.character_table(q8_rep).fp_dims()
    tq = int(np.argmax(d))
    assert all(q8_rep.tensor[tq, tq, k] == (0 if k == tq else 1) for k in range(5))


def test_rep_ring_of_abelian_is_group_ring():
    for name in ("C4", "C2xC2", "C6"):
        g = bd.catalog(name)
        ring = bd.rep_ring(g)
        # every basis element invertible: a group ring of the same order
        assert ring.rank == g.order
        assert all(ring.tensor[i, ring.involution[i], 0] == 1 for i in range(ring.rank))
        table = hg.character_table(ring)
        assert np.allclose(table.fp_dims(), 1.0)


def test_rep_ring_dims_are_irreducible_degrees():
    ring = bd.rep_ring(bd.catalog("S4"))
    d = sorted(int(round(x)) for x in hg.character_table(ring).fp_dims())
    assert d == [1, 1, 2, 3, 3]
    ring = bd.rep_ring(bd.catalog("A5"))
    d = sorted(int(round(x)) for x in hg.character_table(ring).fp_dims())
    assert d == [1, 3, 3, 4, 5]


def test_near_group_examples(fib_ring, ising_ring):
    assert fib_ring.rank == 2 and fib_ring.tensor[1, 1, 1] == 1
    assert ising_ring.rank == 3 and ising_ring.tensor[2, 2, 2] == 0
    k33 = bd.near_group([3], 3)
    assert k33.rank == 4
    t = hg.character_table(k33)
    d_rho = t.fp_dims().max()
    assert abs(d_rho - (3 + np.sqrt(21)) / 2) < 1e-9


def test_family_ring_examples():
    ty = bd.family_ring(2, [2, 2], [2])
    assert ty.rank == 5  # Tambara-Yamagami shape
    assert ty.flags.fusion_ring
    fam = bd.family_ring(2, [2, 2], [3])
    assert fam.rank == 6
    t = hg.character_table(fam)
    assert abs(hg.order(t) - 12) < 1e-8
    assert sorted(int(round(x)) for x in t.fp_dims()) == [1, 1, 1, 1, 2, 2]
    # n = 1 degenerates to the group ring of K
    triv = bd.family_ring(1, [], [5])
    assert triv.rank == 5 and triv.flags.fusion_ring
    table = hg.character_table(triv)
    assert np.allclose(table.fp_dims(), 1.0)


def test_family_ring_rejects_bad_orders():
    from hypergroups.errors import InvalidOrders

    with pytest.raises(InvalidOrders):
        bd.family_ring(2, [3], [2])


def test_serialize_roundtrip_bytes(ising_ring):
    text = bd.serialize(ising_ring)
    back = bd.parse(text)
    assert bd.serialize(back) == text


def test_serialize_rational_roundtrip():
    cl = bd.class_hypergroup(bd.catalog("S3"))
    back = bd.parse(bd.serialize(cl))
    assert (back.tensor == cl.tensor).all()


def test_text_format_roundtrip(ising_ring):
    text = bd.serialize_text(ising_ring)
    back = bd.parse_text(text, name="Ising")
    assert (back.tensor == ising_ring.tensor).all()
    assert back.involution == ising_ring.involution


def test_parse_text_ragged_row():
    with pytest.raises(ParseError) as exc:
        bd.parse_text("1 0\n0 1 1\n\n0 1\n1 0\n")
    assert exc.value.line == 2


def test_parse_rejects_nonassociative():
    # syntactically fine but non-associative document
    doc = bd.serialize(bd.ising())
    import json

    obj = json.loads(doc)
    obj["tensor"][2][2][1] = 7  # breaks associativity
    from hypergroups.errors import AxiomViolation

    with pytest.raises(AxiomViolation):
        bd.parse(json.dumps(obj))


def test_data1_file_loads_and_matches_enumeration():
    path = os.path.join(DATA_DIR, "type-1-1-1-1-2-2_data1.json")
    ring = bd.load(path)
    assert ring.rank == 6 and ring.flags.fusion_ring
    t = hg.character_table(ring)
    assert abs(hg.order(t) - 12) < 1e-8
    # paper-style text block parses to the same ring
    text_ring = bd.load(os.path.join(DATA_DIR, "type-1-1-1-1-2-2_data1.txt"))
    assert (text_ring.tensor == ring.tensor).all()
    assert text_ring.involution == ring.involution


def test_unverified_transcriptions_do_not_validate():
    facts = {
        # paper-stated scalar facts, asserted only if the block ever parses
        "rank7_fpdim798.unverified.txt": {"matrix": 2, "det": 16, "fpdim": 798},
        "rank10_det36.unverified.txt": {"matrix": 1, "det": 36, "fpdim": None},
    }
    for fname, fact in facts.items():
        path = os.path.join(DATA_DIR, fname)
        try:
            ring = bd.load(path)
        except (ParseError, HypergroupError):
            pytest.skip(f"{fname}: transcription damaged in source, skipping scalar facts")
        from hypergroups._exact import exact_det

        scale, C = ring.integer_tensor()
        det = abs(Fraction(exact_det(C[fact["matrix"]]), scale**ring.rank))
        assert det == fact["det"]


def test_enumerate_tiny_types():
    assert len(bd.enumerate_by_type([[1, 1]])) == 1
    assert len(bd.enumerate_by_type([[1, 2]])) == 1  # Z[Z2]
    assert len(bd.enumerate_by_type([1, 1, 1])) == 1  # Z[Z3]
    rings = bd.enumerate_by_type([1, 1, 1, 1])
    assert len(rings) == 2  # Z4 and Z2 x Z2


@pytest.mark.parametrize(
    "type_vector, reason",
    [
        ([1, 2.7], "dimension 2.7 is not an integer"),
        ([[1, 1], [2, 1.5]], "multiplicity 1.5 is not an integer"),
        ([[1, 1], [2, -3]], "multiplicity -3 is negative"),
    ],
)
def test_normalize_type_rejects_what_it_would_change(type_vector, reason):
    # each of these used to be truncated or dropped into another type
    with pytest.raises(InvalidType, match=reason):
        bd.normalize_type(type_vector)


def test_enumerate_type_112122():
    rings = bd.enumerate_by_type([1, 1, 1, 1, 2, 2])
    assert len(rings) == 4
    for r in rings:
        assert r.flags.fusion_ring
        t = hg.character_table(r)
        assert abs(hg.order(t) - 12) < 1e-8


def test_enumerate_canonicalization_idempotent():
    from hypergroups.builders.enumeration import _canonical_key, _relabelings

    rings = bd.enumerate_by_type([1, 1, 1, 1, 2, 2])
    dims = [1, 1, 1, 1, 2, 2]
    rel = _relabelings(dims)
    for r in rings:
        t = np.array(
            [[[int(r.tensor[i, j, k]) for k in range(6)] for j in range(6)] for i in range(6)],
            dtype=np.int64,
        )
        key = _canonical_key(t, rel)
        again = _canonical_key(np.array(key, dtype=np.int64).reshape(6, 6, 6), rel)
        assert key == again


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded):
        bd.enumerate_by_type([[1, 1], [10, 1]])  # 1 + 100 > 64
    with pytest.raises(BudgetExceeded):
        bd.enumerate_by_type([1, 1, 1, 1, 2, 2], budget=10)


# search nodes enumerate_by_type visits, recorded before the interval-step
# search; the tree, not only its output, must stay the same
SEARCH_NODES = {
    (1,) * 6: 213,
    (1,) * 6 + (3,): 349,
    (1,) + (2,) * 6: 111,
    (1,) * 6 + (2,) * 2: 2583,
    (1,) * 4 + (2,) * 2: 300,
    (1,) * 4 + (2,) * 3: 2680,
    (1,) * 2 + (2,) * 4: 1707,
    (1,) * 7: 734,
    (1,) * 8: 7487,
    (1,) * 8 + (2,) * 2: 195224,
}


def _ring_entries(rings):
    return [(r.name, list(r.involution), r.tensor.ravel().tolist()) for r in rings]


@pytest.mark.parametrize("dims", list(SEARCH_NODES), ids=lambda dims: "-".join(map(str, dims)))
def test_enumerate_visits_the_recorded_search_tree(dims):
    n = SEARCH_NODES[dims]
    rings = bd.enumerate_by_type(list(dims))
    assert _ring_entries(bd.enumerate_by_type(list(dims), budget=n)) == _ring_entries(rings)
    with pytest.raises(BudgetExceeded):
        bd.enumerate_by_type(list(dims), budget=n - 1)


@pytest.mark.parametrize(
    "dims", [[1] * 6, [1, 1, 1, 1, 2, 2], [1, 1, 1, 1, 2, 2, 2]], ids=lambda dims: "-".join(map(str, dims))
)
def test_class_index_relabels_each_class_once_and_never_trusts_a_fingerprint(dims, monkeypatch):
    from hypergroups.builders import enumeration

    gathers = []
    relabeled_rows = enumeration._relabeled_rows
    monkeypatch.setattr(
        enumeration, "_relabeled_rows", lambda *args: gathers.append(1) or relabeled_rows(*args)
    )
    rings = _ring_entries(bd.enumerate_by_type(dims))
    assert len(gathers) == len(rings)
    # every fingerprint collides: each hit must fail its exact comparison
    # unless the leaf really is that relabeling of that class
    monkeypatch.setattr(enumeration, "_fingerprint", lambda row: 0)
    assert _ring_entries(bd.enumerate_by_type(dims)) == rings


@pytest.mark.parametrize("dims", [[1] + [2] * 6, [1] * 6 + [2] * 2], ids=lambda dims: "-".join(map(str, dims)))
def test_a_type_with_no_ring_builds_no_relabelings(dims, monkeypatch):
    from hypergroups.builders import enumeration

    def refuse(dims):
        raise AssertionError("relabelings built for a type with no ring")

    monkeypatch.setattr(enumeration, "_relabelings", refuse)
    assert bd.enumerate_by_type(dims) == []


def _reference_orbits(m, sigma):
    # breadth-first orbits of entry triples under N_{ij}^k = N_{i*k}^j = N_{kj*}^i
    seen = np.full((m, m, m), -1, dtype=int)
    orbits = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if seen[i, j, k] >= 0:
                    continue
                orb = []
                stack = [(i, j, k)]
                oid = len(orbits)
                while stack:
                    t = stack.pop()
                    if seen[t] >= 0:
                        continue
                    seen[t] = oid
                    orb.append(t)
                    a, b, c = t
                    stack.append((sigma[a], c, b))
                    stack.append((c, sigma[b], a))
                orbits.append(orb)
    return orbits


def _reference_setup(m, d, sigma, orbits):
    # the element-by-element forced values, caps and row bookkeeping; None when
    # the involution admits no ring before the search starts
    forced_value = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if i == 0:
                    forced_value[(i, j, k)] = 1 if j == k else 0
                elif j == 0:
                    forced_value[(i, j, k)] = 1 if i == k else 0
                elif k == 0:
                    forced_value[(i, j, k)] = 1 if j == sigma[i] else 0
    orbit_value = [None] * len(orbits)
    variables = []
    for oid, orb in enumerate(orbits):
        vals = {forced_value[t] for t in orb if t in forced_value}
        if len(vals) > 1:
            return None
        if vals:
            orbit_value[oid] = vals.pop()
        else:
            variables.append(oid)
    caps = [min(int(d[a] * d[b] // d[c]) for a, b, c in orb) for orb in orbits]
    if any(v is not None and v > caps[oid] for oid, v in enumerate(orbit_value)):
        return None
    need = [int(d[r // m] * d[r % m]) for r in range(m * m)]
    rem = [0] * (m * m)
    weights = {}
    for oid, orb in enumerate(orbits):
        weights[oid] = {}
        for a, b, c in orb:
            weights[oid][a * m + b] = weights[oid].get(a * m + b, 0) + int(d[c])
            if orbit_value[oid] is None:
                rem[a * m + b] += caps[oid] * int(d[c])
            else:
                need[a * m + b] -= orbit_value[oid] * int(d[c])
    if any(x < 0 or x > y for x, y in zip(need, rem)):
        return None
    variables.sort(key=lambda oid: min(orbits[oid]))
    steps = []
    for oid in variables:
        for r, w in weights[oid].items():
            rem[r] -= caps[oid] * w
        steps.append((oid, sorted((r, w, rem[r]) for r, w in weights[oid].items())))
    return orbit_value, caps, steps, need


@pytest.mark.parametrize(
    "dims",
    [[1] * 6, [1] * 6 + [3], [1] + [2] * 6, [1] * 6 + [2] * 2, [1] * 4 + [2] * 2,
     [1] * 4 + [2] * 3, [1] * 2 + [2] * 4, [1] * 7, [1] * 6 + [2] * 3, [1] * 4 + [2] * 4],
    ids=lambda dims: "-".join(map(str, dims)),
)
def test_search_setup_matches_reference_loops(dims):
    from hypergroups.builders.enumeration import (
        _involution_representatives,
        _orbit_labels,
        _search_setup,
    )

    m = len(dims)
    d = np.array(dims, dtype=np.int64)
    for sigma in _involution_representatives(dims):
        orbits = _reference_orbits(m, sigma)
        oid_of = _orbit_labels(m, sigma)
        # the same partition, with the same ids
        assert oid_of.max() + 1 == len(orbits)
        for oid, orb in enumerate(orbits):
            assert all(oid_of[t] == oid for t in orb)
        want = _reference_setup(m, d, sigma, orbits)
        got = _search_setup(oid_of, d, sigma)
        if want is None:
            assert got is None, sigma
            continue
        orbit_value, caps, steps, need = want
        values, got_caps, got_steps, got_need = got
        assert got_caps == caps
        assert [values[o] for o, v in enumerate(orbit_value) if v is not None] == [
            v for v in orbit_value if v is not None
        ]
        assert [(o, sorted(rows)) for o, rows in got_steps] == steps
        assert got_need == need


def _reference_key(tensor, rel):
    # the plain definition: least raveled T[p, p, p] over every relabeling p
    return min(tuple(int(x) for x in tensor[np.ix_(p, p, p)].ravel()) for p in rel)


def test_canonical_key_matches_reference_and_is_invariant():
    from hypergroups.builders.enumeration import _canonical_key, _relabelings

    rng = np.random.default_rng(11)
    # [1^4] holds Z[C2 x C2], every relabeling of which is an automorphism;
    # [1^4, 2^2] and [1^4, 2^3] hold rings with smaller automorphism groups
    for dims in ([1, 1, 1, 1], [1] * 6, [1, 1, 1, 1, 2, 2], [1, 1, 1, 1, 2, 2, 2]):
        rel = _relabelings(dims)
        m = len(dims)
        for ring in bd.enumerate_by_type(dims):
            t = ring.tensor.astype(np.int64)
            key = _canonical_key(t, rel)
            assert key == _reference_key(t, rel)
            for q in rel[rng.choice(len(rel), size=min(len(rel), 5), replace=False)]:
                moved = t[np.ix_(q, q, q)]
                assert _canonical_key(moved, rel) == _reference_key(moved, rel) == key
            assert key == tuple(np.ravel(ring.tensor).tolist())  # rings come canonical
            assert len(key) == m**3


def _block_involutions(block):
    # every involution of a block as (a, b) swaps: block[0] fixed, then
    # block[0] swapped with each later member in turn
    if not block:
        yield []
        return
    a, rest = block[0], block[1:]
    yield from _block_involutions(rest)
    for t, b in enumerate(rest):
        for tail in _block_involutions(rest[:t] + rest[t + 1:]):
            yield [(a, b)] + tail


def _reference_involutions(dims):
    # every dimension-preserving involution fixing the unit, the first
    # block's swaps varying slowest
    from hypergroups.builders.enumeration import _blocks

    for swaps in product(*(list(_block_involutions(b)) for b in _blocks(dims))):
        sigma = list(range(len(dims)))
        for a, b in (pair for block in swaps for pair in block):
            sigma[a], sigma[b] = b, a
        yield tuple(sigma)


def _conjugate(p, sigma):
    # p sigma p^-1 as an index tuple
    return tuple(p[np.asarray(sigma)[np.argsort(p)]].tolist())


@pytest.mark.parametrize(
    "dims",
    [[1], [1, 1, 1, 1], [1] * 6, [1] * 6 + [3], [1] + [2] * 6, [1, 1, 1, 1, 2, 2, 2],
     [1] * 6 + [2] * 3],
    ids=lambda dims: "-".join(map(str, dims)),
)
def test_involution_representatives_one_per_class(dims):
    from hypergroups.builders.enumeration import _involution_representatives, _relabelings

    rel = _relabelings(dims)
    candidates = list(_reference_involutions(dims))
    reps = list(_involution_representatives(dims))
    # a block holds the non-unit basis elements of one dimension
    block_sizes = [dims.count(d) - (d == 1) for d in set(dims)]
    assert len(reps) == int(np.prod([n // 2 + 1 for n in block_sizes]))
    classes = [{_conjugate(p, sigma) for p in rel} for sigma in reps]
    for sigma in candidates:
        assert sum(sigma in cls for cls in classes) == 1
    for sigma, cls in zip(reps, classes):
        assert sigma in cls
        assert candidates.index(sigma) == min(candidates.index(c) for c in cls)


def test_class_hypergroup_is_dual_of_rep_ring(s3_rep):
    # dual(rep_ring(G)) agrees with the class hypergroup up to basis order
    a = hg.RingAnalysis(s3_rep)
    cl = bd.class_hypergroup(bd.catalog("S3"))
    assert sorted(np.round(a.orders_hat, 8)) == sorted(
        float(h) for h in hg.orders(cl)
    )
    tcl = hg.character_table(cl)
    tdd = a.dual.table
    assert np.allclose(sorted(tcl.codegrees), sorted(tdd.codegrees))


def test_corpus_size_and_validity(full_corpus):
    assert len(full_corpus) >= 25
    for ring in full_corpus:
        assert ring.flags.abelian, ring.name
