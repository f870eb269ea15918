import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups import core, spectra
from hypergroups import structure as st
from hypergroups._exact import det_nonzero_mod_p, exact_det
from hypergroups.builders import (
    abelian_group,
    catalog,
    class_hypergroup,
    corpus,
    group_ring,
    ising,
    near_group,
    parse,
    rep_ring,
    serialize,
)
from hypergroups.errors import AxiomViolation, DimensionMismatch, InvalidRescale, NotNormalizable
from hypergroups.tolerance import DEFAULT_TOL, snap_value


def test_involution_of_keeps_each_callers_error():
    """One inference of i* from N_{ij}^0 behind parse_text, the enumerator and
    the dual; each keeps its own error class and message."""
    from hypergroups.builders import parse_text
    from hypergroups.dual import _involution_from_tensor
    from hypergroups.errors import DualAxiomViolation, ParseError

    assert core.involution_of(np.array([[1, 0, 0], [0, 0, 2], [0, 3, 0]], dtype=object)) == (0, 2, 1)
    with pytest.raises(AxiomViolation, match=r"involution violated at indices \(1,\)"):
        core.involution_of(np.array([[1, 0], [0, 0]]))
    with pytest.raises(ParseError, match=r"cannot infer involution for element 1: hits \[0, 1\]"):
        parse_text("1 0\n0 1\n\n1 1\n1 0\n")
    real = np.zeros((2, 2, 2))
    real[0, 0, 0] = real[1, 1, 0] = 1.0
    assert _involution_from_tensor(real, DEFAULT_TOL) == (0, 1)
    real[1, 0, 0] = 1e-3
    with pytest.raises(DualAxiomViolation, match=r"ambiguous at character 1: hits \[0, 1\]"):
        _involution_from_tensor(real, DEFAULT_TOL)
    real[1, 0, 0], real[1, 1, 0] = 1.0, 0.0
    with pytest.raises(DualAxiomViolation, match="dual involution is not a permutation"):
        _involution_from_tensor(real, DEFAULT_TOL)


def test_group_ring_z2_all_flags(z2_ring):
    f = z2_ring.flags
    assert f.symmetric and f.rational and f.real_non_negative
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


def _corrupt(ring, edits, involution=None):
    tensor = np.array(ring.tensor, dtype=object)
    for idx, v in edits.items():
        tensor[idx] = v
    return hg.FusionData(f"{ring.name}/corrupt", involution or ring.involution, tensor)


def _corrupted_rings():
    """Broken copies of corpus rings, each with the law and the first index
    tuple that `validate` names (recorded from the element-by-element loops)."""
    z6 = group_ring(catalog("C6"))  # x_i* = x_{6-i}
    z8 = group_ring(catalog("C8"))  # x_2 x_3 = x_5
    rep_s4 = rep_ring(catalog("S4"))
    rescaled = hg.rescale(
        rep_s4, [1, Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)]
    )
    cl_a5 = class_hypergroup(catalog("A5"))
    cl_sl23 = class_hypergroup(catalog("SL(2,3)"))  # x_3 x_4 = x_1/4 + 3 x_6/4
    flo = hg.rescale(ising(), [1.0, 1.0, math.sqrt(2)])
    z6f, z8f, cl_a5f = (_float_copy(r) for r in (z6, z8, cl_a5))
    return [
        # the unit loop checks (0, j, k) then (j, 0, k), row-major in (j, k)
        ("z6-unit-right", _corrupt(z6, {(3, 0, 2): 1, (0, 4, 4): 0}), "unit", (3, 0, 2)),
        ("z6-unit-left", _corrupt(z6, {(2, 0, 5): 1, (0, 2, 5): 1}), "unit", (0, 2, 5)),
        ("z6-off-involution", _corrupt(z6, {(4, 1, 0): 1, (2, 1, 0): 1}),
         "involution", (2, 1, 0)),
        ("z8-zero-on-involution", _corrupt(z8, {(3, 5, 0): 0, (4, 1, 0): 1}),
         "involution", (3, 5, 0)),
        ("z8-not-an-involution", _corrupt(z8, {}, [0, 7, 6, 5, 4, 2, 3, 1]),
         "involution", (2,)),
        ("z8-associativity", _corrupt(z8, {(2, 3, 5): 0, (2, 3, 6): 1}),
         "associativity", (1, 1, 3, 5)),
        ("rep-s4-associativity", _corrupt(rep_s4, {(3, 4, 1): 1, (4, 3, 1): 1}),
         "associativity", (1, 1, 3, 1)),
        ("cl-s4-unit", _corrupt(
            class_hypergroup(catalog("S4")), {(0, 2, 2): Fraction(1, 2), (0, 3, 1): Fraction(1, 2)}
        ), "unit", (0, 2, 2)),
        ("cl-a5-negative-on-involution", _corrupt(cl_a5, {(2, 2, 0): Fraction(-1, 3)}),
         "involution", (2, 2, 0)),
        ("cl-sl23-associativity", _corrupt(
            cl_sl23, {(3, 4, 1): Fraction(1, 4) + Fraction(1, 7), (3, 4, 6): Fraction(3, 4) - Fraction(1, 7)}
        ), "associativity", (1, 3, 4, 0)),
        ("rescaled-rep-s4-associativity", _corrupt(rescaled, {(2, 2, 3): Fraction(1, 11)}),
         "associativity", (1, 1, 2, 3)),
        ("ising-associativity", _corrupt(ising(), {(2, 2, 1): 2}),
         "associativity", (1, 2, 2, 0)),
        ("ising-float-associativity", _corrupt(flo, {(2, 2, 1): 0.5 + 1e-3}),
         "associativity", (1, 2, 2, 0)),
        ("z6-float-unit-right", _corrupt(z6f, {(3, 0, 2): 0.5, (0, 4, 4): 0.0}),
         "unit", (3, 0, 2)),
        ("z6-float-unit-left", _corrupt(z6f, {(2, 0, 5): 0.5, (0, 2, 5): 0.5}),
         "unit", (0, 2, 5)),
        # noise below tol.zero(max|N|) passes; the violation after it is named
        ("cl-a5-float-unit-past-noise", _corrupt(
            cl_a5f, {(0, 1, 1): 1 + 1e-12, (3, 0, 3): 1 - 1e-12, (0, 3, 3): 1 + 1e-3}
        ), "unit", (0, 3, 3)),
        ("z6-float-off-involution", _corrupt(z6f, {(4, 1, 0): 0.5, (2, 1, 0): 1e-6}),
         "involution", (2, 1, 0)),
        ("z8-float-zero-on-involution", _corrupt(z8f, {(3, 5, 0): 1e-12, (4, 1, 0): 0.5}),
         "involution", (3, 5, 0)),
        ("cl-a5-float-negative-on-involution", _corrupt(cl_a5f, {(2, 2, 0): -1 / 3}),
         "involution", (2, 2, 0)),
    ]


def _float_copy(ring):
    return hg.FusionData(f"{ring.name}/float", ring.involution, ring.float_tensor())


@pytest.mark.parametrize(
    "data, law, indices",
    [pytest.param(*case[1:], id=case[0]) for case in _corrupted_rings()],
)
def test_violation_names_first_failing_index(data, law, indices):
    with pytest.raises(AxiomViolation) as exc:
        hg.validate(data)
    assert (exc.value.law, exc.value.indices) == (law, indices)


def test_float_copies_flag_like_their_exact_rings(full_corpus):
    # a float tensor is never rational or a fusion ring; every other flag is
    # the exact ring's
    for ring in full_corpus:
        exact = ring.flags.as_dict()
        got = _float_copy(ring).flags.as_dict()
        assert (got.pop("rational"), got.pop("fusion_ring")) == (False, False)
        del exact["rational"], exact["fusion_ring"]
        assert got == exact, ring.name


def _reference_det(matrix):
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in np.asarray(matrix, dtype=object).tolist()]
    n, det = len(a), Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


def test_exact_det_matches_fraction_elimination(full_corpus):
    """exact_det takes integer matrices: the slices C_i of the cached integer
    form C = L N, with det C_i = L^m det N_i, and random Fraction matrices
    cleared by integer_form, whose determinant over L^n is theirs."""
    slices = [
        (ring, i)
        for ring in full_corpus
        if ring.scalar_kind == "rational"
        for i in range(ring.rank)
    ]
    for ring, i in slices:
        scale, C = ring.integer_tensor()
        assert exact_det(C[i]) == _reference_det(ring.tensor[i]) * scale**ring.rank
    matrices = [ring.integer_tensor()[1][i] for ring, i in slices]
    rng = random.Random(8)
    fractional = []
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
            for _ in range(n)
        ]
        if n > 1 and rng.random() < 0.25:  # a singular one: repeat a row
            rows[rng.randrange(1, n)] = rows[0][:]
        scale, cleared = core.integer_form(rows, terms=1)
        fractional.append((rows, scale, cleared))
        matrices.append(cleared)
    dets = [exact_det(mat) for mat in matrices]
    assert dets == [_reference_det(mat) for mat in matrices]
    assert all(type(d) is int for d in dets) and 0 in dets
    quotients = [Fraction(exact_det(c), scale ** len(rows)) for rows, scale, c in fractional]
    assert quotients == [_reference_det(rows) for rows, _, _ in fractional]
    assert any(q.denominator > 1 for q in quotients)


def test_exact_det_takes_integers_only():
    big = np.array([[2**70, 1], [3, 2**65]], dtype=object)
    assert exact_det(big) == 2**135 - 3
    assert exact_det(np.array([[2, 1], [1, 2]], dtype=np.int64)) == 3
    with pytest.raises(TypeError):
        exact_det(np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object))
    with pytest.raises(TypeError):
        exact_det(np.eye(2))


def _reference_outcome(data):
    """The flag set of an exact tensor, or the (law, indices) of its first
    violation, by the element-by-element int / Fraction loops."""
    m, N, inv = data.rank, data.tensor, data.involution
    for j in range(m):
        for k in range(m):
            want = int(j == k)
            if N[0, j, k] != want:
                return ("unit", (0, j, k))
            if N[j, 0, k] != want:
                return ("unit", (j, 0, k))
    for i in range(m):
        for j in range(m):
            if (not N[i, j, 0] > 0) if j == inv[i] else N[i, j, 0] != 0:
                return ("involution", (i, j, 0))
    for i, j, k, q in itertools.product(range(m), repeat=4):
        lhs = sum(N[i, j, p] * N[p, k, q] for p in range(m))
        rhs = sum(N[j, k, p] * N[i, p, q] for p in range(m))
        if lhs != rhs:
            return ("associativity", (i, j, k, q))
    rn = all(x >= 0 for x in N.ravel())
    return hg.FlagSet(
        symmetric=all(N[a, b, 0] == N[b, a, 0] for a in range(m) for b in range(m)),
        normalized=all(sum(N[a, b, :]) == 1 for a in range(m) for b in range(m)),
        rational=True,
        real_non_negative=rn,
        abelian=all(N[a, b, k] == N[b, a, k] for a, b, k in np.ndindex(m, m, m)),
        fusion_ring=rn
        and all(isinstance(x, int) for x in N.ravel())
        and all(N[i, inv[i], 0] == 1 for i in range(m)),
        h_integral=all(1 / Fraction(N[i, inv[i], 0]) % 1 == 0 for i in range(m)),
    )


def _outcome(data):
    try:
        return hg.validate(data)
    except AxiomViolation as exc:
        return (exc.law, exc.indices)


_integer_tensor = core.FusionData.integer_tensor


def _both_paths(data):
    """validate's outcome on the integer form as chosen, then on the same
    integer form held as Python ints."""
    native = _outcome(data)
    seen = []
    bracketings = core.bracketings

    def as_python_ints(self):
        scale, cleared = _integer_tensor(self)
        seen.append("integer_tensor")
        return scale, cleared.astype(object)

    def recording(tensor):
        seen.append(tensor.dtype)
        return bracketings(tensor)

    with patch.object(core.FusionData, "integer_tensor", as_python_ints), patch.object(
        core, "bracketings", recording
    ):
        forced = _outcome(data)
    # validate read the seam once, and the associativity kernel (when the
    # unit and involution laws let it run) saw the Python ints
    assert seen[0] == "integer_tensor" and seen[1:] in ([], [np.dtype(object)])
    return native, forced


def _reference_rescale(data, alphas):
    m = data.rank
    out = np.empty((m, m, m), dtype=object)
    for i, j, k in np.ndindex(m, m, m):
        out[i, j, k] = Fraction(data.tensor[i, j, k]) * alphas[k] / (alphas[i] * alphas[j])
    return out


def _overflowing_ring():
    # K(Rep(S3)) on the basis x_i / alpha_i with 31-bit coprime numerators and
    # denominators: L alone exceeds 2^62
    s3 = rep_ring(catalog("S3"))
    alphas = [1, Fraction(2**31 - 1, 3**19), Fraction(2**31 - 19, 5**13)]
    return hg.rescale(s3, alphas)


def test_overflowing_ring_takes_the_object_path():
    ring = _overflowing_ring()
    scale, cleared = core.integer_form(ring.tensor, terms=ring.rank)
    assert cleared.dtype == object and scale >= 2**62
    assert all(type(x) is int for x in cleared.ravel())
    assert hg.validate(ring) == _reference_outcome(ring)

    broken = _corrupt(ring, {(1, 2, 1): ring.tensor[1, 2, 1] + Fraction(1, 2**40)})
    assert _outcome(broken) == _reference_outcome(broken)
    assert _outcome(broken)[0] == "associativity"


def test_integer_form_switches_on_magnitude():
    _, small = core.integer_form([Fraction(1, 2), 3], terms=4)
    assert small.dtype == np.int64 and small.tolist() == [1, 6]
    # 4 * (2^30)^2 = 2^62 no longer fits
    _, big = core.integer_form([2**30, 1], terms=4)
    assert big.dtype == object
    # without `terms`, always Python ints
    scale, plain = core.integer_form([Fraction(1, 2), 3])
    assert scale == 2 and plain.dtype == object and all(type(x) is int for x in plain)


def test_relabeled_rescaled_corpus_rings_agree_on_both_paths(full_corpus):
    rng = random.Random(20231)
    rings = [r for r in full_corpus if r.is_exact and r.rank <= 6]
    dtypes, outcomes = set(), set()
    for _ in range(24):
        ring = rng.choice(rings)
        m, inv = ring.rank, ring.involution
        perm = [0] + rng.sample(range(1, m), m - 1)
        where = {p: i for i, p in enumerate(perm)}
        relabeled = hg.FusionData(
            ring.name,
            [where[inv[p]] for p in perm],
            ring.tensor[np.ix_(perm, perm, perm)],
        )
        assert _both_paths(relabeled) == (ring.flags, ring.flags)

        # small scalars keep the integer form in int64, large ones do not
        size = rng.choice([10, 10**9])
        alphas = [Fraction(1)] * m
        for i in range(1, m):
            if i <= relabeled.involution[i]:
                alphas[i] = alphas[relabeled.involution[i]] = Fraction(
                    rng.choice([-1, 1]) * rng.randint(1, size), rng.randint(1, size)
                )
        data = hg.rescale(relabeled, alphas)
        assert (data.tensor == _reference_rescale(relabeled, alphas)).all()
        dtypes.add(core.integer_form(data.tensor, terms=m)[1].dtype)
        expected = _reference_outcome(data)
        assert isinstance(expected, hg.FlagSet)
        assert _both_paths(data) == (expected, expected)

        i, j, k = rng.randrange(1, m), rng.randrange(1, m), rng.randrange(m)
        broken = _corrupt(data, {(i, j, k): data.tensor[i, j, k] + Fraction(1, 7)})
        expected = _reference_outcome(broken)
        assert _both_paths(broken) == (expected, expected)
        outcomes.add(expected[0] if isinstance(expected, tuple) else "valid")
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    assert {"associativity", "involution"} <= outcomes


def _reference_character(data, values, tol):
    snapped = [snap_value(float(v), tol) for v in values]
    if any(isinstance(s, float) for s in snapped):
        return None
    m = data.rank
    for i in range(m):
        for j in range(m):
            lhs = sum(Fraction(data.tensor[i, j, k]) * snapped[k] for k in range(m))
            if lhs != Fraction(snapped[i]) * snapped[j]:
                return None
    return snapped


def test_exact_character_matches_reference_loop(corpus_with_tables):
    accepted = rejected = 0
    for ring, table in corpus_with_tables:
        if not ring.is_exact:
            continue
        for j in range(ring.rank):
            col = table.values[:, j]
            if np.abs(col.imag).max() > 1e-9:
                continue
            got = core.exact_character(ring, col.real, table.tol)
            assert got == _reference_character(ring, col.real, table.tol)
            accepted += got is not None
            rejected += got is None
        # a value off by 1/2 satisfies no character equation
        wrong = table.fp_dims() + np.eye(ring.rank)[-1] / 2
        assert core.exact_character(ring, wrong, table.tol) is None
    assert accepted and rejected


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda r, a: hg.multiply(r, hg.Element((1, 0)), hg.basis_element(r, 1)),
         "element length != rank"),
        (lambda r, a: hg.generated_sub(a, hg.Element((1, 0, 0, 1))), "element length != rank"),
        (lambda r, a: hg.kernel_of_element(a, hg.Element((1, 0))), "element length != rank"),
        (lambda r, a: hg.verify_fp_value(r, (1, 0), 1), "element length != rank"),
        (lambda r, a: hg.regular_element(r, [0, 5]), r"indices \[5\] are out of range for rank 3"),
        (lambda r, a: hg.regular_element(r, [-1]), r"indices \[-1\] are out of range for rank 3"),
        # a negative index does not wrap to the last basis element or character
        (lambda r, a: hg.basis_element(r, 3), r"indices \[3\] are out of range for rank 3"),
        (lambda r, a: hg.basis_element(r, -1), r"indices \[-1\] are out of range for rank 3"),
        (lambda r, a: hg.kernel_of_character(a, 3), r"indices \[3\] are out of range for rank 3"),
        (lambda r, a: hg.kernel_of_character(a, -1), r"indices \[-1\] are out of range for rank 3"),
        (lambda r, a: st.center_of_element(a, 3), r"indices \[3\] are out of range for rank 3"),
        (lambda r, a: st.center_of_element(a, -1), r"indices \[-1\] are out of range for rank 3"),
        # a float is not truncated to an index, and a bool is not an index
        (lambda r, a: hg.regular_element(r, [1.7]), r"indices \[1.7\] are out of range for rank 3"),
        (lambda r, a: hg.regular_element(r, [True]), r"indices \[True\] are out of range for rank 3"),
        (lambda r, a: hg.basis_element(r, 1.5), r"indices \[1.5\] are out of range for rank 3"),
        (lambda r, a: hg.kernel_of_character(a, 1.5), r"indices \[1.5\] are out of range for rank 3"),
        (lambda r, a: st.center_of_element(a, 1.5), r"indices \[1.5\] are out of range for rank 3"),
        (lambda r, a: st.center_of_element(a, False), r"indices \[False\] are out of range for rank 3"),
    ],
    ids=["multiply", "generated_sub", "kernel_of_element", "verify_fp_value",
         "regular_element", "regular_element_negative", "basis_element", "basis_element_negative",
         "kernel_of_character", "kernel_of_character_negative", "center_of_element",
         "center_of_element_negative", "regular_element_float", "regular_element_bool",
         "basis_element_float", "kernel_of_character_float", "center_of_element_float",
         "center_of_element_bool"],
)
def test_an_element_of_the_wrong_length_is_a_dimension_mismatch(ising_ring, call, message):
    with pytest.raises(DimensionMismatch, match=message):
        call(ising_ring, hg.RingAnalysis(ising_ring))


def test_a_repeated_index_counts_once(ising_ring):
    """regular_element and integral_element_of_subset sum over a set S."""
    assert hg.regular_element(ising_ring, [1, 1]) == hg.regular_element(ising_ring, [1])
    assert hg.regular_element(ising_ring, [1, 1]).coords == (1, 0, 0)
    lam = spectra.integral_element_of_subset(hg.RingAnalysis(ising_ring), [0, 1, 1])
    assert np.allclose(lam.float_coords(), [0.5, 0.5, 0.0], rtol=0, atol=1e-12)


def _tau(data, i, j):
    """tau(x_i x_j*): the unit coordinate of multiply(x_i, x_{j*})."""
    x, ystar = hg.basis_element(data, i), hg.basis_element(data, data.involution[j])
    return hg.multiply(data, x, ystar).coords[0]


def test_tau_pairing(ising_ring):
    rho = hg.basis_element(ising_ring, 2)
    one = hg.basis_element(ising_ring, 0)
    assert _tau(ising_ring, 2, 2) == 1
    # rho^2 = 1 + psi is self-adjoint, so tau(1 (rho^2)*) is its unit coordinate
    rho_sq = hg.multiply(ising_ring, rho, rho)
    assert hg.multiply(ising_ring, one, rho_sq).coords[0] == 1


def test_tau_is_kronecker_over_h(q8_rep):
    # m(x_i, x_j) = delta_ij / h_i; fusion ring so h_i = 1
    m = q8_rep.rank
    for i in range(m):
        for j in range(m):
            assert _tau(q8_rep, i, j) == (1 if i == j else 0)


def test_tau_on_class_hypergroup():
    cl = class_hypergroup(catalog("S3"))
    hs = hg.orders(cl)
    for i in range(cl.rank):
        assert _tau(cl, i, i) == Fraction(1, 1) / hs[i]


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
    n0 = hg.order(ising_table)
    for _ in range(5):
        alphas = [1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))]
        re = hg.rescale(ising_ring, alphas)
        tab = hg.character_table(re)
        assert abs(hg.order(tab) - n0) < 1e-8


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


def _reference_components(n, edges):
    # depth-first search from each vertex in turn, so components come ordered
    # by their least members
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    comp = [-1] * n
    count = 0
    for v in range(n):
        if comp[v] < 0:
            stack = [v]
            while stack:
                u = stack.pop()
                if comp[u] < 0:
                    comp[u] = count
                    stack.extend(adj[u])
            count += 1
    return comp


def test_components_match_a_depth_first_reference():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        a, b = rng.integers(0, n, size=(2, int(rng.integers(0, 2 * n))))
        got = core.components(n, a, b).tolist()
        assert got == _reference_components(n, zip(a.tolist(), b.tolist()))


def _reference_entries(tensor) -> tuple[list, bool, str]:
    """FusionData's scalars by the per-entry rule: the entries, is_exact and
    scalar_kind as they were before construction dispatched on dtype."""
    entries = [core._coerce_scalar(x) for x in np.asarray(tensor, dtype=object).ravel()]
    if any(isinstance(x, float) for x in entries):
        return [float(x) for x in entries], False, "float"
    kind = "rational" if any(isinstance(x, Fraction) for x in entries) else "integer"
    return entries, True, kind


def _mixed(last):
    """A 2 x 2 x 2 nest of lists mixing int, Fraction(4, 2), np.int64 and `last`."""
    return [[[1, Fraction(4, 2)], [np.int64(3), 0]], [[Fraction(6, 3), np.int64(-2)], [7, last]]]


CONSTRUCTION_INPUTS = {
    "int64": np.arange(-13, 14, dtype=np.int64).reshape(3, 3, 3),
    "uint8": np.arange(250, 258, dtype=np.int64).astype(np.uint8).reshape(2, 2, 2),
    "bool": (np.arange(27) % 4 == 0).reshape(3, 3, 3),
    "float32": (np.arange(8, dtype=np.float32) / 3).reshape(2, 2, 2),
    "float64": (np.arange(27, dtype=np.float64) / 7 - 1).reshape(3, 3, 3),
    "int object": np.array([2**70, -(2**70), 0, 1, 2, 3, 4, 5], dtype=object),
    "mixed with int": _mixed(5),
    "mixed with Fraction": _mixed(Fraction(1, 3)),
    "mixed with float": _mixed(0.25),
}


@pytest.mark.parametrize("case", list(CONSTRUCTION_INPUTS))
def test_construction_matches_the_per_entry_rule(case):
    tensor = CONSTRUCTION_INPUTS[case]
    entries, exact, kind = _reference_entries(tensor)
    m = round(len(entries) ** (1 / 3))
    data = hg.FusionData(case, range(m), tensor)
    assert (data.is_exact, data.scalar_kind) == (exact, kind)
    assert data.tensor.shape == (m, m, m) and not data.tensor.flags.writeable
    got = data.tensor.ravel().tolist()
    assert got == entries
    assert [type(x) for x in got] == [type(x) for x in entries]
    assert data.tensor.dtype == (object if exact else np.float64)
    assert np.array_equal(data.float_tensor().ravel(), [float(x) for x in entries])


@pytest.mark.parametrize(
    "tensor",
    [
        np.array([1.0, 2.0, np.inf, 0.0, np.nan, 1.0, 1.0, 1.0]),
        [1, Fraction(1, 2), np.float64(np.inf), 0, float("nan"), 1, 1, 1],
        [1, 2, float("inf"), 0, float("nan"), 1, 1, 1],
    ],
    ids=["float64", "mixed object", "int and float"],
)
def test_construction_names_the_first_non_finite_entry(tensor):
    with pytest.raises(ValueError, match=r"^non-finite scalar inf$"):
        hg.FusionData("bad", [0, 1], tensor)


def test_construction_rejects_a_string_entry():
    with pytest.raises(TypeError, match="unsupported scalar type str"):
        hg.FusionData("bad", [0, 1], [1, 0, 0, 1, 0, "1", 1, 0])


@pytest.mark.parametrize(
    "tensor",
    [
        np.arange(8, dtype=np.int64).reshape(2, 2, 2),
        np.arange(8, dtype=np.float64).reshape(2, 2, 2),
        np.array([1, Fraction(1, 2), 0, 1, 0, 1, 1, 0], dtype=object).reshape(2, 2, 2),
    ],
    ids=["int64", "float64", "object"],
)
def test_construction_copies_the_callers_array(tensor):
    data = hg.FusionData("copy", [0, 1], tensor)
    before = data.tensor.tolist()
    tensor[0, 0, 0] = 99
    assert data.tensor.tolist() == before


# ------------------------------------------------ exact kernels on whole arrays


def test_cached_integer_form_is_the_integer_form(full_corpus):
    huge = hg.FusionData("huge", [0, 1], [1, 0, 0, 1, 0, 1, 2**62, 0])
    rings = [r for r in full_corpus if r.is_exact] + [_overflowing_ring(), huge]
    for ring in rings:
        scale, cleared = core.integer_form(ring.tensor, terms=ring.rank)
        got_scale, got = ring.integer_tensor()
        assert got_scale == scale and got.dtype == cleared.dtype, ring.name
        assert got.tolist() == cleared.tolist() and ring.integer_tensor()[1] is got
    assert huge.integer_tensor()[1].dtype == object


def _reference_bracketings(tensor):
    t = np.asarray(tensor).astype(object)
    return np.tensordot(t, t, axes=(2, 0)), np.tensordot(t, t, axes=(2, 1)).transpose(2, 0, 1, 3)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_float_bracketings_are_exact_below_2_to_the_53(m):
    rng = np.random.default_rng(m)
    under = math.isqrt((2**53 - 1) // m)  # m * under^2 < 2^53 <= m * (under + 1)^2
    for bound, dtype in ((under, np.float64), (under + 1, np.int64)):
        # entries near +-bound, so the sums of products reach m * bound^2
        tensor = rng.integers(bound - 50, bound, size=(m, m, m), endpoint=True)
        tensor *= rng.choice([-1, 1], size=(m, m, m))
        tensor.flat[0] = bound
        lhs, rhs = core.bracketings(tensor)
        assert lhs.dtype == rhs.dtype == dtype
        ref_lhs, ref_rhs = _reference_bracketings(tensor)
        assert lhs.astype(np.int64).tolist() == ref_lhs.tolist()
        assert rhs.astype(np.int64).tolist() == ref_rhs.tolist()
        assert np.abs(ref_lhs).max() > 2**52


def test_bracketings_stay_exact_at_2_to_the_53():
    # m B^2 = 2 * (2^26)^2 = 2^53 exactly: the int64 product
    tensor = np.full((2, 2, 2), 2**26, dtype=np.int64)
    lhs, rhs = core.bracketings(tensor)
    assert lhs.dtype == np.int64 and lhs.tolist() == _reference_bracketings(tensor)[0].tolist()
    lhs, _ = core.bracketings(tensor - 1)
    assert lhs.dtype == np.float64
    # object tensors keep the Python-int product at any size
    assert core.bracketings(tensor.astype(object) - 1)[0].dtype == object


def _screen_cases():
    from test_golden import NEAR_GROUPS

    return (
        [r for r in corpus() if r.is_exact]
        + [near_group(g, k) for g in NEAR_GROUPS for k in range(6)]
        + [group_ring(abelian_group([n])) for n in range(1, 33)]
    )


def test_modular_screen_agrees_with_bareiss_on_zero_versus_non_zero():
    rings = _screen_cases()
    assert len(rings) == 39 + 96 + 32
    verdicts = set()
    for ring in rings:
        C = ring.integer_tensor()[1]
        screen = det_nonzero_mod_p(C)
        dets = [exact_det(C[i]) for i in range(ring.rank)]
        assert screen.tolist() == [d != 0 for d in dets], ring.name
        verdicts.update(screen.tolist())
    assert verdicts == {True, False}


def test_zero_residue_with_a_non_zero_determinant_falls_back_to_bareiss(s3_rep):
    p = 2**31 - 1
    matrix = np.array([[2, 1], [1, 2**30]])  # det = 2^31 - 1
    assert exact_det(matrix) == p
    assert det_nonzero_mod_p(matrix[None]).tolist() == [False]
    assert det_nonzero_mod_p(np.array([[[p, 0], [0, 1]]], dtype=object)).tolist() == [False]

    # every residue zero, as when P divides every determinant: Bareiss decides
    a = hg.RingAnalysis(s3_rep)
    expected = bn.vanishing_elements(a)
    with patch.object(bn, "det_nonzero_mod_p", lambda c: np.zeros(len(c), dtype=bool)), patch.object(
        bn, "exact_det", wraps=exact_det
    ) as spy:
        assert bn.vanishing_elements(a) == expected
    assert spy.call_count == s3_rep.rank
    assert len(expected) < s3_rep.rank  # some element is reported as non-zero
