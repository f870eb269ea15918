"""The exact kernels that read the cached integer form C = L N agree with the
element-by-element Fraction code they replaced.

The references below are that code: the four-deep `multiply` loop, the
Fraction `einsum` of `regular_element` over the orders h_i and the chain of
`product_P` over the Fraction tensor; `exact_character` and `verify_fp_value`
are checked against the character equation and the left matrix L_x written
out in Fractions, with a Fraction determinant.  They run over the corpus,
over rescaled rings (L > 1), over Cl(G) (N_{ii*}^0 != 1), over rings whose
cached form holds Python ints (entries of 2^31 and more), and over vectors
with large denominators.
"""

import math
import random
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups import core
from hypergroups.builders import corpus
from hypergroups.errors import AxiomViolation
from hypergroups.tolerance import snap_value
from test_core import _overflowing_ring, _reference_character, _reference_det


def _reference_multiply(data, x, y):
    m = data.rank
    coords = [0] * m
    for i, xi in enumerate(x.coords):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coords):
            if yj == 0:
                continue
            row = data.tensor[i, j]
            for k in range(m):
                if row[k] != 0:
                    coords[k] = coords[k] + xi * yj * row[k]
    return hg.Element(tuple(coords))


def _reference_regular_element(data, indices=None):
    idx = np.arange(data.rank) if indices is None else np.asarray(indices, dtype=int)
    hs = np.array(hg.orders(data), dtype=data.tensor.dtype)[idx]
    rows = data.tensor[idx, np.array(data.involution)[idx]]
    return hg.Element(tuple(np.einsum("i,ik->k", hs, rows).tolist()))


def _reference_product_P(a):
    v = np.eye(a.data.rank, dtype=object)[0]
    for i in range(a.data.rank):
        v = v @ a.data.tensor[:, i, :]
    return hg.Element(tuple((v / Fraction(math.prod(a.exact_d))).tolist()))


def _reference_left_matrix(data, x):
    """L_x[k, j] = sum_l x_l N_{lj}^k as Fractions."""
    m = data.rank
    return [[sum(Fraction(x[l]) * data.tensor[l, j, k] for l in range(m)) for j in range(m)]
            for k in range(m)]


def _reference_verify_fp_value(data, x, candidate, tol):
    L = _reference_left_matrix(data, x)
    shifted = [[v - (candidate if k == j else 0) for j, v in enumerate(row)] for k, row in enumerate(L)]
    if _reference_det(shifted) != 0:
        return False
    perron = float(np.max(np.linalg.eigvals(np.array(L, dtype=float)).real))
    return abs(perron - candidate) <= tol.zero(1.0 + abs(candidate))


def _typed(element):
    return [(type(c), c) for c in element.coords]


def _rescaled(rng, ring, size):
    m, inv = ring.rank, ring.involution
    alphas = [Fraction(1)] * m
    for i in range(1, m):
        if i <= inv[i]:
            alphas[i] = alphas[inv[i]] = Fraction(
                rng.choice([-1, 1]) * rng.randint(1, size), rng.randint(2, size)
            )
    return hg.rescale(ring, alphas), alphas


def _huge():
    # N_11^0 = 2^62: the cached integer form holds Python ints
    return hg.FusionData("huge", [0, 1], [1, 0, 0, 1, 0, 1, 2**62, 0])


@pytest.fixture(scope="module")
def exact_rings():
    """The exact corpus, 12 rescaled corpus rings with L > 1, and two rings
    whose cached integer form is an object array."""
    rng = random.Random(19)
    base = [r for r in corpus() if r.is_exact]
    small = [r for r in base if r.rank <= 6]
    rescaled = [_rescaled(rng, rng.choice(small), rng.choice([10, 10**9]))[0] for _ in range(12)]
    rings = base + rescaled + [_overflowing_ring(), _huge()]
    assert all(r.integer_tensor()[0] > 1 for r in rescaled)
    assert {r.integer_tensor()[1].dtype for r in rings} == {np.dtype(np.int64), np.dtype(object)}
    # Cl(G): some N_{ii*}^0 is not 1
    assert any(r.tensor[i, r.involution[i], 0] != 1 for r in base for i in range(r.rank))
    return rings


def _vectors(rng, m):
    """Basis elements, the zero vector, and sparse and dense vectors whose
    denominators run to 10^15."""
    out = [[int(i == k) for k in range(m)] for i in range(m)] + [[0] * m]
    for size in (7, 10**15):
        for density in (0.3, 1.0):
            out.append([
                Fraction(rng.randint(-size, size), rng.randint(1, size))
                if rng.random() < density else 0
                for _ in range(m)
            ])
    return [hg.Element(tuple(v)) for v in out]


def test_multiply_matches_the_fraction_loop(exact_rings):
    rng = random.Random(7)
    for ring in exact_rings:
        vectors = _vectors(rng, ring.rank)
        for x in vectors:
            for y in rng.sample(vectors, 4):
                assert _typed(hg.multiply(ring, x, y)) == _typed(_reference_multiply(ring, x, y)), ring.name


def test_regular_element_matches_the_fraction_orders(exact_rings):
    rng = random.Random(11)
    for ring in exact_rings:
        m = ring.rank
        subsets = [None, [0]] + [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(3)]
        for indices in subsets:
            got = hg.regular_element(ring, indices)
            assert _typed(got) == _typed(_reference_regular_element(ring, indices)), ring.name
            floats = hg.FusionData(ring.name, ring.involution, ring.float_tensor())
            got = hg.regular_element(floats, indices).float_coords()
            want = _reference_regular_element(floats, indices).float_coords()
            assert got.tobytes() == want.tobytes(), ring.name


def test_product_P_matches_the_fraction_chain():
    checked = 0
    for ring in corpus():
        a = hg.RingAnalysis(ring)
        if not ring.is_exact or a.exact_d is None:
            continue
        assert _typed(bn.product_P(a)) == _typed(_reference_product_P(a)), ring.name
        checked += 1
    assert checked >= 30


def test_exact_character_matches_the_fraction_equation(corpus_with_tables):
    rng = random.Random(3)
    tol = hg.Tolerance()
    cases = []
    for ring, table in corpus_with_tables:
        if not ring.is_exact or ring.rank > 6:
            continue
        cols = [table.values[:, j].real for j in range(ring.rank)
                if np.abs(table.values[:, j].imag).max() <= 1e-9]
        cases.append((ring, cols))
        # a character mu of the ring is mu(x_i) / alpha_i on the basis x_i / alpha_i
        rescaled, alphas = _rescaled(rng, ring, 30)
        cases.append((rescaled, [c / np.array([float(x) for x in alphas]) for c in cols]))
    # x_1^2 = 2^62 x_0, whose characters take x_1 to +-2^31, on Python ints
    cases.append((_huge(), [np.array([1.0, 2.0**31]), np.array([1.0, -(2.0**31)])]))
    accepted = rejected = 0
    for ring, cols in cases:
        for col in cols + [cols[0] + np.eye(ring.rank)[-1] / 2]:
            got = core.exact_character(ring, col, tol)
            assert got == _reference_character(ring, col, tol), ring.name
            accepted += got is not None
            rejected += got is None
    assert accepted > 50 and rejected > 50


def _fp_candidates(ring, x, tol):
    """The snapped Perron value of L_x, when it snaps, and that value moved
    by 1/7; or a spurious 3/7 when it does not snap."""
    L = np.einsum("l,lkj->jk", np.array([float(c) for c in x]), ring.float_tensor())
    value = snap_value(float(np.max(np.linalg.eigvals(L).real)), tol)
    return [Fraction(3, 7)] if isinstance(value, float) else [value, value + Fraction(1, 7)]


def test_verify_fp_value_matches_the_fraction_left_matrix(exact_rings):
    rng = random.Random(5)
    tol = hg.Tolerance()
    verdicts = set()
    for ring in exact_rings:
        m = ring.rank
        rows = [ring.tensor[i, ring.involution[i]].tolist() for i in range(m)]
        dense = [Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12)) for _ in range(m)]
        for x in [hg.regular_element(ring).coords] + rows + [dense]:
            for candidate in _fp_candidates(ring, x, tol):
                seen = []
                eigvals = np.linalg.eigvals

                def recording(matrix):
                    seen.append(matrix.copy())
                    return eigvals(matrix)

                with patch.object(np.linalg, "eigvals", recording):
                    got = hg.verify_fp_value(ring, x, candidate, tol)
                assert got == _reference_verify_fp_value(ring, x, candidate, tol), ring.name
                verdicts.add(got)
                if seen:  # the determinant vanished: each Perron entry is its rational, rounded
                    want = np.array(_reference_left_matrix(ring, x), dtype=float)
                    assert seen[0].tobytes() == want.tobytes()
    assert verdicts == {True, False}


@pytest.mark.parametrize("dtype", [int, float])
def test_regular_element_rejects_a_zero_unit_coefficient(dtype):
    # x_1 x_1 = x_1: N_11^0 = 0, so h_1 = 1 / N_11^0 does not exist
    N = np.zeros((2, 2, 2), dtype=dtype)
    for ijk in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]:
        N[ijk] = 1
    ring = hg.FusionData("idempotent", [0, 1], N)
    with pytest.raises(AxiomViolation, match=r"\(1, 1, 0\)"):
        hg.regular_element(ring)
    assert hg.regular_element(ring, [0]).coords == (1, 0)
