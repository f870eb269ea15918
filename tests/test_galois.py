import math
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

import hypergroups as hg
from hypergroups import galois as ga
from hypergroups.builders import (
    abelian_group,
    catalog,
    catalog_names,
    class_hypergroup,
    corpus,
    fibonacci,
    group_ring,
    near_group,
    rep_ring,
)
from hypergroups.core import exact_character, integer_form
from hypergroups.errors import HypergroupError, NoValidPartition
from hypergroups.report import analyze
from hypergroups.tolerance import DEFAULT_TOL, snap_array, snap_value
from conftest import PHI
from test_golden import NEAR_GROUPS


def test_orbits_s3_all_singletons(s3_rep):
    part = ga.galois_orbits(hg.RingAnalysis(s3_rep))
    assert part.orbits == ((0,), (1,), (2,))
    assert all(part.rational_mask)


def test_orbits_fibonacci(fib_ring, fib_table):
    part = ga.galois_orbits(hg.RingAnalysis(fib_ring))
    assert part.orbits == ((0, 1),)
    assert not any(part.rational_mask)
    # symmetric functions: sum of roots 1, product -1 at rho
    rho_vals = fib_table.values[1, :]
    assert abs(rho_vals.sum() - 1) < 1e-9
    assert abs(rho_vals.prod() + 1) < 1e-9


def test_orbits_ising(ising_ring, ising_table):
    part = ga.galois_orbits(hg.RingAnalysis(ising_ring))
    paired = next(o for o in part.orbits if len(o) == 2)
    single = next(o for o in part.orbits if len(o) == 1)
    # the +-sqrt(2) columns pair up; the (1,-1,0) column is rational
    assert abs(ising_table.values[2, paired[0]] + ising_table.values[2, paired[1]]) < 1e-9
    assert abs(ising_table.values[2, single[0]]) < 1e-9


def test_orbits_rejects_irrational_tensor(fib_ring):
    floaty = hg.FusionData(
        "irr", [0, 1], [[[1.0, 0], [0, 1]], [[0, 1], [1, math.sqrt(2)]]]
    )
    with pytest.raises(HypergroupError):
        ga.galois_orbits(hg.RingAnalysis(floaty))


def test_singleton_orbits_are_exactly_rational_characters(corpus_with_tables):
    for ring, table in corpus_with_tables:
        if not ring.flags.rational:
            continue
        part = ga.galois_orbits(hg.RingAnalysis(ring))
        for j in range(ring.rank):
            col = table.values[:, j]
            # rational: real, and snaps to a solution of the character equation
            rational = (
                np.abs(col.imag).max() < 1e-9
                and exact_character(ring, col.real) is not None
            )
            assert part.rational_mask[j] == rational, (ring.name, j)
            assert (len(next(o for o in part.orbits if j in o)) == 1) == rational, (ring.name, j)


def test_rep_ring_orbit_polynomials_integer(full_corpus):
    # each orbit's idempotent sum is exactly rational: its certificate is float noise
    for ring in full_corpus:
        if not ring.name.startswith("K(Rep("):
            continue
        part = ga.galois_orbits(hg.RingAnalysis(ring))
        for orb, resid in part.certificates.items():
            assert resid < 1e-7, (ring.name, orb)


def test_codegree_conjugation(fib_ring, fib_table, ising_ring):
    fib = hg.RingAnalysis(fib_ring)
    assert ga.check_codegree_conjugation(fib, ga.galois_orbits(fib)) is None
    # n1 * n2 = (1 + phi^2)(1 + phi^-2) = 5
    prod = fib_table.codegrees.prod()
    assert abs(prod - 5) < 1e-8
    ising = hg.RingAnalysis(ising_ring)
    part = ga.galois_orbits(ising)
    ga.check_codegree_conjugation(ising, part)
    # the dual orders the check holds constant on Ising's 2-orbit
    paired = next(o for o in part.orbits if len(o) == 2)
    hs = ising.dual.table.h[list(paired)]
    assert ising.dual.flags.h_integral
    assert abs(hs - hs[0]).max() < 1e-9


def test_weak_integrality_examples(s3_rep, ising_ring, fib_ring):
    assert ga.weak_integrality(hg.RingAnalysis(s3_rep)) == "integral"
    assert ga.weak_integrality(hg.RingAnalysis(ising_ring)) == "weakly_integral"
    assert ga.weak_integrality(hg.RingAnalysis(fib_ring)) == "irrational"


def test_weak_integrality_theorem_guard(corpus_with_tables):
    # rational + RN + dual-Burnside implies at least weakly rational
    for ring, table in corpus_with_tables:
        if table.fp_index is None:
            continue
        a = hg.RingAnalysis(ring)
        dual_burn, _ = a.dual_burnside
        verdict = ga.weak_integrality(a)
        if dual_burn and ring.flags.rational and ring.flags.real_non_negative:
            assert verdict in ("integral", "weakly_integral", "weakly_rational"), ring.name


def test_h_integral_dual_order_sum(corpus_with_tables):
    for ring, table in corpus_with_tables:
        a = hg.RingAnalysis(ring)
        if not a.dual.flags.h_integral:
            continue
        total = snap_value(float(a.orders_hat.sum()))
        assert isinstance(total, int), ring.name
        assert abs(total - hg.order(table)) < 1e-8, ring.name


def test_fp_singleton_orbit_iff_rational_fpdim(corpus_with_tables):
    for ring, table in corpus_with_tables:
        if not ring.flags.rational or table.fp_index is None:
            continue
        a = hg.RingAnalysis(ring)
        fp_orbit = next(o for o in ga.galois_orbits(a).orbits if table.fp_index in o)
        # the FP character is fixed by the Galois action iff its values are
        # rational, and then FPdim = sum h_i d_i^2 is read off exactly
        assert (len(fp_orbit) == 1) == (a.exact_d is not None), ring.name
        if a.exact_d is not None:
            assert not isinstance(a.fpdim, float), ring.name


def _factor_orbits(ring, table) -> tuple:
    """Galois orbits from exact algebra: the characters grouped by the
    irreducible factor over Q of the characteristic polynomial of L_x that
    vanishes at mu_j(x), for a generic integer x = sum c_i x_i (redrawn until
    the polynomial is square-free, so that x separates the characters)."""
    sympy = pytest.importorskip("sympy")
    m = ring.rank
    N = [[[sympy.Rational(str(ring.tensor[i, j, k])) for k in range(m)]
          for j in range(m)] for i in range(m)]
    rng = np.random.default_rng(0)
    while True:
        c = [int(v) for v in rng.integers(-9, 10, size=m)]
        L = sympy.Matrix(m, m, lambda k, j: sum(c[i] * N[i][j][k] for i in range(m)))
        poly = L.charpoly()
        if poly.gcd(poly.diff()).degree() == 0:
            break
    factors = [f for f, _ in poly.factor_list()[1]]
    roots = [np.roots([float(q) for q in f.all_coeffs()]) for f in factors]
    lam = np.asarray(c, dtype=float) @ table.values
    owner = []
    for j in range(m):
        dist = [np.abs(r - lam[j]).min() for r in roots]
        assert min(dist) < 1e-6 * (1 + abs(lam[j])), (ring.name, j)
        owner.append(int(np.argmin(dist)))
    orbits = [tuple(j for j in range(m) if owner[j] == f) for f in range(len(factors))]
    assert [len(o) for o in orbits] == [f.degree() for f in factors], ring.name
    return tuple(sorted(orbits))


def _oracle_rings():
    """(ring, tolerance) pairs: the 96 near-groups, the rational corpus at
    the default tolerance and at 1e-8, and Z[C_n] for n <= 14."""
    from test_golden import NEAR_GROUPS

    loose = hg.Tolerance(abs=1e-8, rel=1e-8)
    cases = [(near_group(g, k), DEFAULT_TOL) for g in NEAR_GROUPS for k in range(6)]
    cases += [(r, t) for r in corpus() if r.flags.rational for t in (DEFAULT_TOL, loose)]
    cases += [(group_ring(abelian_group([n])), DEFAULT_TOL) for n in range(2, 15)]
    return cases


def test_orbits_match_factors_of_exact_characteristic_polynomial():
    pytest.importorskip("sympy")
    wrong = []
    for ring, tol in _oracle_rings():
        a = hg.RingAnalysis(ring, tol=tol)
        try:
            got = ga.galois_orbits(a).orbits
        except HypergroupError as exc:
            got = type(exc).__name__
        if got != _factor_orbits(ring, a.table):
            wrong.append((ring.name, tol.abs, got))
    assert not wrong


@pytest.mark.parametrize(
    "ring, tol, orbits",
    [
        (class_hypergroup(catalog("C5")), 1e-8, ((0,), (1, 2, 3, 4))),
        (fibonacci(), 1e-8, ((0, 1),)),
        (near_group([2], 3), 1e-9, ((0, 2), (1,))),
    ],
)
def test_orbits_of_irrational_characters(ring, tol, orbits):
    # at these tolerances a bounded-denominator snap takes sqrt(5) and
    # (3 + sqrt(17)) / 2 for rationals; the exact idempotent test does not
    a = hg.RingAnalysis(ring, tol=hg.Tolerance(abs=tol, rel=tol))
    assert ga.galois_orbits(a).orbits == orbits


def test_near_group_k_c6_4_analyses():
    report = analyze(near_group([6], 4))
    assert report.galois["orbits"] == [[0, 6], [1], [2, 3], [4, 5]]


def test_weak_integrality_near_groups_closed_form():
    # K(G, m) with |G| = n: FPdim = 2n + m d, d = (m + sqrt(m^2 + 4n)) / 2
    from test_golden import NEAR_GROUPS

    for g in NEAR_GROUPS:
        n = math.prod(g)
        for k in range(6):
            verdict = ga.weak_integrality(hg.RingAnalysis(near_group(g, k)))
            irrational = k > 0 and math.isqrt(k * k + 4 * n) ** 2 != k * k + 4 * n
            assert (verdict == "irrational") == irrational, (g, k, verdict)


def test_verify_fpdim_rejects_spurious_fraction():
    # FPdim K(C2, 2) = 6 + 2 sqrt(3); snap_value returns 51409/5432 for it
    ring = near_group([2], 2)
    spurious = snap_value(hg.order(hg.character_table(ring)))
    assert spurious == Fraction(51409, 5432)
    assert not hg.verify_fp_value(ring, hg.regular_element(ring).coords, spurious)
    assert hg.RingAnalysis(ring).fpdim == pytest.approx(6 + 2 * math.sqrt(3))


def test_dim_squares_reject_spurious_fraction():
    # d_rho^2 = 4 + 2 sqrt(3) in K(C2, 2); snap_value returns 40545/5432 for it
    ring = near_group([2], 2)
    a = hg.RingAnalysis(ring)
    rho = 2
    assert snap_value(a.d[rho] ** 2) == Fraction(40545, 5432)
    assert isinstance(a.dim_squares[rho], float)
    assert a.dim_squares[rho] == pytest.approx(4 + 2 * math.sqrt(3))
    assert a.dim_squares[:rho] == [1, 1]


def reference_galois_orbits(a) -> ga.OrbitPartition:
    """`galois_orbits` with the certificate that snaps the stacked imaginary
    and real parts of E_O together and then asks the imaginary row to be 0."""
    m = a.data.rank
    F = a.table.idempotents
    scale, C = integer_form(a.data.tensor, terms=1)
    C = C.astype(object).reshape(m, m * m)

    def certificate(cluster):
        E = F[list(cluster)].sum(axis=0)
        snapped = snap_array(np.stack([E.imag, E.real]), a.tol)
        if snapped is None or snapped[0].any():
            return None
        e = snapped[1]
        D, w = integer_form(e, terms=1)
        w = w.astype(object)
        if (w @ (w @ C).reshape(m, m) != D * scale * w).any():
            return None
        return float(np.abs(E - e.astype(float)).max())

    orbits, certs, tried = [], {}, 0
    remaining = list(range(m))
    while remaining:
        pivot, others = remaining[0], remaining[1:]
        for extra in chain.from_iterable(
            combinations(others, size) for size in range(len(remaining))
        ):
            tried += 1
            if tried > ga.SEARCH_CAP:
                raise NoValidPartition("cluster search cap exceeded")
            cert = certificate((pivot,) + extra)
            if cert is not None:
                break
        else:
            raise NoValidPartition("no rational orbit partition found")
        orbits.append((pivot,) + extra)
        certs[(pivot,) + extra] = cert
        remaining = [j for j in others if j not in extra]
    return ga.OrbitPartition(orbits=tuple(orbits), certificates=certs)


def _orbit_outcome(find, a):
    try:
        part = find(a)
    except NoValidPartition as exc:
        return str(exc)
    return part.orbits, part.certificates


@pytest.mark.parametrize("tol", [DEFAULT_TOL, hg.Tolerance(1e-8, 1e-8)], ids=["default", "1e-8"])
def test_orbits_and_certificates_match_the_stacked_snap(tol):
    rings = (
        corpus()
        + [near_group(g, m) for g in NEAR_GROUPS for m in range(6)]
        + [group_ring(abelian_group([n])) for n in range(2, 15)]
    )
    for ring in rings:
        a = hg.RingAnalysis(ring, tol)
        if not a.flags.rational:
            continue
        expected = _orbit_outcome(reference_galois_orbits, a)
        assert _orbit_outcome(ga.galois_orbits, a) == expected, ring.name
