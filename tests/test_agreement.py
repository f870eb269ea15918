"""The agreement matrices of RingAnalysis against the loops they replaced.

`fp_agreement` (mu_j(x_i) = d_i) and `modulus_agreement` (|mu_j(x_i)| = d_i)
replaced three loops, each at its own threshold scale: the kernel loop of
`kernel_of_character` (scale 1 + max d), the center loop of
`center_of_element` (scale 1 + d_i) and the ratio loop of `grouplike_chars`
(d_i tol.zero(1)).  The loops are kept here as references; on the corpus at
two tolerances, its float copies and the near-groups they pick the same sets
as the matrices.
"""

import numpy as np
import pytest

import hypergroups as hg
from hypergroups.builders import corpus, near_group
from hypergroups.core import FusionData
from hypergroups.tolerance import DEFAULT_TOL

from test_golden import NEAR_GROUPS


def reference_kernel(a, j) -> tuple:
    d = a.d
    thr = 1e4 * a.tol.zero(1.0 + d.max())
    return tuple(i for i in range(a.data.rank) if abs(a.table.values[i, j] - d[i]) <= thr)


def reference_center(a, i) -> frozenset:
    d = a.d
    thr = 1e4 * a.tol.zero(1.0 + d[i])
    return frozenset(
        j for j in range(a.data.rank) if abs(abs(a.table.values[i, j]) - d[i]) <= thr
    )


def reference_grouplike_values(a) -> tuple:
    ratios = np.abs(a.table.values) / a.d[:, None]
    return tuple(
        j
        for j in range(a.data.rank)
        if (np.abs(ratios[:, j] - 1.0) <= 1e4 * a.tol.zero(1.0)).all()
    )


def analyses(rings, tol) -> list:
    return [hg.RingAnalysis(ring, tol) for ring in rings]


def float_copy(ring):
    return FusionData(ring.name + "/float", ring.involution, ring.float_tensor())


CASES = {
    "corpus": lambda: analyses(corpus(), DEFAULT_TOL),
    "corpus tol=1e-8": lambda: analyses(corpus(), hg.Tolerance(1e-8, 1e-8)),
    "corpus float": lambda: analyses(map(float_copy, corpus()), DEFAULT_TOL),
    "near-groups": lambda: analyses(
        (near_group(g, m) for g in NEAR_GROUPS for m in range(6)), DEFAULT_TOL
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_agreement_matrices_match_the_reference_loops(case):
    checked = CASES[case]()
    assert len(checked) == (96 if case == "near-groups" else 39)
    for a in checked:
        m = a.data.rank
        for j in range(m):
            assert tuple(np.flatnonzero(a.fp_agreement[:, j])) == reference_kernel(a, j), a.data.name
        for i in range(m):
            assert frozenset(np.flatnonzero(a.modulus_agreement[i])) == reference_center(a, i)
        by_values = tuple(np.flatnonzero(a.modulus_agreement.all(axis=0)))
        assert by_values == reference_grouplike_values(a), a.data.name

