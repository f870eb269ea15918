"""Character tables, formal codegrees and dual hypergroups on small rings.

Walks the three standard rank-2/3 examples (group ring of Z2, the Fibonacci
and Ising fusion rings) and the representation ring of S3, printing the full
spectral data and the dual hypergroup of each.
"""

import numpy as np

import hypergroups as hg
from hypergroups.builders import catalog, fibonacci, group_ring, ising, rep_ring


def show(ring):
    print("=" * 64)
    print(ring, "flags:", [k for k, v in ring.flags.as_dict().items() if v])
    a = hg.RingAnalysis(ring)
    table = a.table
    print("character table (rows = basis, columns = characters):")
    print(np.round(table.values, 6))
    print("formal codegrees n_j:", np.round(table.codegrees, 6))
    print("FP dimensions d_i:", np.round(table.fp_dims(), 6))
    print("order n(H) = FPdim(H):", round(a.n_h, 9))
    lam = hg.integral_element(a)
    print("integral (idempotent at FPdim):", np.round(lam.float_coords(), 6))

    fl = a.dual.flags
    print(f"dual: RN={fl.real_non_negative} rational={fl.rational} h-integral={fl.h_integral}")
    print("dual orders h-hat_j:", np.round(a.orders_hat, 6))
    print("dual codegrees:", np.round(hg.dual_codegrees(a), 6))
    hg.double_dual_check(a)
    print("double dual isomorphic to the normalized ring via", a.dual_match.tolist())


if __name__ == "__main__":
    show(group_ring(catalog("C2")))
    show(fibonacci())
    show(ising())
    show(rep_ring(catalog("S3")))
