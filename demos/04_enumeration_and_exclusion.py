"""Enumerating fusion rings by type and screening them for modular candidacy.

Type [1,1,1,1,2,2] has exactly four fusion rings up to basis relabeling; the
prime-support criterion excludes all of them from modular categorification
(3 divides FPdim = 12 but neither the number of invertibles nor any d^2).
The same screening kills every member of the half-Frobenius family
[[1, n^2], [n, m]] whenever m+1 has a prime factor not dividing n, and the
Galois-orbit machinery shows why: the FP character of such a ring is rational
while an irrational FPdim would contradict dual-Burnside rationality.
"""

import numpy as np

import hypergroups as hg
from hypergroups import criteria as cr
from hypergroups import galois as ga
from hypergroups.builders import enumerate_by_type, family_ring, near_group


def main():
    print("enumerating type [1,1,1,1,2,2] ...")
    rings = enumerate_by_type([1, 1, 1, 1, 2, 2])
    for ring in rings:
        v = cr.modular_prime_support(hg.RingAnalysis(ring))
        mark = "EXCLUDED" if v.excluded else "open"
        print(f"  {ring.name}: {mark} ({v.certificate})")

    print("\nhalf-Frobenius family [[1,4],[2,m]]:")
    for kk in (3, 5, 7):
        a = hg.RingAnalysis(family_ring(2, [2, 2], [kk]))
        v = cr.modular_prime_support(a)
        frob = cr.is_frobenius(a, "1/2")
        print(
            f"  |K| = {kk}: FPdim {round(a.n_h)}, "
            f"1/2-Frobenius {frob}, modular screening: "
            f"{'EXCLUDED' if v.excluded else 'open'} ({v.certificate})"
        )

    print("\nnear-group rings K(G, m):")
    for orders, m, label in (([], 1, "Fibonacci"), ([2], 0, "Ising"), ([3], 3, "K(Z3,3)")):
        v = cr.near_group_modular_test(hg.RingAnalysis(near_group(orders, m)))
        print(f"  {label}: {'EXCLUDED' if v.excluded else 'admissible'} -- {v.certificate}")

    print("\nGalois orbits of the K(Z3,3) characters:")
    ring = near_group([3], 3)
    table = hg.character_table(ring)
    part = ga.galois_orbits(ring, table)
    print("  orbits:", [list(o) for o in part.orbits])
    print("  codegrees:", np.round(table.codegrees, 6))


if __name__ == "__main__":
    main()
