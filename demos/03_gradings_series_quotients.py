"""Adjoint subrings, universal gradings, central series and quotients.

The universal grading group of a representation ring recovers the center of
the group; iterating the adjoint gives the upper central series and the
nilpotency class; the quotient construction collapses a sub-hypergroup and is
dual to restriction (Harrison duality, checked internally by quotient()).
"""

import hypergroups as hg
from hypergroups import structure as st
from hypergroups.builders import catalog, class_hypergroup, ising, rep_ring


def grading_tour(name):
    g = catalog(name)
    ring = rep_ring(g)
    table = hg.character_table(ring)
    ad = st.adjoint(ring, table)
    grading = st.universal_grading(ring, table)
    print(f"{ring.name}: adjoint basis {ad.indices}")
    print(f"  universal grading group of order {grading.group_order} "
          f"(invariant factors {list(grading.iso_class)}), |Z({name})| = {len(g.center())}")
    print(f"  components: {[list(c) for c in grading.components]}")


def series_tour(ring):
    cs = st.central_series(ring)
    up = [list(s.indices) for s in cs.upper]
    low = [list(s.indices) for s in cs.lower]
    verdict = cs.nilpotency_class
    print(f"{ring.name}: upper series {up}")
    print(f"  lower series {low}")
    print(f"  nilpotency class: {verdict if verdict is not None else 'not nilpotent'}")


def quotient_tour():
    ring = rep_ring(catalog("S3"))
    table = hg.character_table(ring)
    gl = hg.RingAnalysis(ring, table=table).grouplikes
    q, classes = st.quotient(ring, st.SubHypergroup(gl, ring), table)
    print(f"{ring.name} // grouplikes: classes {[list(c) for c in classes]}")
    print("  quotient tensor of the big class squared:", list(q.tensor[1, 1]))

    cl = class_hypergroup(catalog("Q8"))
    tcl = hg.character_table(cl)
    central = hg.RingAnalysis(cl, table=tcl).grouplikes
    q2, classes2 = st.quotient(cl, st.SubHypergroup(central, cl), tcl)
    print(f"{cl.name} // central classes: rank {q2.rank} "
          f"(the class hypergroup of Q8/Z, i.e. of Z2xZ2)")


if __name__ == "__main__":
    for name in ("Q8", "D4", "S3"):
        grading_tour(name)
    print()
    series_tour(ising())
    series_tour(rep_ring(catalog("D4")))
    series_tour(rep_ring(catalog("S3")))
    print()
    quotient_tour()
