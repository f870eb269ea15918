"""Burnside and dual-Burnside verdicts across the group catalog.

Classical Burnside says every non-linear irreducible character of a finite
group has a zero; the ring-level test below confirms it for every catalog
group.  The dual verdict (zero-free character-table columns are exactly the
maximal-codegree ones) separates the groups sharply: among the non-nilpotent
catalog entries only SL(2,3) and A5 survive.
"""

import hypergroups as hg
from hypergroups import burnside as bn
from hypergroups.builders import catalog, catalog_names, ising, rep_ring


def main():
    header = f"{'group':>10s} {'rank':>4s} {'nilpotent':>9s} {'Burnside':>8s} {'dual-Burnside':>13s}"
    print(header)
    print("-" * len(header))
    for name in catalog_names():
        g = catalog(name)
        ring = rep_ring(g)
        a = hg.RingAnalysis(ring)
        burn, _ = a.burnside
        dual, witness = a.dual_burnside
        note = "" if witness is None else f"  (witness column {witness})"
        print(
            f"{name:>10s} {ring.rank:4d} {str(g.is_nilpotent()):>9s} "
            f"{str(burn):>8s} {str(dual):>13s}{note}"
        )
    print()
    print("Signs of grouplike elements come from genuine basis permutations:")
    sgn_el, sgn_ch = bn.sgn_values(hg.RingAnalysis(rep_ring(catalog("Q8"))))
    print("  Q8 rep ring: sgn(elements) =", sgn_el, " sgn(characters) =", sgn_ch)
    print()
    print("Verdict-certifying identity residuals for the Ising ring:")
    for k, v in bn.identity_checks(hg.RingAnalysis(ising())).items():
        print(f"  {k:28s} {v:.3e}")


if __name__ == "__main__":
    main()
