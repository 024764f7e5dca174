"""Sylow counts of a subgroup versus the whole group.

Walks the two headline families: the alternating pair where the
(p-1)/(2p-1) ratio is attained exactly, and the Borel subgroup of
SL(2,8) where the ratio 2/(p+2) slips past the refined 1/(p+1) bound.
Then checks nu_p(H)/nu_p(G) = fpr(P, G/H) for the maximal A6 < A7 and
A9 < A10, the second with |A10| above the element cap.
"""

from fractions import Fraction

from sylowlab import (
    catalog_entry,
    construct_text,
    is_subgroup,
    nu_fpr_identity_check,
    nu_p,
    point_stabilizer,
    sylow_ratio_bound_check,
    sylow_ratio_gap_scan,
)


def show(title, rep):
    print(f"{title}: {'ok' if rep.ok else 'FAILED'}")
    for key, value in rep.details.items():
        print(f"    {key} = {value}")


def main():
    A5 = catalog_entry("A5").build()
    A4 = point_stabilizer(A5, 5)  # the embedded copy of A4
    print("nu_3(A4) =", nu_p(A4, 3))
    print("nu_3(A5) =", nu_p(A5, 3))
    print("ratio    =", Fraction(nu_p(A4, 3), nu_p(A5, 3)),
          " (the generic bound (p-1)/(2p-1) at p=3 is 2/5: attained)")
    show("bound check", sylow_ratio_bound_check(A5, A4, 3))

    print()
    G = catalog_entry("SL(2,8)").build()
    B = catalog_entry("Borel(2,8)").build()
    assert is_subgroup(B, G)
    print("nu_7(SL(2,8)) =", nu_p(G, 7))
    print("nu_7(Borel)   =", nu_p(B, 7))
    print("ratio         =", Fraction(nu_p(B, 7), nu_p(G, 7)),
          " (= 2/(p+2); above 1/(p+1), so the refined bound must not be")
    print("                 asserted here -- the catalog flags this group at p=7)")
    show("bound check", sylow_ratio_bound_check(
        G, B, 7, exclusions_clear=catalog_entry("SL(2,8)").exclusions_clear(7)))

    print()
    A7 = construct_text("A7")
    show("nu_5(A6)/nu_5(A7) = fpr of a Sylow 5 on the 7 points",
         nu_fpr_identity_check(A7, point_stabilizer(A7, 7), 5))
    A10 = construct_text("A10")  # above the element cap; the index is 10
    show("nu_3(A9)/nu_3(A10) = fpr of a Sylow 3 on the 10 points",
         nu_fpr_identity_check(A10, point_stabilizer(A10, 10), 3))

    print()
    scan = sylow_ratio_gap_scan(
        [("SL(2,4)", catalog_entry("SL(2,4)").build())], 2, Fraction(1, 2))
    print("scan for subgroup pairs with nu ratio above 1/2 at p=2:",
          len(scan.details["violations"]), "hit(s)")
    for v in scan.details["violations"][:3]:
        print("   ", v["group"], "sub", v["subgroup_generators"],
              f"nu_H={v['nu_H']} nu_G={v['nu_G']}")


if __name__ == "__main__":
    main()
