"""Minimal coverings of p-elements by proper subgroups.

Computes sigma_p with its witness cover for a few groups, shows the
cyclic case where no cover exists, and covers a single conjugacy class.
"""

import math

from sylowlab import (
    Permutation,
    catalog_entry,
    class_cover,
    sigma_p_cover,
)


def show_cover(label, p):
    G = catalog_entry(label).build()
    size, cover = sigma_p_cover(G, p)
    if math.isinf(size):
        print(f"sigma_{p}({label}) = infinity (a generator is a {p}-element,")
        print("    so no union of proper subgroups contains every one)")
        return
    print(f"sigma_{p}({label}) = {size}; one minimum cover:")
    for gens in cover:
        print("    <" + ", ".join(x.cycle_string() for x in gens) + ">")


def main():
    show_cover("S3", 2)
    show_cover("A4", 3)
    show_cover("C3xC3", 3)
    show_cover("A5", 5)
    show_cover("C9", 3)

    print()
    A4 = catalog_entry("A4").build()
    x = Permutation.from_cycles("(1 2 3)", 4)
    size, cover = class_cover(A4, x)
    print(f"covering just the class of {x.cycle_string()} in A4 needs",
          size, "subgroups:")
    for gens in cover:
        print("    <" + ", ".join(g.cycle_string() for g in gens) + ">")


if __name__ == "__main__":
    main()
