"""The noncommuting graph on pi-elements and its invariants.

Vertices are the elements whose order uses only primes from pi; two are
joined when they do not commute.  The clique number n_pi bounds the
covering number sigma_p from above, and the commuting probability Pr_pi
satisfies Pr_pi * n_pi >= 1.
"""

from sylowlab import (
    catalog_entry,
    n_pi,
    noncommuting_graph,
    pr_pi,
    sigma_le_clique_check,
    sigma_p,
    turan_bound_check,
)


def main():
    S3 = catalog_entry("S3").build()
    pi = frozenset({2})
    g = noncommuting_graph(S3, pi)
    print("S3, pi={2}:", g.n, "vertices,", g.edge_count(), "edges")
    print("  n_pi  =", n_pi(S3, pi), "(the three transpositions)")
    print("  Pr_pi =", pr_pi(S3, pi), " product:", pr_pi(S3, pi) * n_pi(S3, pi))

    A5 = catalog_entry("A5").build()
    for p in (2, 3, 5):
        rep = sigma_le_clique_check(A5, p)
        d = rep.details
        print(f"A5, p={p}: sigma = {d['sigma']} <= n_p = {d['clique_number']}"
              f" ({'ok' if rep.ok else 'FAILED'})")

    rep = turan_bound_check(noncommuting_graph(A5, frozenset({5})))
    print("edge bound on the 5-element graph of A5:",
          rep.details["edges"], "edges <=", rep.details["bound"])


if __name__ == "__main__":
    main()
