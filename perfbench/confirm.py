"""Confirm the benchmark's frozen answers by routes independent of sylowlab.

    python3 perfbench/confirm.py

Needs sympy and networkx, which sylowlab itself never imports.  A_n and
S_n are sympy's own; other groups start from the generators sylowlab's
catalog builds.  Group elements, Sylow subgroups, orders and commutation
then come from sympy, clique numbers from networkx.  For covering numbers
sylowlab supplies the cover it returns, and sympy checks that it covers
every p-element, which bounds the covering number from above.  Nothing
here runs inside a timed benchmark run.  Prints one line per confirmed
answer and exits non-zero on any mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def frozen(*argv: str) -> dict:
    """The frozen `expect` of the benchmark request with exactly this argv."""
    from workloads import WORKLOADS
    for requests in WORKLOADS.values():
        for req in requests:
            if tuple(req["argv"]) == argv:
                return req["expect"]
    raise KeyError(argv)


def as_fraction(encoded: dict) -> Fraction:
    return Fraction(encoded["num"], encoded["den"])


class Confirmer:
    def __init__(self):
        self.mismatches = 0

    def same(self, what: str, computed, expected) -> None:
        ok = computed == expected
        self.mismatches += not ok
        print(f"{'ok      ' if ok else 'MISMATCH'} {what}: {computed} (frozen {expected})",
              flush=True)


def sympy_group(label: str):
    """A sympy group: its own constructions for A_n/S_n, else the catalog's generators."""
    from sympy.combinatorics import Permutation
    from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup
    from sympy.combinatorics.perm_groups import PermutationGroup

    if label[0] in "AS" and label[1:].isdigit():
        return (AlternatingGroup if label[0] == "A" else SymmetricGroup)(int(label[1:]))
    from sylowlab.catalog import construct, parse_group_expr
    G = construct(parse_group_expr(label))
    return PermutationGroup([Permutation([i - 1 for i in g.images]) for g in G.generators])


def nu_by_orbit(G, p: int) -> tuple[int, int]:
    """(|P|, number of Sylow p-subgroups): the orbit of sympy's P under conjugation."""
    P = G.sylow_subgroup(p)

    def key(elements):
        return frozenset(tuple(x.array_form) for x in elements)

    start = list(P.generate())
    seen = {key(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for els in frontier:
            for g in G.generators:
                conj = [g ** -1 * x * g for x in els]
                k = key(conj)
                if k not in seen:
                    seen.add(k)
                    nxt.append(conj)
        frontier = nxt
    return P.order(), len(seen)


def nu_cyclic(G, p: int) -> int:
    """Elements of order p / (p - 1); valid when the Sylow p-subgroup has order p."""
    if G.sylow_subgroup(p).order() != p:
        raise ValueError("Sylow subgroup is not cyclic of order p")
    return sum(1 for x in G.generate() if x.order() == p) // (p - 1)


def pi_elements(G, pi):
    def is_pi(n):
        for p in pi:
            while n % p == 0:
                n //= p
        return n == 1
    return [x for x in G.generate() if is_pi(x.order())]


def commuting_fraction(G, pi) -> Fraction:
    verts = pi_elements(G, pi)
    pairs = sum(1 for x in verts for y in verts if x * y == y * x)
    return Fraction(pairs, len(verts) ** 2)


def clique_number(G, pi) -> int:
    import networkx as nx
    verts = pi_elements(G, pi)
    graph = nx.Graph()
    graph.add_nodes_from(range(len(verts)))
    for i, x in enumerate(verts):
        for j in range(i + 1, len(verts)):
            if x * verts[j] != verts[j] * x:
                graph.add_edge(i, j)
    _, weight = nx.max_weight_clique(graph, weight=None)
    return weight


def cover_size_if_valid(label: str, p: int) -> int | None:
    """Size of the cover `compute sigma` returns, if sympy finds that it covers
    every p-element of G; None otherwise."""
    from sympy.combinatorics import Permutation
    from sympy.combinatorics.perm_groups import PermutationGroup
    from sylowlab.cli import main

    def perm(cycle_string: str, degree: int):
        cycles = [[int(v) - 1 for v in c.split()]
                  for c in cycle_string.strip("()").split(")(")]
        return Permutation(cycles, size=degree)

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["compute", "sigma", "--group", label, "-p", str(p), "--json", "-"])
    report = json.loads(buf.getvalue())
    degree = report["group"]["degree"]
    members = [PermutationGroup([perm(c, degree) for c in gens])
               for gens in report["cover"]]
    G = sympy_group(label)
    for x in G.generate():
        n = x.order()
        while n % p == 0:
            n //= p
        if x.order() > 1 and n == 1 and not any(M.contains(x) for M in members):
            return None
    return len(members)


def main() -> int:
    try:
        import networkx  # noqa: F401
        import sympy  # noqa: F401
    except ImportError as err:
        print(f"error: confirming needs sympy and networkx ({err})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    c = Confirmer()

    for label, p, sylow_order in (("A9", 2, 64), ("A8", 2, 64), ("A8", 3, 9)):
        order, nu = nu_by_orbit(sympy_group(label), p)
        c.same(f"|Sylow {p}| of {label}", order, sylow_order)
        c.same(f"nu_{p}({label})", nu, frozen("compute", "nu", "--group", label, "-p", str(p))["value"])
    for label, p in (("A8", 5), ("A8", 7)):
        c.same(f"nu_{p}({label})", nu_cyclic(sympy_group(label), p),
               frozen("compute", "nu", "--group", label, "-p", str(p))["value"])

    details = frozen("verify", "sylow-monotone", "--group", "A8", "--sub", "A7", "-p", "3")["details"]
    c.same("nu_3(A7)", nu_by_orbit(sympy_group("A7"), 3)[1], details["nu_H"])
    details = frozen("verify", "sylow-ratio-bound", "--group", "A8", "--sub", "A7", "-p", "5")["details"]
    c.same("nu_5(A8)", nu_cyclic(sympy_group("A8"), 5), details["nu_G"])
    c.same("nu_5(A7)", nu_cyclic(sympy_group("A7"), 5), details["nu_H"])
    c.same("nu_5(A7)/nu_5(A8)", Fraction(details["nu_H"], details["nu_G"]),
           as_fraction(details["ratio"]))
    for label in ("C2 wr C2 wr C2", "S4 x S3"):
        details = frozen("verify", "p-solvable-divisibility", "--group", label, "-p", "2")["details"]
        c.same(f"nu_2({label})", nu_by_orbit(sympy_group(label), 2)[1], details["nu_G"])
    details = frozen("verify", "sylow-fpr-identity", "--group", "A6",
                     "--sub", "[(1 2 3 4 5),(1 2)(3 4)]", "-p", "5")["details"]
    c.same("nu_5(A6)", nu_cyclic(sympy_group("A6"), 5), details["nu_G"])
    c.same("nu_5(A5)", nu_cyclic(sympy_group("A5"), 5), details["nu_H"])

    A8 = sympy_group("A8")
    fixed = min(x.size - len(x.support()) for x in A8.generate() if x.order() == 5)
    c.same("min fpr of 5-elements of A8", Fraction(fixed, 8),
           as_fraction(frozen("compute", "fpr", "--group", "A8", "-p", "5")["value"]))

    P = sympy_group("A9").sylow_subgroup(3)
    details = frozen("verify", "sylow-orbit-bound", "--group", "A9", "-p", "3")["details"]
    c.same("|Sylow 3| of A9", P.order(), details["sylow_order"])
    c.same("orbits of Sylow 3 of A9", len(P.orbits()), details["orbits"])

    for label, p in (("A7", 2), ("S7", 3)):
        c.same(f"Pr_{{{p}}}({label})", commuting_fraction(sympy_group(label), {p}),
               as_fraction(frozen("compute", "pr", "--group", label, "--pi", str(p))["value"]))
    details = frozen("verify", "probability-clique-product", "--group", "PSL(2,11)",
                     "--pi", "2,3")["details"]
    c.same("Pr_{2,3}(PSL(2,11))", commuting_fraction(sympy_group("PSL(2,11)"), {2, 3}),
           as_fraction(details["probability"]))
    c.same("clique_{2,3}(PSL(2,11))", clique_number(sympy_group("PSL(2,11)"), {2, 3}),
           details["clique_number"])
    for label, pi in (("PSL(2,11)", "5"), ("A6", "2,3")):
        primes = {int(q) for q in pi.split(",")}
        c.same(f"clique_{{{pi}}}({label})", clique_number(sympy_group(label), primes),
               frozen("compute", "clique", "--group", label, "--pi", pi)["value"])
    details = frozen("verify", "covering-clique-bound", "--group", "A6", "-p", "2")["details"]
    c.same("clique_{2}(A6)", clique_number(sympy_group("A6"), {2}), details["clique_number"])

    for label, p in (("PSL(2,11)", 2), ("PSL(2,7)", 3)):
        c.same(f"size of a valid {p}-element cover of {label}", cover_size_if_valid(label, p),
               frozen("compute", "sigma", "--group", label, "-p", str(p))["value"])
    details = frozen("verify", "covering-lower-bound", "--group", "PSL(2,7)", "-p", "2")["details"]
    c.same("size of a valid 2-element cover of PSL(2,7)", cover_size_if_valid("PSL(2,7)", 2),
           details["sigma"])
    tests = (ROOT / "tests" / "test_covering.py").read_text()
    for p, sigma in ((2, 9), (3, 7)):
        c.same(f"sigma_{p}(A6) frozen in tests", f"(lambda: alternating(6), {p}, {sigma})" in tests,
               True)

    print(f"{c.mismatches} mismatches")
    return 1 if c.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
