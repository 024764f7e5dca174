"""Shared constructors and brute-force oracles.

Oracles here deliberately avoid the library's BSGS / Cayley-table
machinery: closures are computed with raw image-table products so that
the fast paths are checked against something independent.
"""

from __future__ import annotations

import itertools

import pytest

from sylowlab.perm import Permutation
from sylowlab.group import PermGroup


def perm(cycles, degree):
    return Permutation.from_cycles(cycles, degree)


def cyclic(n: int) -> PermGroup:
    return PermGroup(n, [Permutation(tuple(list(range(2, n + 1)) + [1]))])


def symmetric(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [])
    gens = [perm("(1 2)", n)]
    if n > 2:
        gens.append(Permutation(tuple(list(range(2, n + 1)) + [1])))
    return PermGroup(n, gens)


def alternating(n: int) -> PermGroup:
    if n < 3:
        return PermGroup(max(n, 1), [])
    gens = [perm("(1 2 3)", n)]
    if n > 3:
        if n % 2:
            gens.append(Permutation(tuple(list(range(2, n + 1)) + [1])))
        else:
            gens.append(Permutation(tuple([1] + list(range(3, n + 1)) + [2])))
    return PermGroup(n, gens)


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n acting on n points."""
    rot = Permutation(tuple(list(range(2, n + 1)) + [1]))
    flip = Permutation(tuple(1 + (n - i) % n for i in range(n)))
    return PermGroup(n, [rot, flip])


def klein_four() -> PermGroup:
    return PermGroup(4, [perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)])


def brute_closure(degree: int, gens) -> set[Permutation]:
    """Subgroup closure by repeated multiplication; no BSGS involved."""
    els = {Permutation.identity(degree)}
    frontier = list(els)
    gens = list(gens)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in els:
                    els.add(c)
                    new.append(c)
        frontier = new
    return els


def brute_all_subgroups(degree: int, elements) -> set[frozenset[Permutation]]:
    """Every subgroup of a tiny group, from closures of small subsets.

    Valid for |G| <= 24: any subgroup then needs at most 4 generators
    (an elementary abelian 2-group of rank 5 already has order 32).
    """
    els = sorted(elements)
    assert len(els) <= 24
    found = {frozenset(brute_closure(degree, ()))}
    for r in (1, 2, 3, 4):
        for combo in itertools.combinations(els, r):
            found.add(frozenset(brute_closure(degree, combo)))
    return found


def min_cover_exhaustive(universe_size: int, masks: list[int]) -> int:
    """Reference set cover: try every subset by increasing size.

    Only usable for small candidate counts; ``setcover.min_cover`` is
    tested against this.
    """
    full = (1 << universe_size) - 1
    if full == 0:
        return 0
    for size in range(1, len(masks) + 1):
        for combo in itertools.combinations(range(len(masks)), size):
            u = 0
            for i in combo:
                u |= masks[i]
            if u & full == full:
                return size
    raise ValueError("universe is not coverable by the candidates")


def brute_noncommuting_graph(G: PermGroup, pi) -> tuple[list[Permutation], list[int]]:
    """Sorted pi-elements and noncommuting-graph adjacency by raw products.

    The elements come from ``brute_closure`` and every unordered pair of
    them is tested, |V|^2 / 2 commutation tests; ``graphs.noncommuting_graph``
    builds its rows from one centralizer per conjugacy class and is
    tested against this.
    """
    def is_pi_number(n: int) -> bool:
        for p in pi:
            while n % p == 0:
                n //= p
        return n == 1

    vertices = sorted(x for x in brute_closure(G.degree, G.generators)
                      if is_pi_number(x.order()))
    adj = [0] * len(vertices)
    for i, x in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            y = vertices[j]
            if x * y != y * x:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return vertices, adj


def quotient_route_is_p_solvable(G: PermGroup, p: int) -> bool:
    """p-solvability by walking the upper p-series through quotient groups.

    At each step the quotient's own subgroup lattice supplies its largest
    normal p'-subgroup, or else its largest normal p-subgroup, which is
    then factored out with ``quotient_group``.  ``group.is_p_solvable``
    reads the same series off G's lattice alone and is tested against
    this.
    """
    from sylowlab.group import quotient_group
    from sylowlab.lattice import subgroup_lattice

    def is_p_power(n: int) -> bool:
        while n % p == 0:
            n //= p
        return n == 1

    Q = G
    while Q.order() > 1:
        lat = subgroup_lattice(Q)
        best = None
        for i in lat.normal_indices():
            n = lat.order_of(i)
            if 1 < n and n % p != 0 and (best is None or n > lat.order_of(best)):
                best = i
        if best is None:
            for i in lat.normal_indices():
                n = lat.order_of(i)
                if 1 < n and is_p_power(n) and (best is None or n > lat.order_of(best)):
                    best = i
        if best is None:
            return False
        Q, _ = quotient_group(Q, lat.subgroup(best))
    return True
