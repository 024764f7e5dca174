"""Shared constructors and brute-force oracles.

Oracles here deliberately avoid the library's BSGS / Cayley-table
machinery: closures are computed with raw image-table products so that
the fast paths are checked against something independent.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from sylowlab.errors import NoPElement, NotAMember
from sylowlab.perm import Permutation
from sylowlab.group import PermGroup, span_from_elements
from sylowlab.tables import is_p_power, p_part


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


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while n > 1:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out


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


def sylow_by_scan(G: PermGroup, p: int, gens=()) -> list[Permutation]:
    """Generators of a Sylow p-subgroup of G containing <gens>, by the
    library's rule applied to the sorted element list.

    From P = <gens>, the least element of ``sorted(G.elements())`` that
    has p-power order, lies outside P and normalizes P is adjoined until
    |P| is the p-part of |G|.  P is closed by ``brute_closure``, and no
    normalizer or stabilizer chain of P is built.
    """
    def is_p_power(n):
        while n % p == 0:
            n //= p
        return n == 1

    n, target = len(G.elements()), 1
    while n % p == 0:
        n //= p
        target *= p
    els = sorted(G.elements())
    gens = list(gens)
    P = brute_closure(G.degree, gens)
    while len(P) < target:
        y = next(y for y in els if y not in P and is_p_power(y.order())
                 and all(y.inverse() * h * y in P for h in gens))
        gens.append(y)
        P = brute_closure(G.degree, gens)
    return gens


def sylow_key_by_closure(P: PermGroup) -> set[Permutation]:
    """The elements other than 1 of order at most m, for the least m at
    which they generate P, each candidate m tested by ``brute_closure``."""
    els = brute_closure(P.degree, P.generators)
    for m in sorted({x.order() for x in els}):
        key = {x for x in els if 1 < x.order() <= m}
        if len(brute_closure(P.degree, key)) == len(els):
            return key
    return set()


def conjugates_by_sets(G: PermGroup, P: PermGroup) -> list[frozenset[Permutation]]:
    """The orbit of P under conjugation by G, breadth-first, each
    conjugate keyed by the frozenset of all its elements conjugated one by
    one with raw products."""
    start = frozenset(brute_closure(P.degree, P.generators))
    seen = {start}
    queue = [start]
    for s in queue:
        for g in G.generators:
            g_inv = g.inverse()
            t = frozenset(g_inv * x * g for x in s)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return queue


def centralizer(G: PermGroup, x: Permutation) -> PermGroup:
    """Centralizer of x in G by brute scan over the element list."""
    if x not in G:
        raise NotAMember(f"{x!r} is not in the group")
    found = [g for g in G.elements() if g * x == x * g]
    return span_from_elements(G.degree, found)


def normalizer_in(ctx, sub, gens, target: frozenset[int]) -> list[int]:
    """Elements of the table subgroup ``sub`` normalizing ``target = <gens>``,
    by a scan of all of ``sub``.  The lattice grows each normalizer to the
    order given by the class size instead (``CayleyTable.normalizer``)."""
    return [g for g in sorted(sub) if ctx.normalizes(gens, g, target)]


def sylow_in(ctx, sub: frozenset[int], p: int) -> tuple[frozenset[int], tuple[int, ...]]:
    """A Sylow p-subgroup of the table subgroup ``sub``, with its
    generators, by the rule of the permutation tower applied to the sorted
    indices of ``sub``: from P = 1, adjoin the least index outside P of
    p-power order that normalizes P, until |P| = |sub|_p.  Indices are
    numbered in image-table order, so on the whole group this picks the
    tower's Sylow subgroup."""
    P, gens = frozenset((0,)), []
    while len(P) < p_part(len(sub), p):
        y = next(y for y in sorted(sub) if y not in P and is_p_power(ctx.elt_order[y], p)
                 and ctx.normalizes(gens, y, P))
        P = ctx.extend(P, gens, y)
        gens.append(y)
    return P, tuple(gens)


def nu_by_normalizer_index(ctx, sub: frozenset[int], p: int) -> int:
    """Number of Sylow p-subgroups of the table subgroup ``sub``, as the
    index |sub : N_sub(P)| of a brute normalizer scan of ``sub``, for P
    from ``sylow_in``.  The library counts the conjugation orbit of a
    Sylow subgroup that the lattice supplies instead."""
    if len(sub) % p:
        return 1
    P, gens = sylow_in(ctx, sub, p)
    norm = normalizer_in(ctx, sub, gens, P)
    count = len(sub) // len(norm)
    assert count % p == 1, "Sylow count must be 1 mod p"
    return count


def order_of(lat, i: int) -> int:
    """Order of subgroup i of a lattice."""
    return len(lat.element_sets[i])


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


def _merge_twins_reference(n: int, adj: list[int]) -> list[int]:
    """One representative per adjacency mask.

    Equal masks force non-adjacency (a loop would be needed otherwise),
    so such vertices are interchangeable in any clique and all but the
    lowest-numbered one can be dropped without changing the maximum.
    """
    seen: dict[int, int] = {}
    reps = []
    for v in range(n):
        if adj[v] not in seen:
            seen[adj[v]] = v
            reps.append(v)
    return reps


def _degeneracy_order_reference(m: int, adj: list[int]) -> list[int]:
    """Vertices in smallest-last order; reversing it colors dense parts first."""
    alive = (1 << m) - 1
    out = []
    for _ in range(m):
        v = min((x for x in range(m) if alive >> x & 1),
                key=lambda x: ((adj[x] & alive).bit_count(), x))
        out.append(v)
        alive &= ~(1 << v)
    out.reverse()
    return out


def max_clique_reference(n: int, adj: list[int]) -> tuple[int, tuple[int, ...]]:
    """Size and vertex set of a maximum clique, relabeling bit by bit.

    The solver as ``cliques.max_clique`` had it before its relabelings
    and degree updates moved to whole-row string and list operations;
    the new one must return the identical (size, witness) pair.

    Twin vertices are merged first and the rest relabeled in degeneracy
    order.  Candidates are greedily colored each step; a branch is cut
    when the current clique plus the color count cannot beat the
    incumbent, which is seeded with a greedy clique.
    """
    if n == 0:
        return 0, ()
    reps = _merge_twins_reference(n, adj)
    pos = {v: i for i, v in enumerate(reps)}
    m = len(reps)
    small = [0] * m
    for i, v in enumerate(reps):
        mask = adj[v]
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if w in pos:
                small[i] |= 1 << pos[w]
    label = _degeneracy_order_reference(m, small)
    back = [reps[v] for v in label]
    inv = [0] * m
    for i, v in enumerate(label):
        inv[v] = i
    g = [0] * m
    for i, v in enumerate(label):
        mask = small[v]
        while mask:
            w = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            g[i] |= 1 << inv[w]

    # greedy warm start: always take the candidate of highest residual degree
    best_set: tuple[int, ...] = ()
    cand = (1 << m) - 1
    seed = []
    while cand:
        v = max((x for x in range(m) if cand >> x & 1),
                key=lambda x: ((g[x] & cand).bit_count(), -x))
        seed.append(v)
        cand &= g[v]
    best = len(seed)
    best_set = tuple(seed)

    def expand(chosen: list[int], cand: int) -> None:
        nonlocal best, best_set
        if not cand:
            if len(chosen) > best:
                best = len(chosen)
                best_set = tuple(chosen)
            return
        order: list[int] = []
        bounds: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~g[v] & ~(1 << v)
                uncolored &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if len(chosen) + bounds[i] <= best:
                return
            v = order[i]
            expand(chosen + [v], cand & g[v])
            cand &= ~(1 << v)

    expand([], (1 << m) - 1)
    return best, tuple(sorted(back[v] for v in best_set))


def quotient_route_is_p_solvable(G: PermGroup, p: int) -> bool:
    """p-solvability by walking the upper p-series through quotient groups.

    At each step the quotient's own subgroup lattice supplies its largest
    normal p'-subgroup, or else its largest normal p-subgroup, which is
    then factored out with ``quotient_group``.  ``lattice.is_p_solvable``
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
            n = order_of(lat, i)
            if 1 < n and n % p != 0 and (best is None or n > order_of(lat, best)):
                best = i
        if best is None:
            for i in lat.normal_indices():
                n = order_of(lat, i)
                if 1 < n and is_p_power(n) and (best is None or n > order_of(lat, best)):
                    best = i
        if best is None:
            return False
        Q, _ = quotient_group(Q, lat.subgroup(best))
    return True


def min_fpr_by_classes(action, p: int) -> tuple[Permutation, Fraction]:
    """A nontrivial p-element with the smallest fixed point ratio.

    One representative per conjugacy class is scanned (the ratio is a
    class function).  Ties break toward smaller element order, then
    lexicographically smaller image table.  This is the class scan that
    ``actions.min_fpr_p_element`` replaced; it lists G and its classes.
    """
    G = action.group
    if G.order() % p:
        raise NoPElement(f"p={p} does not divide the group order")
    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    best_elt = None
    for rep, _ in G.conjugacy_classes():
        o = rep.order()
        if o == 1 or not is_p_power(o, p):
            continue
        ratio = Fraction(len(action.fixed_points(rep)), action.degree)
        key = (ratio, o, rep.images)
        if best is None or key < best:
            best, best_elt = key, rep
    if best_elt is None:  # pragma: no cover - p | |G| gives a p-element
        raise NoPElement("no nontrivial p-element found")
    return best_elt, best[0]
