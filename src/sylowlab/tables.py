"""Cayley-table context for dense subgroup computations.

For groups within the lattice cap we index all elements (sorted by image
table, so the identity is index 0) and precompute the full
multiplication table.  Subgroups become frozensets of indices and the
heavy lattice / covering / counting loops run on plain integers.

The table is built from the generators rather than from all n^2
products: one left-multiplication map ``L_s`` per generator ``s`` (n
permutation products each) gives row ``s*a`` as ``L_s`` applied to row
``a``, so a breadth-first walk from the identity row fills every row
with integer lookups.  Subgroup closures use ``extend`` (Dimino's coset
extension), which adds whole cosets of a known subgroup at a time.
"""

from __future__ import annotations

from math import isqrt

from . import config
from .errors import CapExceeded, OutOfDomain
from .group import PermGroup, orbit_map
from .perm import Permutation


def _check_base(p: int) -> None:
    if p < 2:
        raise OutOfDomain(f"p must be at least 2, got {p}")


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    _check_base(p)
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_power(n: int, p: int) -> bool:
    _check_base(p)
    while n % p == 0:
        n //= p
    return n == 1


def check_prime(p: int) -> None:
    """Raise OutOfDomain unless p is a prime.

    Library entry points that take a prime call this once, up front;
    ``p_part`` and ``is_p_power`` run once per element and only refuse
    p < 2.
    """
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise OutOfDomain(f"expected a prime, got {p}")


def grow_sylow(p: int, target: int, P, gens, order, least_normalizing, extend):
    """Grow the p-subgroup ``P = <gens>`` to a Sylow p-subgroup of order ``target``.

    This is the one rule that picks a Sylow subgroup, for permutations and
    for table indices alike: while ``|P| < target``, adjoin the least
    p-element of N(P) outside ``P``, least by image table (table indices
    are numbered in that order).  Sylow's theorem guarantees one while P
    is not Sylow.

    ``P`` is an element set, ``order(x)`` the order of ``x``,
    ``least_normalizing(P, gens, pred)`` returns the least element of the
    ambient group that normalizes ``P = <gens>`` and satisfies ``pred``
    (or None), and ``extend(P, gens, y)`` returns the element set of
    ``<P, y>``.  Returns the element set and generator list of the Sylow
    subgroup.
    """
    gens = list(gens)
    while len(P) < target:
        y = least_normalizing(P, gens, lambda x: x not in P and is_p_power(order(x), p))
        if y is None:  # pragma: no cover - impossible by Sylow theory
            raise AssertionError("Sylow extension stalled")
        P = extend(P, gens, y)
        gens.append(y)
    return P, gens


class CayleyTable:
    __slots__ = ("group", "elements", "index", "table", "inv", "elt_order", "gen_idx")

    def __init__(self, group: PermGroup, cap: int | None = None):
        limit = config.lattice_cap(cap)
        n = group.order()
        if n > limit:
            raise CapExceeded("cayley table", n, limit)
        els = group.elements(n)
        assert els[0].is_identity()
        imgs = [e.images for e in els]
        index = {im: i for i, im in enumerate(imgs)}
        gen_idx = tuple(index[g.images] for g in group.generators)
        # left_maps[k][x] is the index of gens[k] * x
        left_maps = []
        for g in group.generators:
            s = g.images
            left_maps.append([index[tuple(b[y - 1] for y in s)] for b in imgs])
        table = [None] * n
        table[0] = list(range(n))
        queue = [0]
        for a in queue:
            row = table[a]
            for left in left_maps:
                b = left[a]
                if table[b] is None:
                    table[b] = list(map(left.__getitem__, row))
                    queue.append(b)
        assert len(queue) == n, "generators do not reach every element"
        inv = [0] * n
        for i, e in enumerate(els):
            inv[i] = index[e.inverse().images]
        self.group = group
        self.elements = els
        self.index = {e: i for i, e in enumerate(els)}
        self.table = table
        self.inv = inv
        self.elt_order = [e.order() for e in els]
        self.gen_idx = gen_idx

    @property
    def n(self) -> int:
        return len(self.elements)

    # -- element level -----------------------------------------------------

    def conj(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return self.table[self.table[self.inv[g]][x]][g]

    # -- subgroup level ----------------------------------------------------

    def extend(self, sub: frozenset[int], gens, g: int) -> frozenset[int]:
        """The subgroup <sub, g>, where ``sub`` is the subgroup <gens>.

        Dimino's coset extension: the new group is a union of cosets
        ``r*sub``, and ``s*r*sub`` is again one for each generator ``s``,
        so the cosets are found breadth-first from ``sub`` and each new
        element costs one lookup in the row of its coset representative.
        """
        if g in sub:
            return sub
        table = self.table
        base = list(sub)
        els = set(base)
        gen_rows = [table[s] for s in (*gens, g)]
        reps = [0]
        for r in reps:
            for row in gen_rows:
                e = row[r]
                if e not in els:
                    els.update(map(table[e].__getitem__, base))
                    reps.append(e)
        return frozenset(els)

    def conj_set(self, sub: frozenset[int], g: int) -> frozenset[int]:
        table = self.table
        gi_row = table[self.inv[g]]
        return frozenset(table[gi_row[x]][g] for x in sub)

    def subgroup_class(self, sub: frozenset[int]) -> list[tuple[frozenset[int], int]]:
        """Conjugacy class of a subgroup, as (conjugate, conjugating element) pairs."""
        table = self.table
        return list(orbit_map(sub, self.gen_idx, self.conj_set,
                              lambda c, g: table[c][g], 0).items())

    def normalizes(self, gens, g: int, sub: frozenset[int]) -> bool:
        return all(self.conj(x, g) in sub for x in gens)

    def cyclic_subgroups(self) -> list[tuple[int, frozenset[int]]]:
        """All nontrivial cyclic subgroups as (least generator, element set)."""
        seen: dict[frozenset[int], int] = {}
        table = self.table
        for x in range(1, self.n):
            acc = [0]
            cur = x
            while cur != 0:
                acc.append(cur)
                cur = table[cur][x]
            fs = frozenset(acc)
            if fs not in seen:
                seen[fs] = x
        return sorted(((g, fs) for fs, g in seen.items()),
                      key=lambda t: (len(t[1]), sorted(t[1])))

    def sylow_in(self, sub: frozenset[int], p: int) -> tuple[frozenset[int], tuple[int, ...]]:
        """A Sylow p-subgroup of the subgroup ``sub``, with its generators,
        chosen by ``grow_sylow``."""
        candidates = sorted(sub)

        def least_normalizing(P, gens, pred):
            return next((y for y in candidates
                         if pred(y) and self.normalizes(gens, y, P)), None)

        P, gens = grow_sylow(p, p_part(len(sub), p), frozenset((0,)), (),
                             self.elt_order.__getitem__, least_normalizing, self.extend)
        return P, tuple(gens)

    def normalizer_in(self, sub, gens, target: frozenset[int]) -> list[int]:
        """Elements of ``sub`` normalizing the subgroup ``target = <gens>``."""
        return [g for g in sorted(sub) if self.normalizes(gens, g, target)]

    def sylow_count_in(self, sub: frozenset[int], p: int) -> int:
        """Number of Sylow p-subgroups of the subgroup ``sub``."""
        if len(sub) % p:
            return 1
        P, gens = self.sylow_in(sub, p)
        norm = self.normalizer_in(sub, gens, P)
        count = len(sub) // len(norm)
        assert count % p == 1, "Sylow count must be 1 mod p"
        return count


def get_table(G: PermGroup, cap: int | None = None) -> CayleyTable:
    if G._table is None:
        G._table = CayleyTable(G, cap)
    return G._table
