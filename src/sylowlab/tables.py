"""Cayley-table context for dense subgroup computations.

For groups within the lattice cap we index all elements (sorted by image
table, so the identity is index 0) and precompute the full
multiplication table.  Subgroups become frozensets of indices and the
heavy lattice / covering / counting loops run on plain integers.

The table is built from the generators rather than from all n^2
products: one left-multiplication map ``L_s`` per generator ``s`` (n
permutation products each) gives row ``s*a`` as ``L_s`` applied to row
``a``, so a breadth-first walk from the identity row fills every row
with integer lookups.  One walk over the powers of each cyclic subgroup
gives element orders, inverses and the cyclic subgroups, and one
conjugation map per generator conjugates a subgroup with one ``map``.
Subgroup closures use ``extend`` (Dimino's coset extension), which adds
whole cosets of a known subgroup at a time, and ``normalizer`` grows
N(H) to an order known from the size of H's class; ``solvable_residual``
takes normal closures of commutators down the derived series.
``sylow_count_in`` counts the Sylow subgroups of a subgroup as the
conjugation orbit of one of them, which the subgroup lattice supplies.
"""

from __future__ import annotations

from itertools import filterfalse
from math import gcd
from operator import itemgetter

from . import config
from .gf import least_prime
from .group import PermGroup, orbit_map
from .perm import compose


class CayleyTable:
    __slots__ = ("group", "elements", "index", "table", "inv", "elt_order", "gen_idx",
                 "conj_maps", "_cyclics", "_proper_max", "_whole")

    def __init__(self, group: PermGroup):
        n = group.order()
        config.refuse_above("cayley table", n, config.lattice_cap())
        els = group.elements()
        assert els[0].is_identity()
        imgs = [e.images for e in els]
        index = {im: i for i, im in enumerate(imgs)}
        gen_idx = tuple(index[g.images] for g in group.generators)
        # left_maps[k][x] is the index of gens[k] * x
        left_maps = [[index[compose(g.images, b)] for b in imgs] for g in group.generators]
        table = [None] * n
        table[0] = list(range(n))
        queue = [0]
        for a in queue:
            row = table[a]
            for left in left_maps:
                b = left[a]
                if table[b] is None:  # never at n = 1, where itemgetter gives a bare int
                    table[b] = list(itemgetter(*row)(left))
                    queue.append(b)
        assert len(queue) == n, "generators do not reach every element"
        # one walk over the powers of each cyclic subgroup <x>, from its least
        # generator x, gives order and inverse of every generator x^j of it
        inv, elt_order, cyclics = [0] * n, [1] + [0] * (n - 1), []
        for x in range(1, n):
            if elt_order[x]:
                continue
            row, powers, cur = table[x], [0], x
            while cur:
                powers.append(cur)
                cur = row[cur]
            o = len(powers)
            for j in range(1, o):
                if gcd(j, o) == 1:
                    elt_order[powers[j]], inv[powers[j]] = o, powers[o - j]
            cyclics.append((x, frozenset(powers)))
        self.group = group
        self.elements = els
        self.index = {e: i for i, e in enumerate(els)}
        self.table = table
        self.inv = inv
        self.elt_order = elt_order
        self.gen_idx = gen_idx
        self._cyclics = sorted(cyclics, key=lambda t: (len(t[1]), sorted(t[1])))
        # conj_maps[g][x] is the index of g^-1 * x * g, for each generator g
        self.conj_maps = {g: list(map([r[g] for r in table].__getitem__, table[inv[g]]))
                          for g in gen_idx}
        # a proper subgroup has index at least the least prime q dividing n,
        # so a subset of a subgroup with more than n / q elements spans G
        self._proper_max = n // least_prime(n)
        self._whole = frozenset(range(n))

    @property
    def n(self) -> int:
        return len(self.elements)

    # -- element level -----------------------------------------------------

    def conj(self, x: int, g: int) -> int:
        """Index of g^-1 * x * g."""
        return self.table[self.table[self.inv[g]][x]][g]

    # -- subgroup level ----------------------------------------------------

    def extend(self, sub: frozenset[int], gens, g: int,
               limit: int | None = None) -> frozenset[int] | None:
        """The subgroup <sub, g>, where ``sub`` is the subgroup <gens>.

        Dimino's coset extension: the new group is a union of cosets
        ``r*sub``, and ``s*r*sub`` is again one for each generator ``s``,
        so the cosets are found breadth-first from ``sub`` and each new
        element costs one lookup in the row of its coset representative.
        Once more than |G| / q elements are found, for q the least prime
        dividing |G|, no proper subgroup holds them, and G is returned.
        With a ``limit``, that shortcut is off, and None is returned as soon
        as more than ``limit`` elements are found.
        """
        if g in sub:
            return sub
        table = self.table
        most, whole = (self._proper_max, self._whole) if limit is None else (limit, None)
        els = set(sub)
        # the coset e*sub, picked from row e; key 0 keeps it a tuple for trivial sub
        coset = itemgetter(0, *sub)
        gen_rows = [table[s] for s in (*gens, g)]
        reps = [0]
        for r in reps:
            for row in gen_rows:
                e = row[r]
                if e not in els:
                    els.update(coset(table[e]))
                    if len(els) > most:
                        return whole
                    reps.append(e)
        return frozenset(els)

    def solvable_residual(self) -> tuple[frozenset[int], tuple[int, ...]]:
        """The last term of G's derived series, as (element set, generators);
        the trivial subgroup exactly when G is solvable.

        The derived subgroup of H = <gens> is the normal closure in H of the
        commutators of its generators: each generator added to the closure
        has its conjugates under ``gens`` queued.  The series stops at the
        first term equal to the one before it.
        """
        table, inv = self.table, self.inv
        sub, gens = self._whole, self.gen_idx
        while True:
            der, dgens = frozenset((0,)), ()
            queue = [table[inv[a]][self.conj(a, b)] for a in gens for b in gens]
            for x in queue:
                if x not in der:
                    der = self.extend(der, dgens, x)
                    dgens += (x,)
                    queue.extend(self.conj(x, g) for g in gens)
            if len(der) == len(sub):
                return sub, gens
            sub, gens = der, dgens

    def subgroup_class(self, sub: frozenset[int]) -> list[tuple[frozenset[int], int]]:
        """Conjugacy class of a subgroup, as (conjugate, conjugating element) pairs."""
        table, maps = self.table, self.conj_maps
        return list(orbit_map(sub, self.gen_idx, lambda s, g: frozenset(map(maps[g].__getitem__, s)),
                              lambda c, g: table[c][g], 0).items())

    def normalizes(self, gens, g: int, sub: frozenset[int]) -> bool:
        return all(self.conj(x, g) in sub for x in gens)

    def normalizer(self, sub: frozenset[int], gens, order: int):
        """N(sub) as (element set, generators), for ``sub = <gens>`` with |N(sub)| = ``order``.

        N grows from sub by each g, in index order, that normalizes sub; each g
        that does not rules out its coset g*N.  The walk stops at |N| = ``order``.
        """
        norm, ngens, seen = sub, tuple(gens), set(sub)
        for g in filterfalse(seen.__contains__, range(self.n)):
            if len(norm) == order:
                break
            if self.normalizes(gens, g, sub):
                norm = self.extend(norm, ngens, g)
                ngens += (g,)
                seen.update(norm)
            else:
                seen.update(map(self.table[g].__getitem__, norm))
        assert len(norm) == order, "normalizer must have index the class size"
        return norm, ngens

    def cyclic_subgroups(self) -> list[tuple[int, frozenset[int]]]:
        """All nontrivial cyclic subgroups as (least generator, element set)."""
        return self._cyclics

    def sylow_count_in(self, gens, P: frozenset[int], p: int) -> int:
        """Number of Sylow p-subgroups of the subgroup <gens>, given one of
        them, P: the length of P's conjugation orbit under ``gens``."""
        count = len(orbit_map(P, gens, lambda s, g: frozenset(self.conj(x, g) for x in s)))
        assert count % p == 1, "Sylow count must be 1 mod p"
        return count


def get_table(G: PermGroup) -> CayleyTable:
    if G._table is None:
        G._table = CayleyTable(G)
    return G._table
