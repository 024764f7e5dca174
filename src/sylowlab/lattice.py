"""Full subgroup lattices for table-capped groups.

The construction walks conjugacy classes of subgroups: each class
representative is extended by every cyclic subgroup not already inside
it, and each new subgroup registers its entire conjugacy class at once.
Every subgroup H < K has a proper supplement of the form <H, c> with c
cyclic, so induction over maximal chains makes the sweep exhaustive.
Cyclic subgroups conjugate under the normalizer of H give conjugate
extensions, so only the first cyclic subgroup of each normalizer orbit
is adjoined (``CayleyTable.extend``); the others would register nothing.
The normalizer has order |G| / |class of H|, known once the class is
registered, so ``CayleyTable.normalizer`` stops as soon as it reaches
that order, and the orbits are taken under its few generators.
"""

from __future__ import annotations

import heapq

from .group import PermGroup, orbit_map
from .perm import Permutation
from .tables import CayleyTable, get_table


class SubgroupLattice:
    """All subgroups of a group, indexed in a deterministic order.

    Subgroups are sorted by (order, sorted element indices).  Index 0 is
    always the trivial subgroup and the last index is the whole group.
    """

    __slots__ = ("parent", "ctx", "element_sets", "generator_sets",
                 "class_ids", "_maximal")

    def __init__(self, parent: PermGroup, ctx: CayleyTable,
                 element_sets, generator_sets, class_ids):
        self.parent = parent
        self.ctx = ctx
        self.element_sets = element_sets
        self.generator_sets = generator_sets
        self.class_ids = class_ids
        self._maximal = None

    def __len__(self) -> int:
        return len(self.element_sets)

    @property
    def top(self) -> int:
        return len(self.element_sets) - 1

    def order_of(self, i: int) -> int:
        return len(self.element_sets[i])

    def subgroup(self, i: int) -> PermGroup:
        if i == self.top:
            return self.parent
        return PermGroup(self.parent.degree, self.generators_of(i))

    def generators_of(self, i: int) -> tuple[Permutation, ...]:
        return tuple(self.ctx.elements[g] for g in self.generator_sets[i])

    def contains(self, i: int, j: int) -> bool:
        """True when subgroup j is contained in subgroup i."""
        return self.element_sets[j] <= self.element_sets[i]

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.class_ids):
            out.setdefault(c, []).append(i)
        return {c: tuple(v) for c, v in out.items()}

    def normal_indices(self) -> tuple[int, ...]:
        sizes: dict[int, int] = {}
        for c in self.class_ids:
            sizes[c] = sizes.get(c, 0) + 1
        return tuple(i for i, c in enumerate(self.class_ids) if sizes[c] == 1)

    def sylow_counts(self, p: int) -> tuple[int, ...]:
        """nu_p of every subgroup, by index.  nu_p is a class function, so
        it is counted once per conjugacy class, on its first member."""
        by_class: dict[int, int] = {}
        for i, c in enumerate(self.class_ids):
            if c not in by_class:
                by_class[c] = self.ctx.sylow_count_in(
                    self.element_sets[i], self.generator_sets[i], p)
        return tuple(by_class[c] for c in self.class_ids)

    def maximal_indices(self) -> tuple[int, ...]:
        """Indices of maximal proper subgroups."""
        if self._maximal is None:
            sets = self.element_sets
            n = len(sets[-1])
            # maximality is invariant under conjugation: test one per class
            verdict: dict[int, bool] = {}
            out = []
            for i, s in enumerate(sets):
                c = self.class_ids[i]
                if c not in verdict:
                    li = len(s)
                    verdict[c] = li < n and not any(
                        li < len(t) < n and len(t) % li == 0 and s < t for t in sets)
                if verdict[c]:
                    out.append(i)
            self._maximal = tuple(out)
        return self._maximal


def subgroup_lattice(G: PermGroup, cap: int | None = None) -> SubgroupLattice:
    """Compute the full subgroup lattice of G.

    Requires the Cayley table, so the group order must fit the lattice
    cap.  The result is cached on the group.
    """
    if G._lattice is not None:
        return G._lattice
    ctx = get_table(G, cap)
    cyclics = ctx.cyclic_subgroups()
    # cyc_of[x] is the position in cyclics of the subgroup x generates
    cyc_of = {x: k for k, (_, cfs) in enumerate(cyclics)
              for x in cfs if ctx.elt_order[x] == len(cfs)}
    table, inv, full = ctx.table, ctx.inv, ctx.n

    all_subs: dict[frozenset[int], tuple[int, ...]] = {}
    # the class of each subgroup, named by the member that registered it
    cls_of: dict[frozenset[int], frozenset[int]] = {}
    pending: list[tuple[int, tuple[int, ...], frozenset[int], tuple[int, ...], int]] = []

    def register(fs: frozenset[int], gens: tuple[int, ...]) -> None:
        if fs in all_subs:
            return
        members = ctx.subgroup_class(fs)
        for m, conjor in members:
            all_subs[m] = tuple(sorted(ctx.conj(g, conjor) for g in gens)) if conjor else gens
            cls_of[m] = fs
        rep = min((m for m, _ in members), key=sorted)
        # |N_G(rep)| = |G| / |class|, and the normalizer is built from that
        heapq.heappush(pending, (len(rep), tuple(sorted(rep)), rep, all_subs[rep], full // len(members)))

    register(frozenset((0,)), ())
    while pending:
        size, _, fs, gens, norm_order = heapq.heappop(pending)
        if size == full:
            continue
        _, ngens = ctx.normalizer(fs, gens, norm_order)
        done = set()
        for k, (cgen, cfs) in enumerate(cyclics):
            if k in done or cfs <= fs:
                continue
            # <fs, c^h> = <fs, c>^h for h normalizing fs: it is registered together
            # with <fs, c>, so the rest of c's orbit under N(fs) is skipped
            done.update(orbit_map(k, ngens, lambda j, h: cyc_of[table[table[inv[h]][cyclics[j][0]]][h]]))
            register(ctx.extend(fs, gens, cgen), gens + (cgen,))

    order = sorted(all_subs, key=lambda s: (len(s), sorted(s)))
    # number the classes by first appearance in the sorted order
    remap: dict[frozenset[int], int] = {}
    class_ids = tuple(remap.setdefault(cls_of[s], len(remap)) for s in order)
    G._lattice = SubgroupLattice(G, ctx, tuple(order), tuple(all_subs[s] for s in order),
                                 class_ids)
    return G._lattice
