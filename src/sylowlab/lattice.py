"""Full subgroup lattices for table-capped groups.

The construction walks conjugacy classes of subgroups: each class
representative H is extended by cyclic subgroups <c> not inside it, and
each new subgroup registers its entire conjugacy class at once.  Only
cyclics of prime-power order p^k with c^p in H are adjoined, and the
sweep stays exhaustive: for a subgroup K and a maximal subgroup H of K
(registered first, by induction on order), K is generated by its
elements of prime-power order, so some lie outside H; one of least order
c has c^p in H, and <H, c> = K.  Conjugating by the element that moves
K's class onto H's representative keeps both facts.  Cyclic subgroups
conjugate under the normalizer of H give conjugate extensions, and the
condition c^p in H is invariant under it, so only the first cyclic
subgroup of each normalizer orbit is adjoined (``CayleyTable.extend``);
the others would register nothing.  The normalizer has order
|G| / |class of H|, known once the class is registered, so
``CayleyTable.normalizer`` stops as soon as it reaches that order, and
the orbits are taken under its few generators.

The sweep keeps generators only for class representatives.  The
generators a report prints are chosen apart from it, by
``SubgroupLattice.generators_of``: walk the subgroup's sorted element
indices and keep each one outside the span of those kept so far.  So the
sweep's order fixes no output.
"""

from __future__ import annotations

import heapq

from .group import PermGroup, orbit_map
from .perm import Permutation
from .tables import CayleyTable, get_table, is_p_power


class SubgroupLattice:
    """All subgroups of a group, indexed in a deterministic order.

    Subgroups are sorted by (order, sorted element indices).  Index 0 is
    always the trivial subgroup and the last index is the whole group.
    ``class_reps[c]`` is the (element set, generator indices) pair of the
    first subgroup of class ``c``.
    """

    __slots__ = ("parent", "ctx", "element_sets", "class_ids", "class_reps",
                 "_maximal", "_generators")

    def __init__(self, parent: PermGroup, ctx: CayleyTable,
                 element_sets, class_ids, class_reps):
        self.parent = parent
        self.ctx = ctx
        self.element_sets = element_sets
        self.class_ids = class_ids
        self.class_reps = class_reps
        self._maximal = None
        self._generators: dict[int, tuple[Permutation, ...]] = {}

    def __len__(self) -> int:
        return len(self.element_sets)

    @property
    def top(self) -> int:
        return len(self.element_sets) - 1

    def subgroup(self, i: int) -> PermGroup:
        if i == self.top:
            return self.parent
        return PermGroup(self.parent.degree, self.generators_of(i))

    def generators_of(self, i: int) -> tuple[Permutation, ...]:
        """The generators printed for subgroup i: each element of its sorted
        indices that lies outside the span of those kept before it."""
        gens = self._generators.get(i)
        if gens is None:
            sub, ctx = self.element_sets[i], self.ctx
            span, kept = frozenset((0,)), []
            for x in sorted(sub):
                if len(span) == len(sub):
                    break
                if x not in span:
                    span = ctx.extend(span, kept, x)
                    kept.append(x)
            gens = self._generators[i] = tuple(ctx.elements[x] for x in kept)
        return gens

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
        it is counted once per conjugacy class, on its representative."""
        counts = [self.ctx.sylow_count_in(sub, gens, p) for sub, gens in self.class_reps]
        return tuple(counts[c] for c in self.class_ids)

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
    # (position, least generator c, c^p) of each cyclic subgroup of order p^k
    prime_power = []
    for k, (c, cfs) in enumerate(cyclics):
        p = next(d for d in range(2, len(cfs) + 1) if len(cfs) % d == 0)
        if is_p_power(len(cfs), p):
            root = 0
            for _ in range(p):
                root = table[root][c]
            prime_power.append((k, c, root))

    # each subgroup's class representative, and the representative's generators
    cls_of: dict[frozenset[int], frozenset[int]] = {}
    rep_gens: dict[frozenset[int], tuple[int, ...]] = {}
    pending: list[tuple[int, tuple[int, ...], frozenset[int], tuple[int, ...], int]] = []

    def register(fs: frozenset[int], gens: tuple[int, ...]) -> None:
        if fs in cls_of:
            return
        members = ctx.subgroup_class(fs)
        rep, conjor = min(members, key=lambda m: sorted(m[0]))
        for m, _ in members:
            cls_of[m] = rep
        gens = rep_gens[rep] = tuple(ctx.conj(g, conjor) for g in gens)
        # |N_G(rep)| = |G| / |class|, and the normalizer is built from that
        heapq.heappush(pending, (len(rep), tuple(sorted(rep)), rep, gens, full // len(members)))

    register(frozenset((0,)), ())
    while pending:
        size, _, fs, gens, norm_order = heapq.heappop(pending)
        if size == full:
            continue
        _, ngens = ctx.normalizer(fs, gens, norm_order)
        done = set()
        for k, c, root in prime_power:
            if k in done or root not in fs or c in fs:
                continue
            # <fs, c^h> = <fs, c>^h for h normalizing fs: it is registered together
            # with <fs, c>, so the rest of c's orbit under N(fs) is skipped
            done.update(orbit_map(k, ngens, lambda j, h: cyc_of[table[table[inv[h]][cyclics[j][0]]][h]]))
            register(ctx.extend(fs, gens, c), gens + (c,))

    order = sorted(cls_of, key=lambda s: (len(s), sorted(s)))
    # number the classes by first appearance in the sorted order, which is
    # each class's representative
    remap: dict[frozenset[int], int] = {}
    class_ids = tuple(remap.setdefault(cls_of[s], len(remap)) for s in order)
    G._lattice = SubgroupLattice(G, ctx, tuple(order), class_ids,
                                 tuple((rep, rep_gens[rep]) for rep in remap))
    return G._lattice
