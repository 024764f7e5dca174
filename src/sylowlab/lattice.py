"""Full subgroup lattices for table-capped groups.

The construction walks conjugacy classes of subgroups: each class
representative H is extended by cyclic subgroups <c> of prime-power
order p^k with c^p in H and c outside H, and each new subgroup registers
its entire conjugacy class at once.  The trivial group, G and the
solvable residual D = G^(oo) (the last term of the derived series,
``CayleyTable.solvable_residual``; trivial exactly when G is solvable)
are registered before the sweep.  Each c takes one of two routes
(Neubüser's cyclic extension method):

* the normal route, for c in N(H): then |<H, c> : H| = p.  Each such
  overgroup is generated by H and any of its elements outside H, so a
  later c inside one found already is skipped;
* the general route, for c outside N(H), taken only when H and c lie in
  D and 25 |H| <= |D|.  ``extend`` gives up once the set passes |D| / 5.
  Cyclic subgroups conjugate under N(H) give conjugate extensions, and
  every condition above is invariant under N(H) (D is normal), so only
  the first cyclic subgroup of each N(H)-orbit is adjoined.

The sweep stays exhaustive, by induction on order (each class of order
below |K| is registered, and so extended, before K is needed):

* a subgroup K that is not perfect has a normal subgroup H of prime
  index p.  K/H is a p-group, so the p-part of any element of K outside
  H lies outside H; the least generator c of the cyclic subgroup it
  generates has c^p in H and normalizes H, and <H, c> = K;
* a perfect K lies in D.  If K = D it is registered up front.  Otherwise
  |D : K| >= 5, since a perfect group has no proper subgroup of index
  below 5 (it would act nontrivially on the cosets, through S_4 at
  most, which is solvable).  A maximal subgroup M of K is not normal in
  it (K/M would have prime order), so it is its own normalizer in K, and
  |K : M| >= 5: then 25 |M| <= |D|.  K is generated by its elements of
  prime-power order, so some lie outside M; one of least order, c, has
  c^p in M and lies outside N(M), and <M, c> = K has at most |D| / 5
  elements, so no bound stops it.

Conjugating by the element that moves K's class onto H's representative
keeps every one of these facts.  The normalizer has order
|G| / |class of H|, known once the class is registered, so
``CayleyTable.normalizer`` stops as soon as it reaches that order, and
the orbits are taken under its few generators.

The sweep keeps generators only for class representatives.  The
generators a report prints are chosen apart from it, by
``SubgroupLattice.generators_of``: walk the subgroup's sorted element
indices and keep each one outside the span of those kept so far.  So the
sweep's order fixes no output.

``is_p_solvable`` reads the upper p-series off the lattice's normal
subgroups.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

from .gf import check_prime, is_p_power, least_prime, p_part
from .group import PermGroup, orbit_map
from .perm import Permutation
from .tables import CayleyTable, get_table


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

    def classes(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for i, c in enumerate(self.class_ids):
            out.setdefault(c, []).append(i)
        return {c: tuple(v) for c, v in out.items()}

    def normal_indices(self) -> tuple[int, ...]:
        """The normal subgroups: the one-member classes.  Classes are
        numbered by their first index, so the indices come out ascending."""
        return tuple(m[0] for m in self.classes().values() if len(m) == 1)

    def sylow_counts(self, p: int) -> tuple[int, ...]:
        """nu_p of every subgroup, by index.  nu_p is a class function, so
        it is counted once per conjugacy class, on its representative H,
        as the conjugation orbit of one Sylow p-subgroup of H: the first
        subgroup of order |H|_p inside H, searched from the first subgroup
        of that order, which bisecting the sorted orders finds."""
        sets = self.element_sets
        orders = [len(s) for s in sets]
        counts = []
        for sub, gens in self.class_reps:
            start = bisect_left(orders, p_part(len(sub), p))
            P = next(s for s in sets[start:] if s <= sub)
            counts.append(self.ctx.sylow_count_in(gens, P, p))
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


def subgroup_lattice(G: PermGroup) -> SubgroupLattice:
    """Compute the full subgroup lattice of G.

    Requires the Cayley table, so the group order must fit the lattice
    cap.  The result is cached on the group.
    """
    if G._lattice is not None:
        return G._lattice
    ctx = get_table(G)
    cyclics = ctx.cyclic_subgroups()
    # cyc_of[x] is the position in cyclics of the subgroup x generates
    cyc_of = {x: k for k, (_, cfs) in enumerate(cyclics)
              for x in cfs if ctx.elt_order[x] == len(cfs)}
    table, inv, full = ctx.table, ctx.inv, ctx.n
    # (position, least generator c, c^p) of each cyclic subgroup of order p^k
    prime_power = []
    for k, (c, cfs) in enumerate(cyclics):
        p = least_prime(len(cfs))
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
    register(frozenset(range(full)), ctx.gen_idx)
    residual, residual_gens = ctx.solvable_residual()
    register(residual, residual_gens)
    # a proper perfect subgroup has index at least 5 in the residual
    limit = len(residual) // 5
    while pending:
        size, _, fs, gens, norm_order = heapq.heappop(pending)
        if size == full:
            continue
        norm, ngens = ctx.normalizer(fs, gens, norm_order)
        # the general route, for fs maximal in a perfect proper subgroup of the residual
        general = 25 * size <= len(residual) and fs <= residual
        # the elements of the overgroups of prime index found so far
        covered = set()
        done = set()
        for k, c, root in prime_power:
            if root not in fs or c in fs:
                continue
            if c in norm:
                # |<fs, c> : fs| = p, and any of its elements outside fs generates it with fs
                if c not in covered:
                    over = ctx.extend(fs, gens, c)
                    covered.update(over)
                    register(over, gens + (c,))
            elif general and k not in done and c in residual:
                # <fs, c^h> = <fs, c>^h for h normalizing fs: it is registered together
                # with <fs, c>, so the rest of c's orbit under N(fs) is skipped
                done.update(orbit_map(k, ngens, lambda j, h: cyc_of[table[table[inv[h]][cyclics[j][0]]][h]]))
                over = ctx.extend(fs, gens, c, limit)
                if over is not None:
                    register(over, gens + (c,))

    order = sorted(cls_of, key=lambda s: (len(s), sorted(s)))
    # number the classes by first appearance in the sorted order, which is
    # each class's representative
    remap: dict[frozenset[int], int] = {}
    class_ids = tuple(remap.setdefault(cls_of[s], len(remap)) for s in order)
    G._lattice = SubgroupLattice(G, ctx, tuple(order), class_ids,
                                 tuple((rep, rep_gens[rep]) for rep in remap))
    return G._lattice


def is_p_solvable(G: PermGroup, p: int) -> bool:
    """Whether the upper p-series reaches the whole group.

    The series is read off G's own subgroup lattice: a normal subgroup of
    G/K is N/K for a normal N of G containing K.  Each step goes from K
    to the largest such N != K with |N:K| coprime to p or, when there is
    none, to the largest with |N:K| a power of p (either is unique, being
    O_p'(G/K) or O_p(G/K)).  G is p-solvable when the steps reach G, and
    not when both kinds run out first.
    """
    check_prime(p)
    lat = subgroup_lattice(G)
    normal = [lat.element_sets[i] for i in lat.normal_indices()]
    K = lat.element_sets[0]
    while len(K) < G.order():
        above = [N for N in normal if K < N]
        K = (max((N for N in above if (len(N) // len(K)) % p), key=len, default=None)
             or max((N for N in above if is_p_power(len(N) // len(K), p)),
                    key=len, default=None))
        if K is None:
            return False
    return True
