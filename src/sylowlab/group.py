"""Finite permutation groups with a deterministic stabilizer chain.

Orders and membership come from a Schreier-Sims stabilizer chain built
deterministically (generators are sorted on construction, orbits are
explored breadth-first, and each new base point is the smallest point
moved by the residue that created it), so repeated runs agree exactly.

Enumeration-heavy helpers (element lists, conjugacy classes, brute-force
centralizers and normalizers) respect the element cap from
:mod:`sylowlab.config`.
"""

from __future__ import annotations

from typing import Callable, Iterable

from . import config
from .errors import (
    CapExceeded,
    DegreeMismatch,
    NotAMember,
    NotASubgroup,
    NotNormal,
)
from .perm import Permutation


def orbit_map(seed, gens, act, step=None, label=None, limit=None, what="orbit"):
    """Orbit of ``seed`` under ``gens``, each point labelled, by FIFO breadth-first search.

    Returns a dict, in discovery order, from each orbit point to its label.
    The seed's label is ``label``; a point first reached as ``act(x, g)``
    gets ``step(label_of_x, g)`` (or ``label`` when ``step`` is None), so
    with ``step=Permutation.__mul__`` and the identity as ``label`` each
    label maps the seed to its point: a transversal.  Raises CapExceeded
    before the orbit grows past ``limit`` points.
    """
    out = {seed: label}
    queue = [seed]
    for x in queue:
        lx = out[x]
        for g in gens:
            y = act(x, g)
            if y not in out:
                if limit is not None and len(out) >= limit:
                    raise CapExceeded(what, len(out) + 1, limit)
                out[y] = label if step is None else step(lx, g)
                queue.append(y)
    return out


def _image(point: int, g: Permutation) -> int:
    return g._images[point - 1]


class _Chain:
    """Base and strong generating set, built by deterministic Schreier-Sims.

    Level i stores the strong generators whose deepest fixed base prefix
    is base[:i]; the group stabilizing base[:i] is generated by the
    levels i and deeper.  Orbits are closed bottom-up with the classic
    restart discipline, so after every ``add_gen`` the chain is a valid
    BSGS and ``order``/``contains`` are exact.
    """

    __slots__ = ("degree", "base", "gens_at", "orbits")

    def __init__(self, degree: int, forced_base: tuple[int, ...] = ()):
        self.degree = degree
        self.base: list[int] = list(forced_base)
        self.gens_at: list[list[Permutation]] = [[] for _ in forced_base]
        # orbits[i][beta] = (u, u_inv) with u(base[i]) == beta
        self.orbits: list[dict[int, tuple[Permutation, Permutation]]] = []
        ident = Permutation.identity(degree)
        for b in forced_base:
            self.orbits.append({b: (ident, ident)})

    def order(self) -> int:
        n = 1
        for orb in self.orbits:
            n *= len(orb)
        return n

    def strong_gens(self, level: int) -> list[Permutation]:
        out: list[Permutation] = []
        for j in range(level, len(self.base)):
            out.extend(self.gens_at[j])
        return out

    def _sift_from(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        for i in range(start, len(self.base)):
            beta = g._images[self.base[i] - 1]
            if beta == self.base[i]:
                continue
            pair = self.orbits[i].get(beta)
            if pair is None:
                return g, i
            g = g * pair[1]
        return g, len(self.base)

    def contains(self, g: Permutation) -> bool:
        residue, level = self._sift_from(g, 0)
        return level == len(self.base) and residue.is_identity()

    def add_gen(self, g: Permutation) -> bool:
        """Sift ``g`` and absorb it if new.  Returns True when the chain grew."""
        residue, level = self._sift_from(g, 0)
        if level == len(self.base) and residue.is_identity():
            return False
        self._insert(residue, level)
        self._close(level)
        return True

    def _insert(self, g: Permutation, level: int) -> None:
        if level == len(self.base):
            self.base.append(min(g.moved_points()))
            self.gens_at.append([])
            ident = Permutation.identity(self.degree)
            self.orbits.append({self.base[-1]: (ident, ident)})
        self.gens_at[level].append(g)

    def _recompute_orbit(self, i: int) -> None:
        trans = orbit_map(self.base[i], self.strong_gens(i), _image,
                          Permutation.__mul__, Permutation.identity(self.degree))
        self.orbits[i] = {beta: (u, u.inverse()) for beta, u in trans.items()}

    def _close(self, start: int) -> None:
        # levels deeper than ``start`` are already up to date
        i = start
        while i >= 0:
            self._recompute_orbit(i)
            inserted_at = self._check_schreier(i)
            if inserted_at is None:
                i -= 1
            else:
                i = inserted_at

    def _check_schreier(self, i: int) -> int | None:
        trans = self.orbits[i]
        gens = self.strong_gens(i)
        for beta in sorted(trans):
            u = trans[beta][0]
            for s in gens:
                gamma = s._images[beta - 1]
                schreier = u * s * trans[gamma][1]
                residue, j = self._sift_from(schreier, i + 1)
                if not (j == len(self.base) and residue.is_identity()):
                    self._insert(residue, j)
                    return j
        return None

    def least(self, pred: Callable[[Permutation], bool]) -> Permutation | None:
        """The least element, by image table, satisfying ``pred``, or None.

        Needs the base to be 1, 2, ..., k.  An element is a product
        u_k * ... * u_1 of one transversal element per level, and its
        image of i is the image of u_i(i) under u_(i-1) * ... * u_1, so a
        depth-first walk that takes each level's orbit in the order of
        that image meets the elements in ascending order and stops at the
        first that satisfies ``pred``.
        """
        assert self.base == list(range(1, len(self.base) + 1))
        levels = [orb for orb in self.orbits if len(orb) > 1]

        def walk(i: int, w: Permutation) -> Permutation | None:
            if i == len(levels):
                return w if pred(w) else None
            orb, images = levels[i], w._images
            for beta in sorted(orb, key=lambda b: images[b - 1]):
                found = walk(i + 1, orb[beta][0] * w)
                if found is not None:
                    return found
            return None

        return walk(0, Permutation.identity(self.degree))

    def elements(self) -> list[Permutation]:
        out = [Permutation.identity(self.degree)]
        for i in range(len(self.base) - 1, -1, -1):
            trans = self.orbits[i]
            out = [h * trans[beta][0] for beta in sorted(trans) for h in out]
        return out


class PermGroup:
    """A permutation group on {1..degree} given by generators.

    Instances are immutable; expensive results (chain, element list,
    conjugacy classes, and the Cayley table and subgroup lattice built by
    other modules) are computed on first use and cached on the instance.
    """

    __slots__ = (
        "_degree", "_generators", "_chain", "_elements", "_element_set",
        "_classes", "_lattice", "_table",
    )

    def __init__(self, degree: int, generators: Iterable[Permutation] = (), *,
                 _chain: _Chain | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        gens = []
        seen = set()
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != group degree {degree}")
            if g.is_identity() or g in seen:
                continue
            seen.add(g)
            gens.append(g)
        self._degree = degree
        self._generators = tuple(sorted(gens))
        self._chain = _chain
        self._elements = None
        self._element_set = None
        self._classes = None
        self._lattice = None
        self._table = None

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._generators

    def identity(self) -> Permutation:
        return Permutation.identity(self._degree)

    def chain(self) -> _Chain:
        if self._chain is None:
            chain = _Chain(self._degree)
            for g in self._generators:
                chain.add_gen(g)
            self._chain = chain
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def base(self) -> tuple[int, ...]:
        return tuple(self.chain().base)

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self._degree:
            raise DegreeMismatch(f"element degree {g.degree} != group degree {self._degree}")
        return self.chain().contains(g)

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self._generators[:4])
        more = ", ..." if len(self._generators) > 4 else ""
        return f"PermGroup(degree={self._degree}, <{gens}{more}>)"

    # -- enumeration -------------------------------------------------------

    def check_element_cap(self, cap: int | None = None) -> None:
        """The refusal of ``elements``: raise CapExceeded unless the
        elements are listed already or the order fits the element cap."""
        if self._elements is None:
            limit = config.element_cap(cap)
            n = self.order()
            if n > limit:
                raise CapExceeded("element enumeration", n, limit)

    def elements(self, cap: int | None = None) -> tuple[Permutation, ...]:
        """All elements, sorted lexicographically by image table."""
        if self._elements is None:
            self.check_element_cap(cap)
            self._elements = tuple(sorted(self.chain().elements()))
        return self._elements

    def element_set(self, cap: int | None = None) -> frozenset[Permutation]:
        if self._element_set is None:
            es = frozenset(self.elements(cap))
            self._element_set = es
        return self._element_set

    def orbit(self, point: int) -> frozenset[int]:
        if not 1 <= point <= self._degree:
            raise ValueError(f"point {point} outside 1..{self._degree}")
        return frozenset(orbit_map(point, self._generators, _image))

    def orbits(self) -> tuple[frozenset[int], ...]:
        left = set(range(1, self._degree + 1))
        out = []
        while left:
            orb = self.orbit(min(left))
            out.append(orb)
            left -= orb
        return tuple(sorted(out, key=min))

    def is_transitive(self) -> bool:
        return self._degree > 0 and len(self.orbit(1)) == self._degree

    # -- conjugacy ---------------------------------------------------------

    def conjugacy_classes(self, cap: int | None = None) -> tuple[tuple[Permutation, frozenset[Permutation]], ...]:
        """All conjugacy classes as (lexicographically least representative, class)."""
        if self._classes is None:
            seen: set[Permutation] = set()
            out = []
            for x in self.elements(cap):
                if x in seen:
                    continue
                cls = conjugacy_class(self, x, cap)
                seen |= cls
                out.append((x, cls))
            self._classes = tuple(out)
        return self._classes


def span_from_elements(degree: int, elements: Iterable[Permutation]) -> PermGroup:
    """Group generated by the given elements, with a reduced generating set.

    Elements already generated by earlier ones are dropped, so feeding in
    a full element list yields a small generating set plus a ready chain.
    """
    chain = _Chain(degree)
    gens = []
    for g in elements:
        if chain.add_gen(g):
            gens.append(g)
    return PermGroup(degree, gens, _chain=chain)


def is_subgroup(H: PermGroup, G: PermGroup) -> bool:
    if H.degree != G.degree:
        raise DegreeMismatch(f"degrees {H.degree} and {G.degree} differ")
    return all(h in G for h in H.generators)


def conjugacy_class(G: PermGroup, x: Permutation, cap: int | None = None) -> frozenset[Permutation]:
    """Conjugacy class of x in G, by breadth-first closure under generator conjugation."""
    if x not in G:
        raise NotAMember(f"{x!r} is not in the group")
    limit = config.element_cap(cap)
    pairs = [(g.inverse(), g) for g in G.generators]
    return frozenset(orbit_map(x, pairs, lambda y, gg: gg[0] * y * gg[1],
                               limit=limit, what="conjugacy class"))


def centralizer(G: PermGroup, x: Permutation, cap: int | None = None) -> PermGroup:
    """Centralizer of x in G by brute scan over the element list."""
    if x not in G:
        raise NotAMember(f"{x!r} is not in the group")
    found = [g for g in G.elements(cap) if g * x == x * g]
    return span_from_elements(G.degree, found)


def normalizer(G: PermGroup, H: PermGroup, cap: int | None = None) -> PermGroup:
    """Normalizer of H in G by brute scan over the element list."""
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    hgens = H.generators
    if not hgens:
        return G
    els = G.elements(cap)
    hset = H.element_set(cap)
    found = []
    for g in els:
        gi = g.inverse()
        if all(gi * h * g in hset for h in hgens):
            found.append(g)
    return span_from_elements(G.degree, found)


def is_normal(G: PermGroup, H: PermGroup) -> bool:
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    for g in G.generators:
        gi = g.inverse()
        for h in H.generators:
            if (gi * h * g) not in H:
                return False
    return True


def normal_closure(G: PermGroup, seeds: Iterable[Permutation]) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    chain = _Chain(G.degree)
    gens: list[Permutation] = []
    queue: list[Permutation] = []
    for s in seeds:
        if s not in G:
            raise NotAMember(f"{s!r} is not in the group")
        if chain.add_gen(s):
            gens.append(s)
            queue.append(s)
    ggens = G.generators
    ginvs = [g.inverse() for g in ggens]
    qi = 0
    while qi < len(queue):
        s = queue[qi]
        qi += 1
        for g, gi in zip(ggens, ginvs):
            z = gi * s * g
            if chain.add_gen(z):
                gens.append(z)
                queue.append(z)
    return PermGroup(G.degree, gens, _chain=chain)


def p_residual(G: PermGroup, p: int, cap: int | None = None) -> PermGroup:
    """Smallest normal subgroup with quotient of order coprime to p.

    Equals the subgroup generated by all p-elements, computed here as the
    normal closure of one Sylow p-subgroup.
    """
    from . import sylow, tables  # local import: both build on this module

    tables.check_prime(p)
    if G.order() % p:
        return PermGroup(G.degree)

    P = sylow.sylow_subgroup(G, p, cap)
    return normal_closure(G, P.generators)


def point_stabilizer(G: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point, read off a chain based at that point."""
    if not 1 <= point <= G.degree:
        raise ValueError(f"point {point} outside 1..{G.degree}")
    chain = _Chain(G.degree, forced_base=(point,))
    for g in G.generators:
        chain.add_gen(g)
    return PermGroup(G.degree, chain.strong_gens(1))


def right_cosets(G: PermGroup, H: PermGroup, cap: int | None = None
                 ) -> tuple[tuple[Permutation, ...], dict[tuple[int, ...], int]]:
    """The right cosets H*g of a subgroup H, swept breadth-first from H itself.

    Returns the least element (by image table) of each coset, in discovery
    order, and a lookup from the image table of every element of G to its
    1-based coset number.  Each new coset costs |H| products, so the whole
    sweep costs |G| products.
    """
    limit = config.element_cap(cap)
    if G.order() > limit:
        raise CapExceeded("coset action", G.order(), limit)
    h_els = H.elements(cap)
    lookup: dict[tuple[int, ...], int] = {}
    reps: list[Permutation] = []

    def rep_of(x: Permutation) -> Permutation:
        i = lookup.get(x.images)
        if i is None:
            translates = [h * x for h in h_els]
            reps.append(min(translates))
            i = len(reps)
            for y in translates:
                lookup[y.images] = i
        return reps[i - 1]

    orbit_map(rep_of(G.identity()), G.generators, lambda r, s: rep_of(r * s))
    return tuple(reps), lookup


def quotient_group(G: PermGroup, N: PermGroup, cap: int | None = None
                   ) -> tuple[PermGroup, Callable[[Permutation], Permutation]]:
    """Quotient G/N as a permutation group on the right cosets of N.

    Returns the quotient together with the projection homomorphism.
    """
    from .actions import CosetAction  # local import: actions builds on this module

    if not is_subgroup(N, G):
        raise NotASubgroup("N is not a subgroup of G")
    if not is_normal(G, N):
        raise NotNormal("N is not normal in G")
    action = CosetAction(G, N, *right_cosets(G, N, cap))
    Q = action.image(G.generators)
    if Q.order() * N.order() != G.order():
        raise AssertionError("coset action does not realize the quotient")
    return Q, action.act


def is_p_solvable(G: PermGroup, p: int, cap: int | None = None) -> bool:
    """Whether the upper p-series reaches the whole group.

    The series is read off G's own subgroup lattice: a normal subgroup of
    G/K is N/K for a normal N of G containing K.  Each step goes from K
    to the largest such N != K with |N:K| coprime to p or, when there is
    none, to the largest with |N:K| a power of p (either is unique, being
    O_p'(G/K) or O_p(G/K)).  G is p-solvable when the steps reach G, and
    not when both kinds run out first.
    """
    from .lattice import subgroup_lattice  # local imports, avoid a cycle
    from .tables import check_prime, is_p_power

    check_prime(p)
    lat = subgroup_lattice(G, cap)
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
