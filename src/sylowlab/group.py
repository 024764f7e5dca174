"""Finite permutation groups with a deterministic stabilizer chain.

Orders and membership come from a Schreier-Sims stabilizer chain on the
base 1, 2, ..., degree, built deterministically (generators are sorted
on construction and orbits are explored breadth-first), so repeated runs
agree exactly.  The same chain walks a coset of the group in image-table
order (``_Chain.least``), so ``right_cosets`` lists the right cosets of
a subgroup by their least elements and returns the permutation each
element induces on them: the one coset-image map, behind
``actions.CosetAction`` and ``quotient_group``.  Schreier's lemma is
applied in one place: ``stabilizer`` builds the stabilizer of the seed
of a Schreier tree (``schreier_tree``), for a point of 1..degree
(``point_stabilizer``) or for a subgroup in its conjugation orbit
(``sylow``'s normalizers), and only ``transversal`` reads the tree's
records.

Enumeration-heavy helpers (element lists, conjugacy classes, brute-force
normalizers) respect the element cap from :mod:`sylowlab.config`.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter, itemgetter
from typing import Callable, Iterable

from . import config
from .errors import (
    DegreeMismatch,
    NotAMember,
    NotASubgroup,
    NotNormal,
)
from .gf import check_prime
from .perm import Permutation, compose


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
                if limit is not None:
                    config.refuse_above(what, len(out) + 1, limit)
                out[y] = label if step is None else step(lx, g)
                queue.append(y)
    return out


def _image(point: int, g: Permutation) -> int:
    return g._images[point - 1]


class Numbering:
    """Elements numbered in order of first meeting, with one conjugation
    list per generator of G: the one conjugation kernel of ``sylow`` and
    ``graphs``.

    ``tables[i]`` is the image table of number i and ``index`` maps an
    image table back to its number.  ``conj[k][i]`` is the number of
    g^-1 * x * g, for x number i and g the k-th generator of G.
    ``close`` fills the lists in number order, numbering each conjugate
    not met before, up to the last number, so when it returns the
    numbered set is closed under conjugation: it is the union of the
    conjugacy classes of the elements numbered before.
    """

    __slots__ = ("tables", "index", "conj", "_gens")

    def __init__(self, G: "PermGroup", tables: Iterable[tuple[int, ...]] = ()):
        self.tables = list(tables)
        self.index = {x: i for i, x in enumerate(self.tables)}
        self.conj: list[list[int]] = [[] for _ in G.generators]
        # g^-1 * x * g maps g(i) to g(x(i)): x's images picked from g, then
        # picked in the order of g^-1
        self._gens = [(itemgetter(*g.inverse().images), (0,) + g.images)
                      for g in G.generators]

    def number(self, x: tuple[int, ...]) -> int:
        """The number of the image table ``x``, the next one if it has none."""
        i = self.index.get(x)
        if i is None:
            i = self.index[x] = len(self.tables)
            self.tables.append(x)
        return i

    def close(self) -> None:
        if not self.conj:
            return
        tables, index = self.tables, self.index
        pairs = list(zip(self._gens, self.conj))
        i = len(self.conj[0])
        while i < len(tables):
            x_of = itemgetter(*tables[i])
            for (inverse_of, g_shifted), row in pairs:
                y = inverse_of((0,) + x_of(g_shifted))
                j = index.get(y)
                if j is None:  # ``number``, inlined
                    j = index[y] = len(tables)
                    tables.append(y)
                row.append(j)
            i += 1


class _Chain:
    """Stabilizer chain on the base 1, 2, ..., degree, built by
    deterministic Schreier-Sims.

    Level i stores the strong generators that fix the points 1..i and
    move point i + 1; the group fixing 1..i is generated by the levels i
    and deeper, so a level without generators has the trivial orbit.
    Orbits are closed bottom-up with the classic restart discipline, so
    after every ``add_gen`` the chain is a valid BSGS and
    ``order``/``contains`` are exact.
    """

    __slots__ = ("degree", "gens_at", "orbits", "levels")

    def __init__(self, degree: int, gens: Iterable[Permutation] = ()):
        self.degree = degree
        self.gens_at: list[list[Permutation]] = [[] for _ in range(degree)]
        # orbits[i][beta] = (u, u_inv) with u(i + 1) == beta
        ident = Permutation.identity(degree)
        self.orbits: list[dict[int, tuple[Permutation, Permutation]]] = [
            {b: (ident, ident)} for b in range(1, degree + 1)]
        # the orbits longer than 1, in base order, the levels that
        # ``least`` and ``elements`` walk
        self.levels: list[dict[int, tuple[Permutation, Permutation]]] = []
        for g in gens:
            self.add_gen(g)

    @property
    def base(self) -> range:
        return range(1, self.degree + 1)

    def order(self) -> int:
        n = 1
        for orb in self.orbits:
            n *= len(orb)
        return n

    def strong_gens(self, level: int) -> list[Permutation]:
        out: list[Permutation] = []
        for gens in self.gens_at[level:]:
            out.extend(gens)
        return out

    def _sift_from(self, g: Permutation, start: int) -> tuple[Permutation, int]:
        for i in range(start, self.degree):
            beta = g._images[i]
            if beta == i + 1:
                continue
            pair = self.orbits[i].get(beta)
            if pair is None:
                return g, i
            g = g * pair[1]
        return g, self.degree

    def contains(self, g: Permutation) -> bool:
        return self._sift_from(g, 0)[1] == self.degree

    def add_gen(self, g: Permutation, order: int | None = None) -> bool:
        """Sift ``g`` and absorb it if new.  Returns True when the chain grew.

        ``order`` is the known order of a group that contains every
        generator sifted in; the closing stops as soon as the chain's
        order reaches it (``_close``).
        """
        residue, level = self._sift_from(g, 0)
        if level == self.degree:
            return False
        self.gens_at[level].append(residue)
        self._close(level, order)
        self.levels = [orb for orb in self.orbits if len(orb) > 1]
        return True

    def _recompute_orbit(self, i: int) -> None:
        trans = orbit_map(i + 1, self.strong_gens(i), _image,
                          Permutation.__mul__, Permutation.identity(self.degree))
        self.orbits[i] = {beta: (u, u.inverse()) for beta, u in trans.items()}

    def _close(self, start: int, order: int | None = None) -> None:
        # levels deeper than ``start`` are already up to date.  Each orbit,
        # even one left stale by a deeper insertion, is an orbit of a
        # subgroup of <S> on i + 1 whose stabilizer holds the next level's
        # group, so the product of the orbit lengths is at most |<S>|; once
        # it reaches the known ``order`` of a group containing S, <S> is
        # that group and every level is complete.  A level without
        # generators has the trivial orbit, and its Schreier generators
        # are the deeper levels' own, so it is passed over
        i = start
        while i >= 0:
            if not self.gens_at[i]:
                i -= 1
                continue
            self._recompute_orbit(i)
            if order is not None and self.order() == order:
                return
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
                if j < self.degree:
                    self.gens_at[j].append(residue)
                    return j
        return None

    def least(self, pred: Callable[[Permutation], bool] | None = None,
              start: Permutation | None = None) -> Permutation | None:
        """The least element, by image table, of the coset H * ``start``
        (H itself by default) satisfying ``pred``, or None.

        An element of H * start is a product u_k * ... * u_1 * start of one
        transversal element per level, and its image of i is the image of
        u_i(i) under u_(i-1) * ... * u_1 * start, so a depth-first walk
        that takes each level's orbit in the order of that image meets the
        elements in ascending order and stops at the first that satisfies
        ``pred`` (the first of all when ``pred`` is None).
        """
        levels = self.levels

        def walk(i: int, w: Permutation) -> Permutation | None:
            if i == len(levels):
                return w if pred is None or pred(w) else None
            orb, images = levels[i], w._images
            for beta in sorted(orb, key=lambda b: images[b - 1]):
                found = walk(i + 1, orb[beta][0] * w)
                if found is not None:
                    return found
            return None

        return walk(0, Permutation.identity(self.degree) if start is None else start)

    def elements(self) -> list[Permutation]:
        out = [Permutation.identity(self.degree)]
        for trans in reversed(self.levels):
            out = [h * trans[beta][0] for beta in sorted(trans) for h in out]
        return out


class PermGroup:
    """A permutation group on {1..degree} given by generators.

    Instances are immutable; expensive results (chain, element list, and
    the Cayley table, subgroup lattice and element numbering of the
    conjugation orbits built by other modules) are computed on first use
    and cached on the instance.
    """

    __slots__ = (
        "_degree", "_generators", "_chain", "_elements",
        "_lattice", "_table", "_numbering",
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
        self._lattice = None
        self._table = None
        self._numbering = None

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
            self._chain = _Chain(self._degree, self._generators)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self._degree:
            raise DegreeMismatch(f"element degree {g.degree} != group degree {self._degree}")
        return self.chain().contains(g)

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self._generators[:4])
        more = ", ..." if len(self._generators) > 4 else ""
        return f"PermGroup(degree={self._degree}, <{gens}{more}>)"

    # -- enumeration -------------------------------------------------------

    def check_element_cap(self) -> None:
        """The refusal of ``elements``: raise CapExceeded unless the
        elements are listed already or the order fits the element cap."""
        if self._elements is None:
            config.refuse_above("element enumeration", self.order(), config.element_cap())

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted lexicographically by image table."""
        if self._elements is None:
            self.check_element_cap()
            self._elements = tuple(sorted(self.chain().elements(), key=attrgetter("_images")))
        return self._elements

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

    def conjugacy_classes(self) -> tuple[tuple[Permutation, frozenset[Permutation]], ...]:
        """All conjugacy classes as (lexicographically least representative,
        class), recomputed on each call."""
        seen: set[Permutation] = set()
        out = []
        for x in self.elements():
            if x in seen:
                continue
            cls = conjugacy_class(self, x)
            seen |= cls
            out.append((x, cls))
        return tuple(out)


def element_orders(G: PermGroup) -> list[int]:
    """The order of each element of G, in the order of ``G.elements``.

    One walk over the powers x, x^2, ... of each cyclic subgroup <x>, from
    its least element x not met before, gives every power x^j its order
    o / gcd(j, o), for o the order of x.
    """
    els = G.elements()
    index = {x.images: i for i, x in enumerate(els)}
    one = els[0].images  # the identity sorts first
    orders = [1] + [0] * (len(els) - 1)
    for i in range(1, len(els)):
        if orders[i]:
            continue
        x = cur = els[i].images
        powers = []
        while cur != one:
            powers.append(index[cur])
            cur = compose(cur, x)
        o = len(powers) + 1
        for j, k in enumerate(powers, 1):
            orders[k] = o // gcd(j, o)
    return orders


def span_from_elements(degree: int, elements: Iterable[Permutation],
                       order: int | None = None) -> PermGroup:
    """Group generated by the given elements, with a reduced generating set.

    Elements already generated by earlier ones are dropped, so feeding in
    a full element list yields a small generating set plus a ready chain.
    ``order`` is the known order of the group they generate: no element
    is read once the chain reaches it, and each closing stops there too
    (``_Chain.add_gen``).
    """
    chain = _Chain(degree)
    gens = []
    for g in elements if order != 1 else ():
        if chain.add_gen(g, order):
            gens.append(g)
            if chain.order() == order:
                break
    return PermGroup(degree, gens, _chain=chain)


def is_subgroup(H: PermGroup, G: PermGroup) -> bool:
    if H.degree != G.degree:
        raise DegreeMismatch(f"degrees {H.degree} and {G.degree} differ")
    return all(h in G for h in H.generators)


def check_subgroup(H: PermGroup, G: PermGroup, name: str = "H") -> None:
    """The one subgroup refusal: raise NotASubgroup, naming H ``name``,
    unless H is a subgroup of G (DegreeMismatch when their degrees differ)."""
    if not is_subgroup(H, G):
        raise NotASubgroup(f"{name} is not a subgroup of G")


def conjugacy_class(G: PermGroup, x: Permutation) -> frozenset[Permutation]:
    """Conjugacy class of x in G, by breadth-first closure under generator conjugation."""
    if x not in G:
        raise NotAMember(f"{x!r} is not in the group")
    limit = config.element_cap()
    pairs = [(g.inverse(), g) for g in G.generators]
    return frozenset(orbit_map(x, pairs, lambda y, gg: gg[0] * y * gg[1],
                               limit=limit, what="conjugacy class"))


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """Normalizer of H in G by brute scan over the element list."""
    check_subgroup(H, G)
    hgens = H.generators
    if not hgens:
        return G
    els = G.elements()
    hset = frozenset(H.elements())
    found = []
    for g in els:
        gi = g.inverse()
        if all(gi * h * g in hset for h in hgens):
            found.append(g)
    return span_from_elements(G.degree, found)


def is_normal(G: PermGroup, H: PermGroup, name: str = "H") -> bool:
    check_subgroup(H, G, name)
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
    for s in seeds:
        if s not in G:
            raise NotAMember(f"{s!r} is not in the group")
        if chain.add_gen(s):
            gens.append(s)
    ggens = G.generators
    ginvs = [g.inverse() for g in ggens]
    for s in gens:  # grows while it is walked: each new generator is conjugated too
        for g, gi in zip(ggens, ginvs):
            z = gi * s * g
            if chain.add_gen(z):
                gens.append(z)
    return PermGroup(G.degree, gens, _chain=chain)


def p_residual(G: PermGroup, p: int) -> PermGroup:
    """Smallest normal subgroup with quotient of order coprime to p.

    Equals the subgroup generated by all p-elements, computed here as the
    normal closure of one Sylow p-subgroup.  No library route calls it:
    ``sylow_ratio_bound_check`` takes the normal closure of the Sylow
    subgroup it holds already.
    """
    from . import sylow  # local import: sylow builds on this module

    check_prime(p)
    if G.order() % p:
        return PermGroup(G.degree)

    P = sylow.sylow_subgroup(G, p)
    return normal_closure(G, P.generators)


def schreier_tree(G: PermGroup, seed, act) -> dict:
    """The orbit of ``seed`` under G, where ``act(x, k)`` is the image of
    x under the k-th generator of G, as a Schreier tree: a dict, in
    discovery order, from each orbit point to its record, None for the
    seed and (parent's record, generator number) for the others."""
    return orbit_map(seed, range(len(G.generators)), act, lambda record, k: (record, k))


def transversal(G: PermGroup) -> Callable[[tuple | None], Permutation]:
    """A memoised map from a Schreier-tree record (``schreier_tree``) to
    the element u of G it stands for, the one that maps the seed to its
    point: its parent's element times its generator, one product per
    record.  The walk up to the nearest record met before is a loop, for
    a path can be as long as the orbit (1199 deep in C1200 on points).

    Records are keyed by identity, since a record's hash and ``==`` walk
    its whole path; the memo keeps each record it keys."""
    gens = G.generators
    memo = {id(None): (None, G.identity())}

    def element(record) -> Permutation:
        path = []
        while id(record) not in memo:
            path.append(record)
            record = record[0]
        u = memo[id(record)][1]
        for record in reversed(path):
            u = u * gens[record[1]]
            memo[id(record)] = record, u
        return u

    return element


def stabilizer(G: PermGroup, tree: dict, act) -> PermGroup:
    """The stabilizer of the seed of a Schreier tree (``schreier_tree``),
    with a ready chain.

    By Schreier's lemma it is generated by u * g * u'^-1, for u the
    transversal element of a point x, g a generator of G and u' that of
    act(x, g).  Its order is |G| / (orbit length), so the Schreier
    generators are rebuilt and sifted in (``span_from_elements``) only
    until the chain reaches that order.
    """
    gens = range(len(G.generators))
    u_of = transversal(G)

    def schreier():
        for x, record in tree.items():
            for k in gens:
                yield u_of(record) * G.generators[k] * u_of(tree[act(x, k)]).inverse()

    return span_from_elements(G.degree, schreier(), G.order() // len(tree))


def point_stabilizer(G: PermGroup, point: int) -> PermGroup:
    """Stabilizer of a point (``stabilizer`` on the point's orbit), with a
    ready chain."""
    if not 1 <= point <= G.degree:
        raise ValueError(f"point {point} outside 1..{G.degree}")

    def act(x: int, k: int) -> int:
        return G.generators[k]._images[x - 1]

    return stabilizer(G, schreier_tree(G, point, act), act)


def right_cosets(G: PermGroup, H: PermGroup
                 ) -> tuple[tuple[Permutation, ...], Callable[[Permutation], Permutation]]:
    """The right cosets H*g of a subgroup H, swept breadth-first from H
    itself, and the action of G on them.

    Returns the least element (by image table) of each coset, in discovery
    order, and the map ``induced`` that sends x in G to the permutation it
    induces on the cosets: point i, the coset of the i-th least element r,
    goes to the point of H*r*x.  A coset's least element is read off H's
    chain (``_Chain.least``), so the sweep costs about |G:H| times the
    number of generators walks of that chain, and the index must fit the
    element cap.
    """
    config.refuse_above("coset action", G.order() // H.order(), config.element_cap())
    least = H.chain().least
    # the identity is the least element of H
    reps = tuple(orbit_map(G.identity(), G.generators,
                           lambda r, s: least(start=r * s)))
    point_of = {rep: i for i, rep in enumerate(reps, 1)}

    def induced(x: Permutation) -> Permutation:
        return Permutation(tuple(point_of[least(start=rep * x)] for rep in reps))

    return reps, induced


def quotient_group(G: PermGroup, N: PermGroup
                   ) -> tuple[PermGroup, Callable[[Permutation], Permutation]]:
    """Quotient G/N as a permutation group on the right cosets of N.

    Returns the quotient together with the projection homomorphism.
    """
    if not is_normal(G, N, "N"):
        raise NotNormal("N is not normal in G")
    reps, induced = right_cosets(G, N)
    Q = PermGroup(len(reps), [induced(g) for g in G.generators])
    if Q.order() * N.order() != G.order():
        raise AssertionError("coset action does not realize the quotient")

    def project(x: Permutation) -> Permutation:
        if x not in G:
            raise NotAMember("element is not in the acting group")
        return induced(x)

    return Q, project
