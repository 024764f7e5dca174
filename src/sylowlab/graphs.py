"""Noncommuting graphs on pi-elements and their invariants.

For a set pi of primes, the vertices are the group elements whose order
has all prime factors in pi (including the identity).  Two vertices are
joined iff they do not commute.  The clique number of this graph is the
largest pairwise-noncommuting set of pi-elements; the commuting
probability is the exact proportion of ordered commuting pairs.

Both are built from conjugacy classes, not from all pairs of vertices.
The vertex set V is closed under conjugation, so a ``group.Numbering``
of G seeded with the sorted vertices numbers them by position and, once
closed, maps each position to its conjugate's under each generator of
G.  For each class X with least element x, one sweep finds C_V(x), the
vertices commuting with x.  A breadth-first walk of X then gives every
other row: y = g^-1 z g, reached from z by the generator g, commutes
exactly with g^-1 C_V(z) g, which is z's list mapped through g's
conjugation list, so the row costs |C_V(x)| lookups instead of |V|
commutation tests.  By the class equation the number of commuting
ordered pairs is the sum over the classes of |X| * |C_V(x)|, so the
commuting probability needs no graph at all; where a graph is built
anyway, it is read off the rows.  Element orders, which pick the
vertices, come from one power walk per cyclic subgroup
(``group.element_orders``).
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import itemgetter

from . import config
from .cliques import max_clique
from .covering import sigma_p
from .errors import ExprSyntaxError, OutOfDomain, PreconditionFailed
from .gf import check_prime, p_part
from .group import Numbering, PermGroup, element_orders, orbit_map
from .perm import Permutation
from .reports import CheckReport


class BitGraph:
    """Loop-free undirected graph over vertices 0..n-1 as adjacency bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(adj)
        if len(self.adj) != n:
            raise OutOfDomain(f"{len(self.adj)} rows for {n} vertices")
        for v, row in enumerate(self.adj):
            if row >> v & 1:
                raise OutOfDomain("loops are not allowed")
            if row >> n:
                raise OutOfDomain(f"row {v} has a bit above vertex {n - 1}")

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    @classmethod
    def from_edge_list(cls, text: str) -> "BitGraph":
        """Parse `u v` lines (1-based); blank lines and # comments skipped.

        The largest vertex number must fit the vertex limit of the
        noncommuting graphs, checked before any row is allocated."""
        edges = []
        top = 0
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                u, v = map(int, line.split())
            except ValueError:  # not two integers: rejected below
                u = v = 0
            if u < 1 or v < 1 or u == v:
                raise ExprSyntaxError(
                    f"edge list line {lineno}: {line!r} is not an edge of two "
                    "distinct positive vertex numbers", 0)
            top = max(top, u, v)
            edges.append((u - 1, v - 1))
        config.refuse_above("edge list vertices", top, config.element_cap())
        adj = [0] * top
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(top, adj)


class ElementGraph(BitGraph):
    """A BitGraph whose vertices are group elements."""

    __slots__ = ("vertices",)

    def __init__(self, vertices, adj):
        super().__init__(len(vertices), adj)
        self.vertices = tuple(vertices)


def pi_elements(G: PermGroup, pi) -> tuple[Permutation, ...]:
    """Elements whose order only involves primes from pi, sorted."""
    pi = frozenset(pi)
    for p in sorted(pi):
        check_prime(p)
    orders = element_orders(G)
    is_pi = {o: prod(p_part(o, p) for p in pi) == o for o in set(orders)}
    return tuple(x for x, o in zip(G.elements(), orders) if is_pi[o])


def _vertices(G: PermGroup, pi) -> tuple[Permutation, ...]:
    """The pi-elements, the vertices of every graph built here; their
    number must fit the element cap."""
    verts = pi_elements(G, pi)
    config.refuse_above("noncommuting graph vertices", len(verts), config.element_cap())
    return verts


def _pi_classes(G: PermGroup, verts):
    """Each conjugacy class of G among the sorted pi-elements ``verts``.

    The vertices are numbered by position in one ``Numbering`` of G,
    which they close, being a union of classes.  Yields, per class in
    order of its least element x, a dict from each member's position to
    the positions of the vertices commuting with it.  x's list comes from
    one commutation sweep; each other member y = g^-1 z g, reached from
    its BFS parent z by the generator g, commutes exactly with g^-1 C_V(z) g,
    so its list is z's mapped through g's conjugation list.
    """
    numbering = Numbering(G, (x.images for x in verts))
    numbering.close()
    assert len(numbering.tables) == len(verts), "pi-elements are closed under conjugation"
    conj = numbering.conj
    seen = bytearray(len(verts))
    for x, xt in enumerate(numbering.tables):
        if seen[x]:
            continue
        x_of, x_shifted = itemgetter(*xt), (0,) + xt
        cent = [j for j, yt in enumerate(numbering.tables)
                if x_of((0,) + yt) == itemgetter(*yt)(x_shifted)]
        members = orbit_map(x, range(len(conj)), lambda y, k: conj[k][y],
                            lambda cent, k: itemgetter(*cent)(conj[k]), cent)
        for y in members:
            seen[y] = 1
        yield members


def noncommuting_graph(G: PermGroup, pi) -> ElementGraph:
    """Loop-free graph on the pi-elements, joined iff they do not commute."""
    verts = _vertices(G, pi)
    bit = [1 << j for j in range(len(verts))]
    full = (1 << len(verts)) - 1
    adj = [0] * len(verts)
    for members in _pi_classes(G, verts):
        for y, cent in members.items():
            adj[y] = full ^ sum(map(bit.__getitem__, cent))
    return ElementGraph(verts, adj)


def _max_clique(graph: ElementGraph) -> tuple[Permutation, ...]:
    _, verts = max_clique(graph.n, list(graph.adj))
    return tuple(graph.vertices[v] for v in verts)


def max_noncommuting_set(G: PermGroup, pi) -> tuple[Permutation, ...]:
    """A maximum set of pairwise noncommuting pi-elements."""
    return _max_clique(noncommuting_graph(G, pi))


def n_pi(G: PermGroup, pi) -> int:
    """Largest number of pairwise noncommuting pi-elements."""
    return len(max_noncommuting_set(G, pi))


def pr_pi(G: PermGroup, pi) -> Fraction:
    """Exact proportion of ordered pairs of pi-elements that commute.

    Diagonal pairs count, so the value is at least 1/|vertices|.  By the
    class equation the commuting pairs number sum |X| * |C_V(x)| over
    the classes X of pi-elements.
    """
    verts = _vertices(G, pi)
    commuting = sum(len(cent) for members in _pi_classes(G, verts)
                    for cent in members.values())
    return Fraction(commuting, len(verts) ** 2)


def turan_bound_check(graph: BitGraph) -> CheckReport:
    """Edge count against (1 - 1/clique_number) * n^2 / 2, exactly."""
    edges = graph.edge_count()
    omega, _ = max_clique(graph.n, list(graph.adj))
    if graph.n == 0:
        bound = Fraction(0)
    else:
        bound = (1 - Fraction(1, omega)) * Fraction(graph.n ** 2, 2)
    return CheckReport(edges <= bound, {
        "vertices": graph.n,
        "edges": edges,
        "clique_number": omega,
        "bound": bound,
        "attained": edges == bound,
    })


def pr_times_clique_check(G: PermGroup, pi) -> CheckReport:
    """Commuting probability times clique number is at least 1."""
    # one graph gives both: its rows hold the noncommuting ordered pairs
    graph = noncommuting_graph(G, pi)
    pr = Fraction(graph.n ** 2 - 2 * graph.edge_count(), graph.n ** 2)
    k = len(_max_clique(graph))
    return CheckReport(pr * k >= 1, {
        "pi": sorted(pi),
        "probability": pr,
        "clique_number": k,
        "product": pr * k,
    })


def sigma_le_clique_check(G: PermGroup, p: int) -> CheckReport:
    """Covering number at most clique number, with the witness cover.

    Centralizers of a maximum noncommuting set of p-elements must cover
    every p-element; that cover certifies the inequality.  Needs a
    noncommuting pair to exist: with all p-elements commuting the
    centralizers are not proper and the argument (and the inequality,
    e.g. for elementary abelian groups) breaks down.  One graph gives
    both the clique and the p-elements it must cover, its vertices.
    """
    # sigma_p first: it rejects a G not generated by its p-elements
    sigma = sigma_p(G, p)
    graph = noncommuting_graph(G, {p})
    clique = _max_clique(graph)
    if len(clique) < 2:
        raise PreconditionFailed(
            "all p-elements commute; centralizer cover is degenerate")
    witness_covers = all(
        any(x * c == c * x for c in clique)
        for x in graph.vertices)
    return CheckReport(sigma <= len(clique) and witness_covers, {
        "p": p,
        "sigma": sigma,
        "clique_number": len(clique),
        "witness_covers": witness_covers,
        "clique": [x.cycle_string() for x in clique],
    })

