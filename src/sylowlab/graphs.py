"""Noncommuting graphs on pi-elements and their invariants.

For a set pi of primes, the vertices are the group elements whose order
has all prime factors in pi (including the identity).  Two vertices are
joined iff they do not commute.  The clique number of this graph is the
largest pairwise-noncommuting set of pi-elements; the commuting
probability is the exact proportion of ordered commuting pairs.

Both are built from conjugacy classes, not from all pairs of vertices.
The vertex set V is closed under conjugation, so for each class X with
least element x, one sweep finds C_V(x), the vertices commuting with x.
A transversal of X then gives every other row: the neighbours of
y = t^-1 x t are V minus t^-1 C_V(x) t, that is |C_V(x)| conjugations
instead of |V| commutation tests.  By the class equation the number of
commuting ordered pairs is the sum over the classes of |X| * |C_V(x)|,
so the commuting probability needs no graph at all.
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .cliques import max_clique
from .errors import CapExceeded, ExprSyntaxError, OutOfDomain, PreconditionFailed
from .group import PermGroup, orbit_map
from .perm import Permutation
from .reports import CheckReport
from .tables import check_prime


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
        """Parse `u v` lines (1-based); blank lines and # comments skipped."""
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

    def index_of(self, x: Permutation) -> int:
        return self.vertices.index(x)


def pi_elements(G: PermGroup, pi, cap: int | None = None) -> tuple[Permutation, ...]:
    """Elements whose order only involves primes from pi, sorted."""
    pi = frozenset(pi)
    for p in sorted(pi):
        check_prime(p)

    def is_pi_number(n: int) -> bool:
        for p in pi:
            while n % p == 0:
                n //= p
        return n == 1

    return tuple(x for x in G.elements(cap) if is_pi_number(x.order()))


def _vertices(G: PermGroup, pi, cap: int | None) -> tuple[Permutation, ...]:
    verts = pi_elements(G, pi, cap)
    limit = config.element_cap(cap)
    if len(verts) > limit:
        raise CapExceeded("noncommuting graph vertices", len(verts), limit)
    return verts


def _pi_classes(G: PermGroup, verts):
    """Each conjugacy class of G among the sorted pi-elements ``verts``.

    Yields ``(cent, transversal)`` per class, in order of the least
    element x of the class: ``cent`` lists the vertices that commute
    with x, and ``transversal`` maps each y in the class to a t with
    y = t^-1 x t.
    """
    pairs = [(g.inverse(), g) for g in G.generators]
    seen: set[Permutation] = set()
    for x in verts:
        if x in seen:
            continue
        transversal = orbit_map(x, pairs, lambda y, gg: gg[0] * y * gg[1],
                                step=lambda t, gg: t * gg[1], label=G.identity())
        seen.update(transversal)
        yield [y for y in verts if x * y == y * x], transversal


def noncommuting_graph(G: PermGroup, pi, cap: int | None = None) -> ElementGraph:
    """Loop-free graph on the pi-elements, joined iff they do not commute."""
    verts = _vertices(G, pi, cap)
    index = {x: i for i, x in enumerate(verts)}
    full = (1 << len(verts)) - 1
    adj = [0] * len(verts)
    for cent, transversal in _pi_classes(G, verts):
        for y, t in transversal.items():
            # y = t^-1 x t commutes exactly with t^-1 C_V(x) t
            t_inv = t.inverse()
            mask = 0
            for c in cent:
                mask |= 1 << index[t_inv * c * t]
            adj[index[y]] = full ^ mask
    return ElementGraph(verts, adj)


def max_noncommuting_set(G: PermGroup, pi,
                         cap: int | None = None) -> tuple[Permutation, ...]:
    """A maximum set of pairwise noncommuting pi-elements."""
    graph = noncommuting_graph(G, pi, cap)
    _, verts = max_clique(graph.n, list(graph.adj))
    return tuple(graph.vertices[v] for v in verts)


def n_pi(G: PermGroup, pi, cap: int | None = None) -> int:
    """Largest number of pairwise noncommuting pi-elements."""
    return len(max_noncommuting_set(G, pi, cap))


def pr_pi(G: PermGroup, pi, cap: int | None = None) -> Fraction:
    """Exact proportion of ordered pairs of pi-elements that commute.

    Diagonal pairs count, so the value is at least 1/|vertices|.  By the
    class equation the commuting pairs number sum |X| * |C_V(x)| over
    the classes X of pi-elements.
    """
    verts = _vertices(G, pi, cap)
    commuting = sum(len(cent) * len(transversal)
                    for cent, transversal in _pi_classes(G, verts))
    return Fraction(commuting, len(verts) ** 2)


def turan_bound_check(graph: BitGraph) -> CheckReport:
    """Edge count against (1 - 1/clique_number) * n^2 / 2, exactly."""
    edges = graph.edge_count()
    omega, _ = max_clique(graph.n, list(graph.adj))
    if graph.n == 0:
        bound = Fraction(0)
    else:
        bound = (1 - Fraction(1, omega)) * Fraction(graph.n ** 2, 2)
    return CheckReport("clique-edge-bound", edges <= bound, {
        "vertices": graph.n,
        "edges": edges,
        "clique_number": omega,
        "bound": bound,
        "attained": edges == bound,
    })


def pr_times_clique_check(G: PermGroup, pi, cap: int | None = None) -> CheckReport:
    """Commuting probability times clique number is at least 1."""
    pr = pr_pi(G, pi, cap)
    k = n_pi(G, pi, cap)
    return CheckReport("probability-clique-product", pr * k >= 1, {
        "pi": sorted(pi),
        "probability": pr,
        "clique_number": k,
        "product": pr * k,
    })


def sigma_le_clique_check(G: PermGroup, p: int, cap: int | None = None) -> CheckReport:
    """Covering number at most clique number, with the witness cover.

    Centralizers of a maximum noncommuting set of p-elements must cover
    every p-element; that cover certifies the inequality.  Needs a
    noncommuting pair to exist: with all p-elements commuting the
    centralizers are not proper and the argument (and the inequality,
    e.g. for elementary abelian groups) breaks down.
    """
    from .covering import p_elements, sigma_p

    # sigma_p first: it rejects a G not generated by its p-elements
    sigma = sigma_p(G, p, cap)
    clique = max_noncommuting_set(G, {p}, cap)
    if len(clique) < 2:
        raise PreconditionFailed(
            "all p-elements commute; centralizer cover is degenerate")
    witness_covers = all(
        any(x * c == c * x for c in clique)
        for x in p_elements(G, p, cap))
    return CheckReport("covering-clique-bound", sigma <= len(clique) and witness_covers, {
        "p": p,
        "sigma": sigma,
        "clique_number": len(clique),
        "witness_covers": witness_covers,
        "clique": [x.cycle_string() for x in clique],
    })

