"""Noncommuting graphs on pi-elements and their invariants.

For a set pi of primes, the vertices are the group elements whose order
has all prime factors in pi (including the identity).  Two vertices are
joined iff they do not commute.  The clique number of this graph is the
largest pairwise-noncommuting set of pi-elements; the commuting
probability is the exact proportion of ordered commuting pairs.
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .cliques import find_biclique, max_clique
from .errors import CapExceeded, ExprSyntaxError, PreconditionFailed
from .group import PermGroup, p_residual
from .perm import Permutation
from .reports import CheckReport, timed


class BitGraph:
    """Loop-free undirected graph over vertices 0..n-1 as adjacency bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(adj)
        assert len(self.adj) == n
        for v, row in enumerate(self.adj):
            assert not row & (1 << v), "loops are not allowed"
            assert row >> n == 0

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

    def is_pi_number(n: int) -> bool:
        for p in pi:
            while n % p == 0:
                n //= p
        return n == 1

    return tuple(x for x in G.elements(cap) if is_pi_number(x.order()))


def noncommuting_graph(G: PermGroup, pi, cap: int | None = None) -> ElementGraph:
    """Loop-free graph on the pi-elements, joined iff they do not commute."""
    verts = pi_elements(G, pi, cap)
    limit = config.element_cap(cap)
    if len(verts) > limit:
        raise CapExceeded("noncommuting graph vertices", len(verts), limit)
    adj = [0] * len(verts)
    for i, x in enumerate(verts):
        for j in range(i + 1, len(verts)):
            y = verts[j]
            if x * y != y * x:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
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

    Diagonal pairs count, so the value is at least 1/|vertices|.
    """
    graph = noncommuting_graph(G, pi, cap)
    v = graph.n
    return Fraction(v * v - 2 * graph.edge_count(), v * v)


def turan_bound_check(graph: BitGraph) -> CheckReport:
    """Edge count against (1 - 1/clique_number) * n^2 / 2, exactly."""
    report = CheckReport("clique-edge-bound", False)
    with timed(report):
        edges = graph.edge_count()
        omega, _ = max_clique(graph.n, list(graph.adj))
        if graph.n == 0:
            report.ok = True
            bound = Fraction(0)
        else:
            bound = (1 - Fraction(1, omega)) * Fraction(graph.n ** 2, 2)
            report.ok = edges <= bound
        report.details = {
            "vertices": graph.n,
            "edges": edges,
            "clique_number": omega,
            "bound": bound,
            "attained": edges == bound,
        }
    return report


def pr_times_clique_check(G: PermGroup, pi, cap: int | None = None) -> CheckReport:
    """Commuting probability times clique number is at least 1."""
    report = CheckReport("probability-clique-product", False)
    with timed(report):
        pr = pr_pi(G, pi, cap)
        k = n_pi(G, pi, cap)
        report.ok = pr * k >= 1
        report.details = {
            "pi": sorted(pi),
            "probability": pr,
            "clique_number": k,
            "product": pr * k,
        }
    return report


def sigma_le_clique_check(G: PermGroup, p: int, cap: int | None = None) -> CheckReport:
    """Covering number at most clique number, with the witness cover.

    Centralizers of a maximum noncommuting set of p-elements must cover
    every p-element; that cover certifies the inequality.  Needs a
    noncommuting pair to exist: with all p-elements commuting the
    centralizers are not proper and the argument (and the inequality,
    e.g. for elementary abelian groups) breaks down.
    """
    from .covering import p_elements, sigma_p

    if p_residual(G, p, cap).order() != G.order():
        raise PreconditionFailed("group must be generated by its p-elements")
    clique = max_noncommuting_set(G, {p}, cap)
    if len(clique) < 2:
        raise PreconditionFailed(
            "all p-elements commute; centralizer cover is degenerate")
    report = CheckReport("covering-clique-bound", False)
    with timed(report):
        sigma = sigma_p(G, p, cap)
        witness_covers = all(
            any(x * c == c * x for c in clique)
            for x in p_elements(G, p, cap))
        report.ok = sigma <= len(clique) and witness_covers
        report.details = {
            "p": p,
            "sigma": sigma,
            "clique_number": len(clique),
            "witness_covers": witness_covers,
            "clique": [x.cycle_string() for x in clique],
        }
    return report


def c_pi_membership(G: PermGroup, pi, m: int, n: int, cap: int | None = None):
    """Whether every pair of pi-element subsets of sizes m and n contains
    a commuting cross pair.

    Returns (True, None) or (False, (side_m, side_n)) where the witness
    sides are disjoint tuples of elements with no commuting cross pair.
    A shared element would commute with itself, so only disjoint sides
    can witness failure.
    """
    if m < 1 or n < 1:
        raise PreconditionFailed("side sizes must be at least 1")
    if m > 6 or n > 6:
        raise PreconditionFailed("side sizes above 6 are not supported")
    limit = cap if cap is not None else 64
    verts = pi_elements(G, pi)
    if len(verts) > limit:
        raise CapExceeded("pi-elements for biclique search", len(verts), limit)
    graph = noncommuting_graph(G, pi)
    hit = find_biclique(graph.n, list(graph.adj), m, n)
    if hit is None:
        return True, None
    side_m, side_n = hit
    return False, (tuple(graph.vertices[v] for v in side_m),
                   tuple(graph.vertices[v] for v in side_n))
