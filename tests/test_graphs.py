"""Tests for noncommuting graphs, clique search, and probability bounds.

Clique numbers and commuting probabilities are frozen from independent
brute-force runs: Bron-Kerbosch enumeration for cliques, direct ordered
pair counting for probabilities.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sylowlab
from sylowlab.catalog import catalog_upto, construct_text
from sylowlab.cliques import _degeneracy_order, max_clique
from sylowlab.errors import CapExceeded, OutOfDomain, PreconditionFailed
from sylowlab.graphs import (
    BitGraph,
    max_noncommuting_set,
    n_pi,
    noncommuting_graph,
    pi_elements,
    pr_pi,
    pr_times_clique_check,
    sigma_le_clique_check,
    turan_bound_check,
)
from sylowlab.group import PermGroup

from conftest import (
    alternating,
    brute_noncommuting_graph,
    cyclic,
    klein_four,
    max_clique_reference,
    perm,
    symmetric,
)


def has_edge(g, v, w):
    return bool(g.adj[v] >> w & 1)


def edge_list_lines(g):
    """One `u v` line per edge, 1-based, u < v."""
    out = []
    for v in range(g.n):
        row = g.adj[v] >> (v + 1) << (v + 1)
        while row:
            w = (row & -row).bit_length() - 1
            out.append(f"{v + 1} {w + 1}")
            row &= row - 1
    return out


def bron_kerbosch_max(n, adj):
    """Independent maximum clique via full maximal clique enumeration."""
    best = [0]

    def rec(r_size, p_mask, x_mask):
        if not p_mask and not x_mask:
            best[0] = max(best[0], r_size)
            return
        pivot_pool = p_mask | x_mask
        u = (pivot_pool & -pivot_pool).bit_length() - 1
        branch = p_mask & ~adj[u]
        while branch:
            v = (branch & -branch).bit_length() - 1
            branch &= branch - 1
            bit = 1 << v
            rec(r_size + 1, p_mask & adj[v], x_mask & adj[v])
            p_mask &= ~bit
            x_mask |= bit

    rec(0, (1 << n) - 1 if n else 0, 0)
    return best[0]


def random_graph(rng, n, density):
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def twin_graph(rng, n, k, density):
    """A random graph on k classes blown up to n vertices: vertices of one
    class are pairwise non-adjacent twins with the same neighbourhood."""
    base = random_graph(rng, k, density)
    cls = [rng.randrange(k) for _ in range(n)]
    return [sum(1 << w for w in range(n) if base[cls[v]] >> cls[w] & 1)
            for v in range(n)]


def smallest_last_by_definition(n, adj):
    """Smallest-last order from its definition: repeatedly remove the
    vertex with fewest neighbours among those left, the least such
    vertex on a tie, counting neighbours pair by pair; then reverse."""
    left = list(range(n))
    out = []
    while left:
        degree = [sum(1 for w in left if adj[v] >> w & 1) for v in left]
        v = left[degree.index(min(degree))]
        out.append(v)
        left.remove(v)
    return out[::-1]


def complete_graph(n):
    full = (1 << n) - 1
    return BitGraph(n, [full & ~(1 << v) for v in range(n)])


def refusal_in_child_process(code: str, *flags: str) -> str:
    """The OutOfDomain message that ``code`` raises in a fresh interpreter
    started with ``flags``, which must end within 5 s."""
    code = ("from sylowlab.errors import OutOfDomain\n"
            "try:\n" + "".join(f"    {line}\n" for line in code.splitlines()) +
            "except OutOfDomain as err:\n"
            "    print(err)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, env=env, timeout=5)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestBitGraph:
    def test_triangle_basics(self):
        g = BitGraph(3, [0b110, 0b101, 0b011])
        assert g.edge_count() == 3
        assert g.degree(0) == 2
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)

    def test_loop_rejected(self):
        with pytest.raises(OutOfDomain, match="loops are not allowed"):
            BitGraph(2, [0b01, 0b10])

    @pytest.mark.parametrize("n, adj", [(2, [0b10, 0b101]), (2, [0b10]), (1, [0, 0])])
    def test_stray_bit_and_row_count_rejected(self, n, adj):
        with pytest.raises(OutOfDomain):
            BitGraph(n, adj)

    def test_loop_refused_under_optimization(self):
        # with ``python -O`` a loop once got past BitGraph's asserts, and
        # max_clique never returned on it, hence the timeout
        assert refusal_in_child_process(
            "from sylowlab.graphs import BitGraph, turan_bound_check\n"
            "assert not __debug__\n"
            "turan_bound_check(BitGraph(2, [0b11, 0b01]))\n", "-O") == "loops are not allowed"

    def test_edge_list_round_trip(self):
        g = BitGraph(4, [0b0110, 0b0101, 0b0011, 0b0000])
        lines = edge_list_lines(g)
        assert lines == ["1 2", "1 3", "2 3"]
        # vertex 4 is isolated and drops out of the round trip
        h = BitGraph.from_edge_list("\n".join(lines))
        assert h.n == 3
        assert h.adj == (0b110, 0b101, 0b011)

    def test_from_edge_list_comments_and_blanks(self):
        g = BitGraph.from_edge_list("# header\n1 2\n\n  2 3  # tail comment\n")
        assert g.n == 3
        assert g.edge_count() == 2

    @pytest.mark.parametrize("text", ["1 1", "0 2", "1", "1 2 3", "a b"])
    def test_from_edge_list_bad_input(self, text):
        with pytest.raises(ValueError):
            BitGraph.from_edge_list(text)


class TestNoncommutingGraph:
    def test_s3_involutions_triangle_plus_identity(self):
        G = symmetric(3)
        g = noncommuting_graph(G, {2})
        assert g.n == 4
        assert g.edge_count() == 3
        e = g.vertices.index(G.identity())
        assert g.degree(e) == 0
        others = [v for v in range(4) if v != e]
        for v in others:
            assert g.degree(v) == 2

    def test_s3_three_elements_edgeless(self):
        g = noncommuting_graph(symmetric(3), {3})
        assert g.n == 3
        assert g.edge_count() == 0

    def test_s3_all_elements(self):
        g = noncommuting_graph(symmetric(3), {2, 3})
        assert g.n == 6
        assert g.edge_count() == 9

    def test_abelian_edgeless(self):
        g = noncommuting_graph(cyclic(6), {2, 3})
        assert g.n == 6
        assert g.edge_count() == 0

    def test_vertices_are_pi_elements(self):
        G = alternating(5)
        g = noncommuting_graph(G, {2})
        assert g.vertices == pi_elements(G, {2})
        assert g.n == 16

    def test_edges_match_commutation(self):
        G = symmetric(4)
        g = noncommuting_graph(G, {3})
        for i, x in enumerate(g.vertices):
            for j, y in enumerate(g.vertices):
                if i != j:
                    assert has_edge(g, i, j) == (x * y != y * x)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            noncommuting_graph(alternating(5), {2, 3, 5}, cap=10)


def prime_divisors(n):
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, p))]


class TestAgainstBruteOracle:
    """The class-by-class builder against |V|^2 raw commutation tests.

    ``pr_pi`` counts commuting pairs by the class equation; the oracle's
    adjacency counts them directly: |V|^2 minus the noncommuting ordered
    pairs.
    """

    @staticmethod
    def assert_matches(G, pi):
        vertices, adj = brute_noncommuting_graph(G, pi)
        graph = noncommuting_graph(G, pi)
        assert list(graph.vertices) == vertices
        assert list(graph.adj) == adj
        n = len(vertices)
        noncommuting = sum(row.bit_count() for row in adj)
        assert pr_pi(G, pi) == Fraction(n * n - noncommuting, n * n)

    @pytest.mark.parametrize("entry", catalog_upto(500), ids=lambda e: e.label)
    def test_catalog(self, entry):
        G = entry.build()
        for pi in [{p} for p in prime_divisors(G.order())] + [{2, 3}]:
            self.assert_matches(G, pi)

    @pytest.mark.parametrize("label, pi", [
        ("A7", {2}),
        ("PSL(2,11)", {2, 3}),
        ("PSL(2,11)", {5}),
    ])
    def test_larger_groups(self, label, pi):
        self.assert_matches(construct_text(label), pi)


class TestIndependentRoutes:
    """Pr_pi against sympy's commuting ordered pairs and n_pi against the
    networkx clique number, on groups built by sympy where it has them
    (the routes of the benchmark's confirm script)."""

    @staticmethod
    def sympy_graph(label, pi):
        """Vertex count and noncommuting pairs (i < j) of the pi-elements,
        all from sympy."""
        pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics.named_groups import AlternatingGroup, SymmetricGroup
        from sympy.combinatorics.perm_groups import PermutationGroup
        from sympy import primefactors

        if label[0] in "AS" and label[1:].isdigit():
            G = (AlternatingGroup if label[0] == "A" else SymmetricGroup)(int(label[1:]))
        else:
            G = PermutationGroup([SymPerm([i - 1 for i in g.images])
                                  for g in construct_text(label).generators])
        verts = [x for x in G.generate() if set(primefactors(x.order())) <= pi]
        edges = [(i, j) for i, x in enumerate(verts) for j in range(i + 1, len(verts))
                 if x * verts[j] != verts[j] * x]
        return len(verts), edges

    @pytest.mark.parametrize("label, pi", [
        ("A5", {2, 3}),
        ("S5", {2, 3}),
        ("A6", {2, 3}),
        ("PSL(2,7)", {2}),
    ])
    def test_pr_and_clique_number(self, label, pi):
        nx = pytest.importorskip("networkx")
        n, edges = self.sympy_graph(label, pi)
        G = construct_text(label)
        assert pr_pi(G, pi) == Fraction(n * n - 2 * len(edges), n * n)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        _, omega = nx.max_weight_clique(graph, weight=None)
        assert n_pi(G, pi) == omega


class TestPiValidation:
    """Every graph entry point refuses a pi holding a non-prime, through
    pi_elements.  Before, pr_pi(S4, {4}) answered 25/49, pi = {0} raised
    ZeroDivisionError and pi = {1} never returned."""

    @pytest.mark.parametrize("pi", [{4}, {0}, {2, 4}, {3, 6}, {-2}])
    @pytest.mark.parametrize("call", [
        lambda pi: pi_elements(symmetric(4), pi),
        lambda pi: noncommuting_graph(symmetric(4), pi),
        lambda pi: pr_pi(symmetric(4), pi),
        lambda pi: n_pi(symmetric(4), pi),
        lambda pi: max_noncommuting_set(symmetric(4), pi),
    ], ids=["pi_elements", "noncommuting_graph", "pr_pi", "n_pi",
            "max_noncommuting_set"])
    def test_non_prime_is_out_of_domain(self, call, pi):
        bad = min(p for p in pi if p not in (2, 3))
        with pytest.raises(OutOfDomain, match=f"expected a prime, got {bad}"):
            call(pi)

    def test_one_in_child_process(self):
        # pi = {1} used to loop forever in pi_elements, hence the timeout
        code = (
            "from sylowlab.catalog import construct_text\n"
            "from sylowlab.errors import OutOfDomain\n"
            "from sylowlab.graphs import n_pi, pr_pi\n"
            "G = construct_text('S4')\n"
            "for call in (lambda: pr_pi(G, {1}), lambda: n_pi(G, {1, 2})):\n"
            "    try:\n"
            "        print(call())\n"
            "    except OutOfDomain as err:\n"
            "        print(err)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["expected a prime, got 1"] * 2


class TestCliqueNumberFrozen:
    @pytest.mark.parametrize(
        "builder, pi, expected",
        [
            (lambda: symmetric(3), {2}, 3),
            (lambda: symmetric(3), {3}, 1),
            (lambda: symmetric(3), {2, 3}, 4),
            (lambda: alternating(4), {2}, 1),
            (lambda: alternating(4), {3}, 4),
            (lambda: alternating(4), {2, 3}, 5),
            (lambda: symmetric(4), {2}, 6),
            (lambda: symmetric(4), {3}, 4),
            (lambda: symmetric(4), {2, 3}, 10),
            (lambda: alternating(5), {2}, 5),
            (lambda: alternating(5), {3}, 10),
            (lambda: alternating(5), {5}, 6),
            (lambda: alternating(5), {2, 3}, 15),
            (lambda: cyclic(6), {2}, 1),
        ],
    )
    def test_value(self, builder, pi, expected):
        assert n_pi(builder(), pi) == expected

    def test_witness_is_pairwise_noncommuting(self):
        G = symmetric(4)
        clique = max_noncommuting_set(G, {2})
        assert len(clique) == 6
        for i, x in enumerate(clique):
            for y in clique[i + 1:]:
                assert x * y != y * x


class TestCommutingProbabilityFrozen:
    @pytest.mark.parametrize(
        "builder, pi, expected",
        [
            (lambda: symmetric(3), {2}, Fraction(5, 8)),
            (lambda: symmetric(3), {3}, Fraction(1)),
            (lambda: symmetric(3), {2, 3}, Fraction(1, 2)),
            (lambda: alternating(4), {2}, Fraction(1)),
            (lambda: alternating(4), {3}, Fraction(11, 27)),
            (lambda: alternating(4), {2, 3}, Fraction(1, 3)),
            (lambda: symmetric(4), {2}, Fraction(11, 32)),
            (lambda: symmetric(4), {2, 3}, Fraction(5, 24)),
            (lambda: alternating(5), {2}, Fraction(19, 64)),
            (lambda: alternating(5), {5}, Fraction(29, 125)),
            (lambda: alternating(5), {2, 3}, Fraction(13, 108)),
            (lambda: cyclic(6), {2, 3}, Fraction(1)),
        ],
    )
    def test_value(self, builder, pi, expected):
        assert pr_pi(builder(), pi) == expected

    @pytest.mark.parametrize(
        "builder, pi",
        [
            (lambda: symmetric(3), {2}),
            (lambda: symmetric(4), {3}),
            (lambda: alternating(5), {5}),
        ],
    )
    def test_matches_ordered_pair_count(self, builder, pi):
        G = builder()
        verts = pi_elements(G, pi)
        commuting = sum(
            1 for x in verts for y in verts if x * y == y * x)
        assert pr_pi(G, pi) == Fraction(commuting, len(verts) ** 2)

    def test_diagonal_floor(self):
        # every vertex commutes with itself
        for G, pi in [(symmetric(4), {2}), (alternating(5), {3})]:
            v = len(pi_elements(G, pi))
            assert pr_pi(G, pi) >= Fraction(1, v)


class TestMaxCliqueSolver:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_graphs_match_bron_kerbosch(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 18)
        adj = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        size, verts = max_clique(n, list(adj))
        assert size == bron_kerbosch_max(n, adj)
        assert len(verts) == size
        for i, v in enumerate(verts):
            for w in verts[i + 1:]:
                assert adj[v] >> w & 1

    def test_loop_refused(self):
        # the greedy seed never shrank its candidates on a loop, hence the
        # child process and its timeout
        assert refusal_in_child_process(
            "from sylowlab.cliques import max_clique\n"
            "max_clique(1, [1])\n") == "loops are not allowed"

    def test_empty_and_tiny(self):
        assert max_clique(0, []) == (0, ())
        assert max_clique(1, [0]) == (1, (0,))
        assert max_clique(2, [0, 0])[0] == 1

    def test_complete_graph(self):
        g = complete_graph(6)
        size, verts = max_clique(g.n, list(g.adj))
        assert size == 6
        assert verts == (0, 1, 2, 3, 4, 5)

    def test_deterministic(self):
        rng = random.Random(5)
        adj = random_graph(rng, 14, 0.5)
        assert max_clique(14, list(adj)) == max_clique(14, list(adj))


class TestDegeneracyOrder:
    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.8])
    def test_random_graphs_match_definition(self, density):
        rng = random.Random(int(density * 10))
        for n in (1, 2, 3, 4, 6, 10, 16, 25, 40):
            for _ in range(3):
                adj = random_graph(rng, n, density)
                assert _degeneracy_order(n, adj) == smallest_last_by_definition(n, adj)

    def test_ties_go_to_the_lowest_index(self):
        # edgeless and complete graphs: every step is a tie
        assert _degeneracy_order(5, [0] * 5) == [4, 3, 2, 1, 0]
        assert _degeneracy_order(4, list(complete_graph(4).adj)) == [3, 2, 1, 0]
        # path 0-1-2: 0 and 2 tie at degree 1, then 1 and 2 tie at degree 1
        assert _degeneracy_order(3, [0b010, 0b101, 0b010]) == [2, 1, 0]
        # star centred at 3: the leaves go first, lowest index first
        star = [0b1000, 0b1000, 0b1000, 0b0111]
        assert _degeneracy_order(4, star) == [3, 2, 1, 0]

    def test_twins_match_definition(self):
        rng = random.Random(7)
        for n, k in [(12, 4), (30, 9), (50, 20)]:
            adj = twin_graph(rng, n, k, 0.6)
            assert _degeneracy_order(n, adj) == smallest_last_by_definition(n, adj)


# (size, sha256 of repr(witness)) from ``max_clique_reference`` where it
# takes about a second or more per graph
REFERENCE_WITNESS = {
    ("S7", (2,)): (315, "b97f015c5aa61d96cd87a38c485292531c22f135071164c98580e42df8f64354"),
    ("S7", (2, 3)): (945, "32bf797a8b7a0260bbbee72e6f69263b265171490cde809ff2a92f1d876a25cd"),
    ("A7", (2, 3)): (420, "12c48a19d2f7c7b0dbbe297483d124027cd4ada66383b4dc1d1837f21f677fea"),
}


class TestMaxCliqueMatchesReference:
    """``max_clique`` returns the identical (size, witness) pair as
    ``max_clique_reference``, the same algorithm relabeling bit by bit,
    so no clique number or clique witness in a report moves."""

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.9])
    def test_random_graphs(self, density):
        rng = random.Random(int(density * 10))
        for n in (0, 1, 2, 3, 5, 9, 17, 33, 50, 80):
            for _ in range(3):
                adj = random_graph(rng, n, density)
                assert max_clique(n, list(adj)) == max_clique_reference(n, adj)

    @pytest.mark.parametrize("density", [0.2, 0.5, 0.9])
    def test_graphs_with_twins(self, density):
        rng = random.Random(int(density * 10))
        for n, k in [(2, 1), (7, 3), (20, 6), (45, 15), (80, 30)]:
            adj = twin_graph(rng, n, k, density)
            assert max_clique(n, list(adj)) == max_clique_reference(n, adj)

    def test_bits_at_or_above_n_are_ignored(self):
        rng = random.Random(3)
        for n in (1, 2, 7, 20):
            adj = [row | rng.getrandbits(5) << n for row in random_graph(rng, n, 0.5)]
            assert max_clique(n, list(adj)) == max_clique_reference(n, adj)

    @pytest.mark.parametrize("pi", [(2,), (3,), (2, 3)], ids=str)
    def test_catalog_noncommuting_graphs(self, pi):
        for entry in catalog_upto(500):
            g = noncommuting_graph(entry.build(), pi)
            assert max_clique(g.n, list(g.adj)) == max_clique_reference(g.n, list(g.adj))

    @pytest.mark.parametrize("label, pi", [
        ("S7", (2,)), ("S7", (3,)), ("S7", (2, 3)),
        ("A7", (2,)), ("A7", (3,)), ("A7", (2, 3))], ids=str)
    def test_s7_and_a7(self, label, pi):
        g = noncommuting_graph(construct_text(label), pi)
        size, witness = max_clique(g.n, list(g.adj))
        if (label, pi) in REFERENCE_WITNESS:
            digest = hashlib.sha256(repr(witness).encode()).hexdigest()
            assert (size, digest) == REFERENCE_WITNESS[label, pi]
        else:
            assert (size, witness) == max_clique_reference(g.n, list(g.adj))


class TestTuranBound:
    def test_complete_graph_attains(self):
        rep = turan_bound_check(complete_graph(5))
        assert rep.ok
        assert rep.check == "clique-edge-bound"
        assert rep.details["attained"]
        assert rep.details["bound"] == Fraction(10)

    def test_path(self):
        rep = turan_bound_check(BitGraph.from_edge_list("1 2\n2 3\n3 4"))
        assert rep.ok and not rep.details["attained"]

    def test_empty_graph(self):
        assert turan_bound_check(BitGraph(0, [])).ok

    @pytest.mark.parametrize(
        "builder, pi",
        [
            (lambda: symmetric(3), {2}),
            (lambda: symmetric(4), {2, 3}),
            (lambda: alternating(5), {2}),
            (lambda: alternating(5), {5}),
        ],
    )
    def test_noncommuting_graphs(self, builder, pi):
        assert turan_bound_check(noncommuting_graph(builder(), pi)).ok

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 16)
        g = BitGraph(n, random_graph(rng, n, 0.5))
        rep = turan_bound_check(g)
        assert rep.ok
        assert rep.details["clique_number"] == bron_kerbosch_max(n, list(g.adj))


class TestPrTimesClique:
    @pytest.mark.parametrize(
        "builder, pi, product",
        [
            (lambda: symmetric(3), {2}, Fraction(15, 8)),
            (lambda: alternating(5), {2}, Fraction(95, 64)),
            (lambda: alternating(4), {3}, Fraction(44, 27)),
            (lambda: cyclic(6), {2, 3}, Fraction(1)),
        ],
    )
    def test_frozen_products(self, builder, pi, product):
        rep = pr_times_clique_check(builder(), pi)
        assert rep.ok
        assert rep.check == "probability-clique-product"
        assert rep.details["product"] == product

    @pytest.mark.parametrize(
        "builder, pi",
        [
            (lambda: symmetric(4), {2}),
            (lambda: symmetric(4), {3}),
            (lambda: alternating(5), {3}),
            (lambda: alternating(5), {5}),
            (lambda: alternating(5), {2, 3}),
        ],
    )
    def test_holds(self, builder, pi):
        assert pr_times_clique_check(builder(), pi).ok


class TestSigmaLeClique:
    @pytest.mark.parametrize(
        "builder, p, sigma, clique",
        [
            (lambda: symmetric(3), 2, 3, 3),
            (lambda: alternating(4), 3, 4, 4),
            (lambda: alternating(5), 5, 6, 6),
            (lambda: alternating(5), 2, 5, 5),
            (lambda: alternating(5), 3, 4, 10),
        ],
    )
    def test_holds(self, builder, p, sigma, clique):
        rep = sigma_le_clique_check(builder(), p)
        assert rep.ok
        assert rep.check == "covering-clique-bound"
        assert rep.details["sigma"] == sigma
        assert rep.details["clique_number"] == clique
        assert rep.details["witness_covers"]
        assert len(rep.details["clique"]) == clique

    def test_commuting_p_elements_rejected(self):
        with pytest.raises(PreconditionFailed):
            sigma_le_clique_check(klein_four(), 2)

    def test_not_generated_by_p_elements_rejected(self):
        with pytest.raises(PreconditionFailed):
            sigma_le_clique_check(symmetric(3), 3)
