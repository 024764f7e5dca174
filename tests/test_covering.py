"""Tests for minimal coverings of prime-power-order elements.

Frozen covering numbers were derived by running the exact set cover
solver over all proper subgroups (not just maximal ones) of each group,
which is an independent route through the search space.  The SL(2,8)
rows have their own routes, noted beside them.
"""

import json
import math
import time

import pytest

from sylowlab.catalog import catalog_entry, catalog_upto, construct, construct_text, parse_group_expr
from sylowlab.cli import main
from sylowlab.covering import (
    _cover_instance,
    _sigma_instance,
    class_cover,
    sigma_lower_bound_check,
    sigma_p,
    sigma_p_cover,
)
from sylowlab.errors import ClassNotCoverable, PreconditionFailed
from sylowlab.graphs import pi_elements
from sylowlab.group import PermGroup, conjugacy_class, p_residual, quotient_group
from sylowlab.lattice import subgroup_lattice
from sylowlab.setcover import min_cover
from sylowlab.sylow import nu_p
from sylowlab.tables import is_p_power

from conftest import alternating, cyclic, dihedral, klein_four, perm, symmetric


class TestPElements:
    def test_s3_two_elements(self):
        G = symmetric(3)
        els = frozenset(pi_elements(G, {2}))
        assert len(els) == 4  # identity plus three transpositions
        assert G.identity() in els
        assert all(e.order() in (1, 2) for e in els)

    def test_s3_three_elements(self):
        els = frozenset(pi_elements(symmetric(3), {3}))
        assert len(els) == 3
        assert sorted(e.order() for e in els) == [1, 3, 3]

    def test_p_group_is_all_of_it(self):
        G = dihedral(8)
        assert frozenset(pi_elements(G, {2})) == frozenset(G.elements())

    def test_absent_prime_gives_identity_only(self):
        G = alternating(4)
        assert frozenset(pi_elements(G, {5})) == frozenset({G.identity()})

    def test_a5_counts(self):
        G = alternating(5)
        assert len(frozenset(pi_elements(G, {2}))) == 16
        assert len(frozenset(pi_elements(G, {3}))) == 21
        assert len(frozenset(pi_elements(G, {5}))) == 25


class TestSigmaFrozen:
    @pytest.mark.parametrize(
        "builder, p, expected",
        [
            (lambda: symmetric(3), 2, 3),
            (lambda: alternating(4), 3, 4),
            (lambda: klein_four(), 2, 3),
            (lambda: alternating(5), 5, 6),
            (lambda: alternating(5), 2, 5),
            (lambda: alternating(5), 3, 4),
            (lambda: symmetric(4), 2, 3),
            (lambda: alternating(6), 2, 9),
            (lambda: alternating(6), 3, 7),
            # a scratch search with the residual-gain bound and iterative
            # deepening, separate from min_cover, found 9
            pytest.param(lambda: catalog_entry("SL(2,8)").build(), 2, 9, id="SL(2,8)-2-9"),
            # the routes for 3 and 7 are the tests below
            pytest.param(lambda: catalog_entry("SL(2,8)").build(), 3, 28, id="SL(2,8)-3-28"),
            pytest.param(lambda: catalog_entry("SL(2,8)").build(), 7, 8, id="SL(2,8)-7-8"),
            # min_cover with and without the exclusion of tried candidates
            pytest.param(lambda: construct(parse_group_expr("PSL(2,13)")), 3, 13,
                         id="PSL(2,13)-3-13"),
        ],
    )
    def test_value(self, builder, p, expected):
        assert sigma_p(builder(), p) == expected

    def test_elementary_abelian_9(self):
        G = PermGroup(6, [perm("(1 2 3)", 6), perm("(4 5 6)", 6)])
        assert sigma_p(G, 3) == 4

    def test_elementary_abelian_8(self):
        G = PermGroup(6, [perm("(1 2)", 6), perm("(3 4)", 6), perm("(5 6)", 6)])
        assert sigma_p(G, 2) == 3

    def test_cyclic_group_needs_infinitely_many(self):
        # a single generator of prime power order lies in no proper subgroup
        assert sigma_p(cyclic(4), 2) == math.inf
        assert sigma_p(cyclic(9), 3) == math.inf
        assert sigma_p(cyclic(2), 2) == math.inf

    def test_not_generated_by_p_elements_rejected(self):
        with pytest.raises(PreconditionFailed):
            sigma_p(symmetric(3), 3)
        with pytest.raises(PreconditionFailed):
            sigma_p(cyclic(6), 2)

    def test_sl28_p3_equals_sylow_count(self):
        # the Sylow 3-subgroups are cyclic of order 9 and meet trivially; a
        # generator lies in one maximal subgroup only, its normalizer D18,
        # so the cover takes one subgroup per Sylow subgroup
        G = catalog_entry("SL(2,8)").build()
        assert sigma_p(G, 3) == nu_p(G, 3) == 28

    def test_sl28_p7_is_a_vertex_cover_of_k9(self):
        # an element of order 7 fixes two of the nu_2 = 9 projective points
        # and lies in exactly three maximal subgroups: the two point
        # stabilizers (Borel subgroups) and the normalizer D14 of its torus.
        # Taking k stabilizers leaves C(9-k, 2) tori for the D14s.
        G = catalog_entry("SL(2,8)").build()
        points = nu_p(G, 2)
        assert points == 9
        assert sigma_p(G, 7) == min(k + math.comb(points - k, 2)
                                    for k in range(points + 1)) == 8


def primes_to_test(n):
    """The primes dividing n, and the least prime that does not."""
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]
    spare = next(q for q in range(2, n + 2) if n % q and all(q % d for d in range(2, q)))
    return primes + [spare]


class TestPreconditionReadOffTheCover:
    def test_refusal_matches_the_p_residual_across_catalog(self):
        # a second route to "G is generated by its p-elements": the normal
        # closure of a Sylow p-subgroup is all of G
        refused = 0
        for entry in catalog_upto(2000):
            G = entry.build()
            for p in primes_to_test(G.order()):
                generated = p_residual(G, p).order() == G.order()
                try:
                    value = sigma_p(G, p)
                except PreconditionFailed:
                    assert not generated, (entry.label, p)
                    refused += 1
                    continue
                assert generated, (entry.label, p)
                assert value >= 2, (entry.label, p)
        assert refused >= 30


class TestSigmaCoverWitness:
    @pytest.mark.parametrize(
        "builder, p",
        [
            (lambda: symmetric(3), 2),
            (lambda: alternating(4), 3),
            (lambda: alternating(5), 5),
            (lambda: symmetric(4), 2),
            pytest.param(lambda: catalog_entry("SL(2,8)").build(), 2, id="SL(2,8)-2"),
        ],
    )
    def test_witness_is_a_valid_cover(self, builder, p):
        G = builder()
        size, members = sigma_p_cover(G, p)
        assert size == len(members)
        targets = frozenset(pi_elements(G, {p}))
        covered = set()
        for gens in members:
            H = PermGroup(G.degree, list(gens))
            assert H.order() < G.order()
            covered.update(H.elements())
        assert targets <= covered

    def test_infinite_case_has_empty_witness(self):
        assert sigma_p_cover(cyclic(4), 2) == (math.inf, ())

    def test_trivial_group_has_no_cover(self):
        assert sigma_p_cover(PermGroup(1), 2) == (math.inf, ())

    def test_deterministic(self):
        G = alternating(5)
        assert sigma_p_cover(G, 5) == sigma_p_cover(G, 5)


class TestSympyCoverRoute:
    """The covers `compute sigma` prints, checked by sympy alone (the cover
    route of the benchmark's confirm script): each printed generator list
    generates a proper subgroup, and together they hold every p-element."""

    @pytest.mark.parametrize("label, p, sigma", [
        ("PSL(2,11)", 2, 6),
        ("A6", 2, 9),
        ("A6", 3, 7),
        ("PSL(2,7)", 2, 7),
        ("PSL(2,7)", 3, 7),
    ])
    def test_printed_cover_covers_every_p_element(self, capsys, label, p, sigma):
        pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics.named_groups import AlternatingGroup
        from sympy.combinatorics.perm_groups import PermutationGroup

        start = time.monotonic()
        assert main(["compute", "sigma", "--group", label, "-p", str(p), "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == sigma == len(report["cover"])
        degree = report["group"]["degree"]

        def sym_perm(cycle_string):
            cycles = [[int(v) - 1 for v in c.split()]
                      for c in cycle_string.strip("()").split(")(") if c]
            return SymPerm(cycles, size=degree)

        # sympy's own A6, so that group does not come from the catalog
        if label == "A6":
            G = AlternatingGroup(6)
        else:
            G = PermutationGroup([SymPerm([i - 1 for i in g.images])
                                  for g in construct_text(label).generators])
        members = [PermutationGroup([sym_perm(c) for c in gens]) for gens in report["cover"]]
        for M in members:
            assert M.is_subgroup(G) and M.order() < G.order()
        for x in G.generate():
            if x.order() > 1 and is_p_power(x.order(), p):
                assert any(M.contains(x) for M in members), x
        assert time.monotonic() - start < 60.0


class TestMinCoverFrozen:
    """The exact (size, indices) min_cover returned before its bounds were
    strengthened; the bounds must not change which cover is found."""

    @pytest.mark.parametrize("build, p, expected", [
        pytest.param(lambda: construct(parse_group_expr("PSL(2,11)")), 2,
                     (6, (67, 70, 71, 76, 84, 87)), id="PSL(2,11)-2"),
        pytest.param(lambda: alternating(6), 2,
                     (9, (0, 30, 31, 32, 33, 34, 35, 36, 37)), id="A6-2"),
        pytest.param(lambda: catalog_entry("SL(2,8)").build(), 2,
                     (9, (0, 1, 2, 3, 36, 37, 38, 39, 64)), id="SL(2,8)-2"),
        pytest.param(lambda: alternating(6), 3,
                     (7, (39, 40, 42, 43, 44, 45, 51)), id="A6-3"),
        pytest.param(lambda: construct(parse_group_expr("PSL(2,7)")), 3,
                     (7, (0, 1, 2, 3, 4, 5, 6)), id="PSL(2,7)-3"),
        pytest.param(lambda: construct(parse_group_expr("PSL(2,7)")), 2,
                     (7, (9, 11, 12, 15, 16, 19, 20)), id="PSL(2,7)-2"),
        pytest.param(lambda: construct(parse_group_expr("PSL(2,11)")), 5,
                     (11, (55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65)), id="PSL(2,11)-5"),
    ])
    def test_recorded_cover(self, build, p, expected):
        lat, universe, maximal = _sigma_instance(build(), p)
        masks = _cover_instance(lat, universe, maximal)
        assert min_cover(len(universe), masks) == expected

    def test_frontier_psl_2_13_at_3(self):
        # the search without the exclusion returns this cover too, in about 20 s
        lat, universe, maximal = _sigma_instance(construct(parse_group_expr("PSL(2,13)")), 3)
        masks = _cover_instance(lat, universe, maximal)
        start = time.monotonic()
        assert min_cover(len(universe), masks) == \
            (13, (77, 260, 261, 262, 263, 264, 265, 266, 267, 268, 269, 270, 271))
        assert time.monotonic() - start < 10.0


class TestMaximalOnlyReductionIsSound:
    """Restricting candidates to maximal subgroups cannot change the optimum.

    Every proper subgroup sits inside a maximal one, so any cover by
    proper subgroups converts to a cover by maximal subgroups of the
    same size. Checked directly by solving both instances.
    """

    @pytest.mark.parametrize(
        "builder, p",
        [
            (lambda: symmetric(3), 2),
            (lambda: alternating(4), 3),
            (lambda: klein_four(), 2),
            (lambda: alternating(5), 2),
            (lambda: alternating(5), 3),
            (lambda: alternating(5), 5),
            (lambda: symmetric(4), 2),
            (lambda: dihedral(12), 2),
        ],
    )
    def test_all_proper_subgroups_give_same_optimum(self, builder, p):
        G = builder()
        lat = subgroup_lattice(G)
        ctx = lat.ctx
        universe = sorted(
            i for i in range(ctx.n)
            if ctx.elt_order[i] > 1 and is_p_power(ctx.elt_order[i], p)
        )
        pos = {u: b for b, u in enumerate(universe)}
        masks = []
        for sub in lat.element_sets:
            if len(sub) == ctx.n:
                continue
            m = 0
            for i in sub:
                if i in pos:
                    m |= 1 << pos[i]
            masks.append(m)
        size, _ = min_cover(len(universe), masks)
        assert size == sigma_p(G, p)


class TestQuotientMonotonicity:
    """A cover of a quotient pulls back to a cover of the group."""

    def test_elementary_abelian_onto_klein(self):
        G = PermGroup(6, [perm("(1 2)", 6), perm("(3 4)", 6), perm("(5 6)", 6)])
        N = PermGroup(6, [perm("(5 6)", 6)])
        Q, _ = quotient_group(G, N)
        assert sigma_p(G, 2) <= sigma_p(Q, 2)

    def test_quotient_can_be_infinite(self):
        G = PermGroup(6, [perm("(1 2 3)", 6), perm("(4 5 6)", 6)])
        N = PermGroup(6, [perm("(4 5 6)", 6)])
        Q, _ = quotient_group(G, N)
        assert sigma_p(Q, 3) == math.inf
        assert sigma_p(G, 3) == 4


class TestClassCover:
    def test_a4_three_cycle_class(self):
        G = alternating(4)
        x = perm("(1 2 3)", 4)
        assert class_cover(G, x)[0] == 4

    def test_a5_five_cycle_class_exceeds_sylow_bound(self):
        G = alternating(5)
        x = perm("(1 2 3 4 5)", 5)
        n = class_cover(G, x)[0]
        assert n == 6
        assert n >= 5 + 1

    def test_central_class_needs_one_subgroup(self):
        G = PermGroup(6, [perm("(1 2 3)", 6), perm("(4 5 6)", 6)])
        assert class_cover(G, perm("(1 2 3)", 6))[0] == 1

    def test_witness_covers_the_class(self):
        G = alternating(4)
        x = perm("(1 2 3)", 4)
        size, members = class_cover(G, x)
        cls = set(conjugacy_class(G, x))
        covered = set()
        for gens in members:
            H = PermGroup(G.degree, list(gens))
            assert H.order() < G.order()
            covered.update(H.elements())
        assert cls <= covered
        assert size == len(members) == 4

    def test_generating_class_of_cyclic_group_uncoverable(self):
        G = cyclic(5)
        with pytest.raises(ClassNotCoverable):
            class_cover(G, perm("(1 2 3 4 5)", 5))

    def test_composite_order_rejected(self):
        G = cyclic(6)
        x = perm("(1 2 3 4 5 6)", 6)
        with pytest.raises(PreconditionFailed):
            class_cover(G, x)

    def test_identity_class_is_trivially_covered(self):
        G = alternating(4)
        assert class_cover(G, G.identity())[0] == 1


class TestLowerBoundCheck:
    @pytest.mark.parametrize(
        "builder, p",
        [
            (lambda: symmetric(3), 2),
            (lambda: alternating(4), 3),
            (lambda: alternating(5), 5),
            (lambda: alternating(6), 3),
        ],
    )
    def test_holds(self, builder, p):
        rep = sigma_lower_bound_check(builder(), p)
        assert rep.ok
        assert rep.details["lower_bound"] == p + 1

    def test_attained_flag(self):
        rep = sigma_lower_bound_check(alternating(4), 3)
        assert rep.ok and rep.details["attained"]
        rep = sigma_lower_bound_check(alternating(6), 2)
        assert rep.ok and not rep.details["attained"]

    def test_infinite_sigma_satisfies_bound(self):
        rep = sigma_lower_bound_check(cyclic(4), 2)
        assert rep.ok
        assert rep.details["sigma"] == math.inf
