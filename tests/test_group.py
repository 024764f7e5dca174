"""BSGS engine: order, membership, classes, normalizers, quotients.

The independent oracle throughout is `brute_closure`, which multiplies
image tables directly and never touches the stabilizer chain.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sylowlab.catalog import catalog_upto, construct_text
from sylowlab.errors import CapExceeded, DegreeMismatch, NotAMember, NotASubgroup, NotNormal
from sylowlab.group import (
    PermGroup,
    _Chain,
    centralizer,
    conjugacy_class,
    is_normal,
    is_p_solvable,
    is_subgroup,
    normal_closure,
    normalizer,
    orbit_map,
    p_residual,
    point_stabilizer,
    quotient_group,
    right_cosets,
    span_from_elements,
)
from sylowlab.lattice import subgroup_lattice
from sylowlab.perm import Permutation
from sylowlab.tables import get_table

from conftest import (
    alternating,
    brute_closure,
    cyclic,
    dihedral,
    klein_four,
    perm,
    quotient_route_is_p_solvable,
    symmetric,
)


GENSETS = [
    (3, ["(1 2)", "(1 2 3)"]),
    (4, ["(1 2 3 4)", "(1 2)"]),
    (4, ["(1 2)(3 4)", "(1 3)(2 4)"]),
    (5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
    (6, ["(1 2 3)(4 5 6)", "(1 4)(2 5)(3 6)"]),
    (4, ["(1 2 3)"]),
    (5, []),
]


class TestOrderAndMembership:
    @pytest.mark.parametrize("degree,gens", GENSETS)
    def test_order_matches_brute_closure(self, degree, gens):
        ps = [perm(g, degree) for g in gens]
        G = PermGroup(degree, ps)
        assert G.order() == len(brute_closure(degree, ps))

    def test_alternating_orders(self):
        for n in (3, 4, 5, 6, 7, 9):
            assert alternating(n).order() == math.factorial(n) // 2

    def test_symmetric_orders(self):
        for n in (2, 3, 4, 5, 6):
            assert symmetric(n).order() == math.factorial(n)

    def test_trivial_group(self):
        G = PermGroup(4, [])
        assert G.order() == 1
        assert Permutation.identity(4) in G

    @pytest.mark.parametrize("degree,gens", GENSETS)
    def test_membership_agrees_with_closure(self, degree, gens):
        ps = [perm(g, degree) for g in gens]
        G = PermGroup(degree, ps)
        closure = brute_closure(degree, ps)
        # check every element of the closure plus a sample of outsiders
        for x in closure:
            assert x in G
        import itertools
        outsiders = 0
        for imgs in itertools.permutations(range(1, degree + 1)):
            x = Permutation(imgs)
            if x not in closure:
                assert x not in G
                outsiders += 1
            if outsiders >= 20:
                break

    def test_membership_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            perm("(1 2)", 3) in symmetric(4)

    def test_four_cycle_group_contains_double_transposition(self):
        G = PermGroup(4, [perm("(1 2 3 4)", 4)])
        assert perm("(1 3)(2 4)", 4) in G
        assert perm("(1 2)", 4) not in G

    def test_base_is_deterministic(self):
        a, b = alternating(5), alternating(5)
        assert a.base() == b.base()


class TestElements:
    def test_elements_sorted_and_complete(self):
        G = symmetric(4)
        els = G.elements()
        assert len(els) == 24
        assert len(set(els)) == 24
        assert list(els) == sorted(els)
        assert els[0].is_identity()
        assert set(els) == brute_closure(4, list(G.generators))

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded) as e:
            alternating(7).elements(cap=1000)
        assert e.value.required == 2520
        assert e.value.cap == 1000

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("SYLOWLAB_CAP", "50")
        with pytest.raises(CapExceeded):
            alternating(5).elements()
        # explicit argument wins over the environment
        assert len(alternating(5).elements(cap=60)) == 60


@pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
def test_least_walks_in_sorted_order(entry):
    """The depth-first walk of a chain on the base 1..degree returns the
    first element of the sorted element list that satisfies the predicate."""
    G = entry.build()
    chain = _Chain(G.degree, tuple(range(1, G.degree + 1)))
    for g in G.generators:
        chain.add_gen(g)
    els = sorted(G.elements())
    top = max(x.order() for x in els)
    for pred in (lambda x: x.order() == top, lambda x: x.images[-1] == 1):
        assert chain.least(pred) == min((x for x in els if pred(x)), default=None)


class TestOrbits:
    def test_transitive_generators(self):
        G = PermGroup(3, [perm("(1 2)", 3), perm("(2 3)", 3)])
        assert G.orbit(1) == {1, 2, 3}
        assert G.is_transitive()

    def test_fixed_point(self):
        G = PermGroup(4, [perm("(1 2 3)", 4)])
        assert G.orbit(4) == {4}
        assert not G.is_transitive()

    def test_pair_orbit(self):
        G = PermGroup(4, [perm("(1 2)(3 4)", 4)])
        assert G.orbit(3) == {3, 4}

    def test_orbits_partition(self):
        G = PermGroup(6, [perm("(1 2)", 6), perm("(3 4 5)", 6)])
        assert G.orbits() == ({1, 2}, {3, 4, 5}, {6})

    def test_orbit_out_of_range(self):
        with pytest.raises(ValueError):
            symmetric(3).orbit(4)

    @pytest.mark.parametrize("degree,gens", GENSETS[:5])
    def test_orbit_counting_lemma(self, degree, gens):
        # sum of fixed point counts = |G| * number of orbits
        G = PermGroup(degree, [perm(g, degree) for g in gens])
        total = sum(len(x.fixed_points()) for x in G.elements())
        assert total == G.order() * len(G.orbits())

    def test_orbit_map_discovery_order_and_transversal(self):
        gens = [perm("(1 3)(2 4)", 4), perm("(1 2)", 4)]
        act = lambda pt, g: g(pt)
        assert list(orbit_map(1, gens, act).items()) == [(1, None), (3, None), (2, None), (4, None)]
        trans = orbit_map(1, gens, act, Permutation.__mul__, Permutation.identity(4))
        assert trans[3] == gens[0] and trans[2] == gens[1]
        assert all(u(1) == pt for pt, u in trans.items())

    def test_orbit_map_limit(self):
        gens = [perm("(1 2 3 4 5)", 5)]
        assert len(orbit_map(1, gens, lambda pt, g: g(pt), limit=5)) == 5
        with pytest.raises(CapExceeded) as info:
            orbit_map(1, gens, lambda pt, g: g(pt), limit=4, what="points")
        assert (info.value.what, info.value.required, info.value.cap) == ("points", 5, 4)

    def test_chain_transversals_map_base_points(self):
        for entry in catalog_upto(2000):
            chain = entry.build().chain()
            for b, orbit in zip(chain.base, chain.orbits):
                for beta, (u, ui) in orbit.items():
                    assert u(b) == beta and ui == u.inverse(), entry.label

    def test_point_stabilizer(self):
        G = alternating(5)
        S = point_stabilizer(G, 5)
        assert S.order() == 12
        assert all(x.images[4] == 5 for x in S.elements())
        # oracle: stabilizer = brute filter
        assert set(S.elements()) == {x for x in G.elements() if x.images[4] == 5}

    def test_point_stabilizer_index_is_orbit_size(self):
        for G in (symmetric(4), alternating(5), dihedral(6)):
            for pt in (1, G.degree):
                S = point_stabilizer(G, pt)
                assert G.order() == S.order() * len(G.orbit(pt))


class TestConjugacyClasses:
    def test_s4_class_sizes(self):
        G = symmetric(4)
        sizes = sorted(len(c) for _, c in G.conjugacy_classes())
        assert sizes == [1, 3, 6, 6, 8]

    def test_a5_class_sizes(self):
        sizes = sorted(len(c) for _, c in alternating(5).conjugacy_classes())
        assert sizes == [1, 12, 12, 15, 20]

    def test_class_equation(self):
        for G in (symmetric(4), alternating(5), dihedral(7)):
            assert sum(len(c) for _, c in G.conjugacy_classes()) == G.order()

    def test_three_cycles_split_in_a4(self):
        G = alternating(4)
        cls = conjugacy_class(G, perm("(1 2 3)", 4))
        assert len(cls) == 4

    def test_three_cycles_fused_in_s3(self):
        assert len(conjugacy_class(symmetric(3), perm("(1 2 3)", 3))) == 2

    def test_class_of_identity(self):
        assert conjugacy_class(symmetric(4), Permutation.identity(4)) == {Permutation.identity(4)}

    def test_class_brute_oracle(self):
        G = symmetric(4)
        x = perm("(1 2)", 4)
        brute = {g.inverse() * x * g for g in G.elements()}
        assert conjugacy_class(G, x) == brute

    def test_class_stops_at_cap(self):
        with pytest.raises(CapExceeded) as info:
            conjugacy_class(symmetric(6), perm("(1 2 3 4 5 6)", 6), cap=100)
        assert (info.value.required, info.value.cap) == (101, 100)

    def test_class_requires_membership(self):
        with pytest.raises(NotAMember):
            conjugacy_class(alternating(4), perm("(1 2)", 4))

    def test_reps_are_lex_least(self):
        for rep, c in symmetric(4).conjugacy_classes():
            assert rep == min(c)


class TestCentralizer:
    def test_identity_centralizer_is_group(self):
        G = symmetric(4)
        assert centralizer(G, Permutation.identity(4)).order() == 24

    def test_s3_three_cycle(self):
        C = centralizer(symmetric(3), perm("(1 2 3)", 3))
        assert C.order() == 3
        assert perm("(1 2 3)", 3) in C

    def test_a4_double_transposition(self):
        assert centralizer(alternating(4), perm("(1 2)(3 4)", 4)).order() == 4

    def test_s4_transposition(self):
        assert centralizer(symmetric(4), perm("(1 2)", 4)).order() == 4

    def test_a5_five_cycle(self):
        assert centralizer(alternating(5), perm("(1 2 3 4 5)", 5)).order() == 5

    def test_orbit_stabilizer_identity(self):
        for G in (symmetric(4), alternating(5), dihedral(6)):
            for rep, c in G.conjugacy_classes():
                assert len(c) * centralizer(G, rep).order() == G.order()


class TestNormalizer:
    def test_normalizer_of_group_itself(self):
        G = symmetric(4)
        assert normalizer(G, G).order() == 24

    def test_s4_three_cycle_subgroup(self):
        H = PermGroup(4, [perm("(1 2 3)", 4)])
        assert normalizer(symmetric(4), H).order() == 6

    def test_a5_sylow3(self):
        H = PermGroup(5, [perm("(1 2 3)", 5)])
        N = normalizer(alternating(5), H)
        assert N.order() == 6
        assert alternating(5).order() // N.order() == 10

    def test_a5_sylow5(self):
        H = PermGroup(5, [perm("(1 2 3 4 5)", 5)])
        assert normalizer(alternating(5), H).order() == 10

    def test_s4_four_cycle(self):
        H = PermGroup(4, [perm("(1 2 3 4)", 4)])
        assert normalizer(symmetric(4), H).order() == 8

    def test_contains_subgroup(self):
        G = symmetric(4)
        H = PermGroup(4, [perm("(1 2 3)", 4)])
        N = normalizer(G, H)
        assert is_subgroup(H, N)

    def test_rejects_non_subgroup(self):
        with pytest.raises(NotASubgroup):
            normalizer(alternating(4), PermGroup(4, [perm("(1 2)", 4)]))

    def test_brute_oracle(self):
        G = symmetric(4)
        H = klein_four()
        expect = {g for g in G.elements()
                  if all(g.inverse() * h * g in H for h in H.elements())}
        assert set(normalizer(G, H).elements()) == expect


class TestSubgroupPredicates:
    def test_is_subgroup(self):
        assert is_subgroup(alternating(4), symmetric(4))
        assert is_subgroup(klein_four(), symmetric(4))
        assert not is_subgroup(symmetric(4), alternating(4))

    def test_normality(self):
        S4 = symmetric(4)
        assert is_normal(S4, klein_four())
        assert is_normal(S4, alternating(4))
        assert not is_normal(S4, PermGroup(4, [perm("(1 2)", 4)]))

    def test_generated_subgroup(self):
        assert PermGroup(3, []).order() == 1
        assert PermGroup(3, [perm("(1 2)", 3), perm("(1 2 3)", 3)]).order() == 6
        assert PermGroup(5, [perm("(1 2 3 4 5)", 5), perm("(1 2 3)", 5)]).order() == 60

    def test_span_from_elements_reduces_generators(self):
        els = symmetric(4).elements()
        G = span_from_elements(4, list(els))
        assert G.order() == 24
        assert len(G.generators) < 10


class TestNormalClosure:
    def test_transposition_closure_is_whole_s4(self):
        G = symmetric(4)
        assert normal_closure(G, [perm("(1 2)", 4)]).order() == 24

    def test_double_transposition_closure_is_v4(self):
        G = symmetric(4)
        N = normal_closure(G, [perm("(1 2)(3 4)", 4)])
        assert N.order() == 4
        assert set(N.elements()) == set(klein_four().elements())

    def test_closure_in_simple_group(self):
        G = alternating(5)
        assert normal_closure(G, [perm("(1 2 3)", 5)]).order() == 60


class TestPResidual:
    def test_s3(self):
        assert p_residual(symmetric(3), 3).order() == 3
        assert p_residual(symmetric(3), 2).order() == 6

    def test_p_group(self):
        G = cyclic(4)
        assert p_residual(G, 2).order() == 4

    def test_oracle_generated_by_p_elements(self):
        # subgroup generated by all p-power-order elements, brute
        for G, p in [(symmetric(4), 2), (symmetric(4), 3), (alternating(4), 2)]:
            seeds = [x for x in G.elements() if _is_p_power(x.order(), p)]
            expect = len(brute_closure(G.degree, seeds))
            assert p_residual(G, p).order() == expect

    def test_prime_not_dividing(self):
        assert p_residual(symmetric(3), 5).order() == 1


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


@pytest.mark.parametrize("slot, compute", [
    ("_chain", PermGroup.chain),
    ("_elements", PermGroup.elements),
    ("_classes", PermGroup.conjugacy_classes),
    ("_table", get_table),
    ("_lattice", subgroup_lattice),
])
def test_cache_is_filled_once(slot, compute):
    G = PermGroup(4, [perm("(1 2 3 4)", 4), perm("(1 2)", 4)])
    assert getattr(G, slot) is None
    first = compute(G)
    assert getattr(G, slot) is first
    assert compute(G) is first


def test_right_cosets_over_catalog():
    for entry in catalog_upto(2000):
        G = entry.build()
        images = {g.images for g in G.elements()}
        lat = subgroup_lattice(G)
        for i in range(len(lat)):
            H = lat.subgroup(i)
            reps, lookup = right_cosets(G, H)
            assert len(reps) == G.order() // H.order()
            assert len(lookup) == G.order() and set(lookup) == images
            assert reps[0] == min(H.elements())
            for k, r in enumerate(reps, 1):
                coset = [h * r for h in H.elements()]
                assert min(coset) == r
                assert all(lookup[x.images] == k for x in coset)


class TestQuotient:
    def test_s4_mod_v4(self):
        S4 = symmetric(4)
        Q, proj = quotient_group(S4, klein_four())
        assert Q.order() == 6
        # nonabelian, so isomorphic to S3
        a, b = (proj(g) for g in S4.generators)
        assert a * b != b * a

    def test_a4_mod_v4(self):
        Q, _ = quotient_group(alternating(4), klein_four())
        assert Q.order() == 3

    def test_g_mod_g(self):
        G = symmetric(3)
        Q, _ = quotient_group(G, G)
        assert Q.order() == 1

    def test_projection_is_homomorphism(self):
        S4 = symmetric(4)
        Q, proj = quotient_group(S4, alternating(4))
        assert Q.order() == 2
        els = S4.elements()
        for a in els[::5]:
            for b in els[::7]:
                assert proj(a * b) == proj(a) * proj(b)

    def test_kernel_is_n(self):
        S4 = symmetric(4)
        V = klein_four()
        Q, proj = quotient_group(S4, V)
        kernel = {g for g in S4.elements() if proj(g).is_identity()}
        assert kernel == set(V.elements())

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            quotient_group(symmetric(4), PermGroup(4, [perm("(1 2)", 4)]))


class TestPSolvable:
    def test_solvable_groups(self):
        assert is_p_solvable(symmetric(4), 2)
        assert is_p_solvable(symmetric(4), 3)
        assert is_p_solvable(dihedral(5), 5)
        assert is_p_solvable(cyclic(12), 2)

    def test_p_groups(self):
        assert is_p_solvable(cyclic(8), 2)
        assert is_p_solvable(klein_four(), 2)

    def test_a5_not_p_solvable(self):
        for p in (2, 3, 5):
            assert not is_p_solvable(alternating(5), p)

    def test_prime_not_dividing_order(self):
        # trivially p-solvable: the whole group is a p'-group
        assert is_p_solvable(symmetric(3), 5)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_quotient_route(self, p):
        groups = [e.build() for e in catalog_upto(2000)]
        groups += [construct_text(t) for t in
                   ("C2 wr C2 wr C2", "S4 x S3", "S3 wr C2")]
        for G in groups:
            assert is_p_solvable(G, p) == quotient_route_is_p_solvable(G, p), G


@settings(deadline=None, max_examples=25)
@given(st.lists(st.permutations([1, 2, 3, 4, 5]), min_size=0, max_size=3))
def test_property_order_matches_brute(images_lists):
    gens = [Permutation(tuple(im)) for im in images_lists]
    G = PermGroup(5, gens)
    assert G.order() == len(brute_closure(5, gens))
