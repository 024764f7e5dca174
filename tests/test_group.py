"""BSGS engine: order, membership, classes, normalizers, quotients.

The independent oracle throughout is `brute_closure`, which multiplies
image tables directly and never touches the stabilizer chain.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sylowlab import config
from sylowlab.catalog import catalog_upto, construct_text
from sylowlab.errors import CapExceeded, DegreeMismatch, NotAMember, NotASubgroup, NotNormal
from sylowlab.group import (
    Numbering,
    PermGroup,
    _Chain,
    conjugacy_class,
    element_orders,
    is_normal,
    is_subgroup,
    normal_closure,
    normalizer,
    orbit_map,
    p_residual,
    point_stabilizer,
    quotient_group,
    right_cosets,
    schreier_tree,
    span_from_elements,
    transversal,
)
from sylowlab.lattice import is_p_solvable, subgroup_lattice
from sylowlab.perm import Permutation
from sylowlab.tables import get_table

from conftest import (
    alternating,
    brute_closure,
    centralizer,
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


class TestElements:
    def test_elements_sorted_and_complete(self):
        G = symmetric(4)
        els = G.elements()
        assert len(els) == 24
        assert len(set(els)) == 24
        assert list(els) == sorted(els)
        assert els[0].is_identity()
        assert set(els) == brute_closure(4, list(G.generators))

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(config, "override", 1000)
        with pytest.raises(CapExceeded) as e:
            alternating(7).elements()
        assert e.value.required == 2520
        assert e.value.cap == 1000

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("SYLOWLAB_CAP", "50")
        with pytest.raises(CapExceeded):
            alternating(5).elements()
        # the override (the CLI's --cap) wins over the environment
        monkeypatch.setattr(config, "override", 60)
        assert len(alternating(5).elements()) == 60


@pytest.mark.parametrize("make", [e.build for e in catalog_upto(2000)]
                         + [lambda: construct_text("A7"), lambda: construct_text("S7")],
                         ids=[e.label for e in catalog_upto(2000)] + ["A7", "S7"])
def test_power_walk_orders_match_cycle_orders(make):
    G = make()
    assert element_orders(G) == [x.order() for x in G.elements()]


@pytest.mark.parametrize("label", ["S4", "A5", "D12", "SL(2,3)"])
def test_numbering_closes_under_conjugation(label):
    """Filled to the end from one element x, the conjugation lists number
    exactly the class of x, and each entry is the number of the conjugate
    by raw products."""
    G = construct_text(label)
    x = G.elements()[-1]
    numbering = Numbering(G, [x.images])
    numbering.close()
    assert {Permutation(t) for t in numbering.tables} == conjugacy_class(G, x)
    assert len(numbering.tables) == len(numbering.index)
    for g, row in zip(G.generators, numbering.conj):
        assert len(row) == len(numbering.tables)
        for i, t in enumerate(numbering.tables):
            assert numbering.tables[row[i]] == (g.inverse() * Permutation(t) * g).images


@pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
def test_least_walks_in_sorted_order(entry):
    """The depth-first walk of a chain returns the first element of the
    sorted element list that satisfies the predicate, and started at g,
    the least element of the coset H * g, for H each class representative
    of the lattice and g spread over G."""
    G = entry.build()
    chain = _Chain(G.degree, G.generators)
    els = sorted(G.elements())
    top = max(x.order() for x in els)
    for pred in (lambda x: x.order() == top, lambda x: x.images[-1] == 1):
        assert chain.least(pred) == min((x for x in els if pred(x)), default=None)
    lat = subgroup_lattice(G)
    starts = els[::max(1, len(els) // 12)] + list(G.generators)
    for members in lat.classes().values():
        H = lat.subgroup(members[0])
        h_els = H.elements()
        for g in starts:
            assert H.chain().least(start=g) == min(h * g for h in h_els), (H, g)


def _random_subgroups_of_s8(count: int = 12, seed: int = 8):
    """Generator lists of seeded random subgroups of S8: one to three
    generators, each a random permutation of a random set of points."""
    rng = random.Random(seed)
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(1, 9), rng.randint(2, 8))
            images = list(range(1, 9))
            for a, b in zip(support, rng.sample(support, len(support))):
                images[a - 1] = b
            gens.append(Permutation(images))
        yield gens


def _is_complete(chain: _Chain) -> bool:
    """Every orbit is closed under its level's strong generators, and every
    Schreier generator u * s * u'^-1 sifts to 1 through the deeper levels."""
    for i, orbit in enumerate(chain.orbits):
        for u, _ in orbit.values():
            for s in chain.strong_gens(i):
                image = orbit.get(s(u(chain.base[i])))
                if image is None:
                    return False
                residue, level = chain._sift_from(u * s * image[1], i + 1)
                if level < len(chain.base) or not residue.is_identity():
                    return False
    return True


@pytest.mark.parametrize(
    "degree, gens",
    [(G.degree, G.generators) for G in (e.build() for e in catalog_upto(500))]
    + [(8, gens) for gens in _random_subgroups_of_s8()],
    ids=[e.label for e in catalog_upto(500)] + [f"S8-random-{i}" for i in range(12)])
def test_closing_at_the_known_order_gives_a_complete_chain(degree, gens):
    """A chain whose closing stops once its order reaches the known order
    of the group lists the elements of a full closure and is a complete
    BSGS."""
    full = _Chain(degree, gens)
    order, els = full.order(), sorted(full.elements())
    chain = _Chain(degree)
    for g in gens:
        chain.add_gen(g, order)
    assert chain.order() == order
    assert sorted(chain.elements()) == els
    assert _is_complete(chain)


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
        # the refusal fires exactly when the orbit would pass the limit
        gens = [perm("(1 2 3 4 5)", 5)]
        assert len(orbit_map(1, gens, lambda pt, g: g(pt), limit=5)) == 5
        for limit in (4, 1):
            with pytest.raises(CapExceeded) as info:
                orbit_map(1, gens, lambda pt, g: g(pt), limit=limit, what="points")
            e = info.value
            assert (e.what, e.required, e.cap) == ("points", limit + 1, limit)
            assert str(e) == f"points: needs {limit + 1}, cap is {limit}"

    @pytest.mark.parametrize("make", [e.build for e in catalog_upto(500)]
                             + [lambda: construct_text("C1200")],
                             ids=[e.label for e in catalog_upto(500)] + ["C1200"])
    def test_schreier_transversal_maps_the_seed_to_each_point(self, make):
        """``transversal(G)`` maps every record of the Schreier tree of each
        point orbit to an element taking the seed to the record's point.
        The records go deepest first, so the first call walks the longest
        path with nothing memoised: in C1200 a path 1199 deep, past
        Python's default recursion limit."""
        G = make()
        for orbit in G.orbits():
            seed = min(orbit)
            tree = schreier_tree(G, seed, lambda x, k: G.generators[k](x))
            assert set(tree) == orbit
            u_of = transversal(G)
            for pt, record in reversed(tree.items()):
                assert u_of(record)(seed) == pt, (G, seed, pt)

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
        # oracle: stabilizer = brute filter, at every point of three groups
        for G in (symmetric(4), alternating(5), dihedral(6)):
            for pt in range(1, G.degree + 1):
                S = point_stabilizer(G, pt)
                assert set(S.elements()) == {x for x in G.elements()
                                             if x.images[pt - 1] == pt}, (G, pt)

    def test_point_stabilizer_index_is_orbit_size(self):
        for G in (symmetric(4), alternating(5), dihedral(6)):
            for pt in (1, G.degree):
                S = point_stabilizer(G, pt)
                assert G.order() == S.order() * len(G.orbit(pt))

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_point_stabilizer_comes_with_a_ready_chain(self, entry):
        """The stabilizer's chain is built with it and has order
        |G| / |orbit|."""
        G = entry.build()
        for pt in sorted({1, G.degree}):
            S = point_stabilizer(G, pt)
            assert S._chain is not None
            assert S._chain.order() * len(G.orbit(pt)) == G.order()
            assert all(x(pt) == pt for x in S.generators)


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

    def test_class_stops_at_cap(self, monkeypatch):
        monkeypatch.setattr(config, "override", 100)
        with pytest.raises(CapExceeded) as info:
            conjugacy_class(symmetric(6), perm("(1 2 3 4 5 6)", 6))
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

    @pytest.mark.parametrize("cycles", [[], ["(1 2)"], ["(1 2)", "(1 2 3)"],
                                        ["(1 2)", "(1 2 3 4)"]])
    def test_span_from_elements_reads_nothing_past_the_order(self, cycles):
        """With ``order``, no element is read once the chain reaches it:
        fed H's elements and then S4's, the last element read completes H."""
        H = PermGroup(4, [perm(c, 4) for c in cycles])
        read = []

        def feed():
            for x in [*H.elements(), *symmetric(4).elements()]:
                read.append(x)
                yield x

        S = span_from_elements(4, feed(), H.order())
        assert S.order() == PermGroup(4, read).order() == H.order()
        assert not read or PermGroup(4, read[:-1]).order() < H.order()


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
        els = set(G.elements())
        lat = subgroup_lattice(G)
        for i in range(len(lat)):
            H = lat.subgroup(i)
            reps, _ = right_cosets(G, H)
            assert len(reps) == G.order() // H.order()
            assert reps[0] == min(H.elements())
            covered = set()
            for r in reps:
                coset = [h * r for h in H.elements()]
                assert min(coset) == r
                covered.update(coset)
            # the cosets partition G
            assert covered == els


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

    def test_one_subgroup_test_of_n(self, monkeypatch):
        calls = []

        def counted(H, G):
            calls.append(H)
            return is_subgroup(H, G)

        monkeypatch.setattr("sylowlab.group.is_subgroup", counted)
        quotient_group(symmetric(4), klein_four())
        assert len(calls) == 1


class TestRefusals:
    """The refusals of the group layer, each on its smallest input."""

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            PermGroup(-1)

    def test_generator_of_another_degree(self):
        with pytest.raises(DegreeMismatch):
            PermGroup(4, [perm("(1 2)", 3)])

    def test_subgroup_test_across_degrees(self):
        with pytest.raises(DegreeMismatch, match="^degrees 3 and 4 differ$"):
            is_subgroup(PermGroup(3), PermGroup(4))

    def test_normal_closure_of_a_non_member(self):
        with pytest.raises(NotAMember):
            normal_closure(alternating(4), [perm("(1 2)", 4)])

    def test_point_stabilizer_outside_the_points(self):
        G = alternating(4)
        for point in (0, G.degree + 1):
            with pytest.raises(ValueError):
                point_stabilizer(G, point)

    def test_quotient_by_a_non_subgroup(self):
        with pytest.raises(NotASubgroup, match="^N is not a subgroup of G$"):
            quotient_group(alternating(4), PermGroup(4, [perm("(1 2)", 4)]))

    def test_projection_of_a_non_member(self):
        _, project = quotient_group(alternating(4), klein_four())
        with pytest.raises(NotAMember, match="^element is not in the acting group$"):
            project(perm("(1 2)", 4))

    def test_normalizer_of_the_trivial_subgroup(self):
        G = alternating(4)
        assert normalizer(G, PermGroup(4)) is G


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
