"""Coset actions, fixed point ratios, and the canonical p-element."""

import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    alternating,
    cyclic,
    dihedral,
    min_fpr_by_classes,
    perm,
    prime_factors,
    symmetric,
)
from sylowlab import config
from sylowlab.actions import (
    CosetAction,
    canonical_p_element,
    coset_action,
    fpr_element,
    fpr_subgroup,
    min_fpr_p_element,
    natural_action,
    subset_fpr_formula,
    sylow_orbit_bound_check,
)
from sylowlab.catalog import catalog_upto, construct_text
from sylowlab.errors import (
    CapExceeded,
    NoPElement,
    NotAMember,
    NotASubgroup,
    NotTransitive,
    OutOfDomain,
    PreconditionFailed,
)
from sylowlab.group import PermGroup
from sylowlab.lattice import subgroup_lattice
from sylowlab.perm import Permutation
from sylowlab.sylow import sylow_subgroup


def alt5_point_subgroup():
    return PermGroup(5, [perm("(1 2 3)", 5), perm("(1 2)(3 4)", 5)])


def brute_core(G, H):
    """Intersection of all conjugates of H, by scanning elements."""
    h_set = frozenset(H.elements())
    els = G.elements()
    return frozenset(x for x in h_set
                     if all(x.conjugate(g) in h_set for g in els))


class TestCosetAction:
    def test_index_five(self):
        act = coset_action(alternating(5), alt5_point_subgroup())
        assert act.degree == 5
        assert act.degree * act.point_stabilizer.order() == act.group.order()
        image = act.image(act.group.generators)
        assert image.is_transitive()
        assert image.order() == 60

    def test_stabilizer_of_first_point(self):
        G = symmetric(4)
        H = PermGroup(4, [perm("(1 2 3)", 4), perm("(1 2)", 4)])
        act = coset_action(G, H)
        assert act.degree == 4
        for h in H.elements():
            assert act.act(h)(1) == 1
        fixers = sum(1 for g in G.elements() if act.act(g)(1) == 1)
        assert fixers == H.order()

    def test_kernel_is_core(self):
        # quaternion-free example with a nontrivial core: S4 over D8
        G = symmetric(4)
        H = PermGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
        act = coset_action(G, H)
        core = brute_core(G, H)
        assert act.image(act.group.generators).order() * len(core) == G.order()

    def test_point_map_starts_at_identity_coset(self):
        act = coset_action(symmetric(3), PermGroup(3, [perm("(1 2)", 3)]))
        assert act.point_map[0] in act.point_stabilizer.elements()

    def test_rejects_non_subgroup(self):
        with pytest.raises(NotASubgroup):
            coset_action(alternating(4), PermGroup(4, [perm("(1 2)", 4)]))

    def test_rejects_whole_group(self):
        G = symmetric(3)
        with pytest.raises(PreconditionFailed):
            coset_action(G, symmetric(3))

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(config, "override", 10)
        with pytest.raises(CapExceeded):
            coset_action(symmetric(4), PermGroup(4, [perm("(1 2)", 4)]))

    def test_cap_bounds_the_index_not_the_group(self, monkeypatch):
        # 24 elements are above the cap of 10, the 4 cosets of the point
        # stabilizer S3 of 4 are not; each x fixes as many cosets as points
        G = symmetric(4)
        H = PermGroup(4, [perm("(1 2)", 4), perm("(2 3)", 4)])
        G.elements()  # listed before the cap, as the loop below reads them
        monkeypatch.setattr(config, "override", 10)
        act = coset_action(G, H)
        assert act.degree == 4
        for x in G.elements():
            assert len(act.fixed_points(x)) == len(x.fixed_points())
        assert act.image(G.generators).order() == 24

    def test_act_rejects_outsider(self):
        act = coset_action(alternating(4), klein())
        with pytest.raises(NotAMember):
            act.act(perm("(1 2)", 4))


def klein():
    return PermGroup(4, [perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)])


class TestNaturalAction:
    def test_matches_given_points(self):
        act = natural_action(alternating(5))
        x = perm("(1 2 3)", 5)
        assert act.act(x) == x
        assert act.degree == 5
        assert act.point_stabilizer.order() == 12

    def test_agrees_with_coset_route(self):
        G = alternating(5)
        nat = natural_action(G)
        cos = coset_action(G, alt5_point_subgroup())
        for rep, _ in G.conjugacy_classes():
            assert len(nat.fixed_points(rep)) == len(cos.fixed_points(rep))

    def test_point_map_sends_one_everywhere(self):
        act = natural_action(alternating(4))
        for i, rep in enumerate(act.point_map, start=1):
            assert rep(1) == i

    def test_rejects_intransitive(self):
        with pytest.raises(NotTransitive):
            natural_action(PermGroup(4, [perm("(1 2)(3 4)", 4)]))


class TestPrimitivity:
    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_matches_lattice_maximality(self, entry):
        lat = subgroup_lattice(entry.build())
        maximal = set(lat.maximal_indices())
        for members in lat.classes().values():
            i = members[0]
            if i == lat.top:
                continue
            act = coset_action(lat.parent, lat.subgroup(i))
            assert act.is_primitive() == (i in maximal), (entry.label, i)

    @pytest.mark.parametrize("G, primitive", [
        (symmetric(4), True),
        (alternating(5), True),
        (dihedral(4), False),
        (PermGroup(4, [perm("(1 2)", 4), perm("(1 3)(2 4)", 4)]), False),
    ], ids=["S4", "A5", "D8", "C2wrC2"])
    def test_natural_action(self, G, primitive):
        assert natural_action(G).is_primitive() == primitive


class TestFprElement:
    def test_identity_fixes_everything(self):
        act = natural_action(symmetric(4))
        assert fpr_element(act, Permutation.identity(4)) == 1

    def test_three_cycle_on_five_points(self):
        act = natural_action(alternating(5))
        assert fpr_element(act, perm("(1 2 3)", 5)) == Fraction(2, 5)

    def test_coset_route_three_cycle(self):
        act = coset_action(alternating(5), alt5_point_subgroup())
        assert fpr_element(act, perm("(1 2 3)", 5)) == Fraction(2, 5)

    def test_order_four_element_in_alternating_6(self):
        act = natural_action(alternating(6))
        assert fpr_element(act, perm("(1 2 3 4)(5 6)", 6)) == 0

    def test_class_function(self):
        act = coset_action(symmetric(4),
                           PermGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)]))
        x = perm("(1 2)", 4)
        for g in act.group.elements():
            assert fpr_element(act, x.conjugate(g)) == fpr_element(act, x)

    def test_rejects_outsider(self):
        act = natural_action(alternating(4))
        with pytest.raises(NotAMember):
            fpr_element(act, perm("(1 2)", 4))

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_matches_class_formula(self, entry):
        # x fixes the coset H*r exactly when r x r^-1 lies in H, so the
        # ratio is |x^G meet H| / |x^G|: checked in the natural action and
        # on the cosets of one maximal subgroup per class
        G = entry.build()
        lat = subgroup_lattice(G)
        first = {}
        for i in lat.maximal_indices():
            first.setdefault(lat.class_ids[i], i)
        actions = [coset_action(G, lat.subgroup(i)) for i in first.values()]
        if G.is_transitive():
            actions.append(natural_action(G))
        classes = G.conjugacy_classes()
        for act in actions:
            H = frozenset(act.point_stabilizer.elements())
            for x, cls in classes:
                assert fpr_element(act, x) == Fraction(len(cls & H), len(cls)), (act.degree, x)


class TestFprSubgroup:
    def test_trivial_subgroup(self):
        act = natural_action(alternating(5))
        assert fpr_subgroup(act, PermGroup(5, [])) == 1

    def test_cyclic_on_five_points(self):
        act = natural_action(alternating(5))
        P = PermGroup(5, [perm("(1 2 3)", 5)])
        assert fpr_subgroup(act, P) == Fraction(2, 5)

    def test_bounded_by_every_member(self):
        G = symmetric(4)
        act = coset_action(G, PermGroup(4, [perm("(1 2 3)", 4),
                                            perm("(1 2)", 4)]))
        for gens in [["(1 2)(3 4)", "(1 3)(2 4)"], ["(1 2 3 4)"],
                     ["(1 2)", "(3 4)"]]:
            P = PermGroup(4, [perm(s, 4) for s in gens])
            bound = fpr_subgroup(act, P)
            for x in P.elements():
                assert bound <= fpr_element(act, x)

    def test_rejects_non_subgroup(self):
        act = natural_action(alternating(4))
        with pytest.raises(NotASubgroup):
            fpr_subgroup(act, PermGroup(4, [perm("(1 2)", 4)]))

    def test_refusal_names_p_and_g(self):
        act = natural_action(alternating(4))
        with pytest.raises(NotASubgroup, match="^P is not a subgroup of G$"):
            fpr_subgroup(act, PermGroup(4, [perm("(1 2)", 4)]))


class TestCanonicalPElement:
    @pytest.mark.parametrize("n,p,expected", [
        (5, 3, "(1 2 3)"),
        (5, 2, "(1 2)(3 4)"),
        (6, 2, "(1 2 3 4)(5 6)"),
        (2, 2, "()"),
        (3, 2, "()"),
        (9, 3, "(1 2 3 4 5 6 7 8 9)"),
        (12, 2, "(1 2 3 4 5 6 7 8)(9 10 11 12)"),
        (7, 7, "(1 2 3 4 5 6 7)"),
        (10, 3, "(1 2 3 4 5 6 7 8 9)"),
    ])
    def test_frozen_shapes(self, n, p, expected):
        assert canonical_p_element(n, p).cycle_string() == expected

    @pytest.mark.parametrize("n", range(2, 41))
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_always_even_with_p_power_order(self, n, p):
        if n < p:
            return
        x = canonical_p_element(n, p)
        assert x.degree == n
        assert x.is_even()
        o = x.order()
        while o % p == 0:
            o //= p
        assert o == 1

    @pytest.mark.parametrize("n", range(3, 30))
    @pytest.mark.parametrize("p", [3, 5])
    def test_odd_p_cycle_counts_match_digits(self, n, p):
        if n < p:
            return
        x = canonical_p_element(n, p)
        counts = {}
        for c in x.cycles(include_fixed=True):
            counts[len(c)] = counts.get(len(c), 0) + 1
        i, m = 0, n
        while m:
            m, d = divmod(m, p)
            assert counts.get(p ** i, 0) == d
            i += 1

    def test_rejects_when_no_p_element(self):
        with pytest.raises(NoPElement):
            canonical_p_element(4, 5)


class TestSubsetFormula:
    @pytest.mark.parametrize("n,k,p,expected", [
        (5, 1, 3, Fraction(2, 5)),
        (11, 4, 3, Fraction(0)),
        (6, 2, 2, Fraction(1, 15)),
        (9, 4, 3, Fraction(0)),
        (10, 3, 3, Fraction(0)),
        (13, 4, 3, Fraction(1, 715)),
        (7, 2, 5, Fraction(1, 21)),
    ])
    def test_frozen_values(self, n, k, p, expected):
        assert subset_fpr_formula(n, k, p) == expected

    def test_rejects_excluded_parity_branch(self):
        # 5 = 101 in base 2: digit sum above the units place is odd
        with pytest.raises(OutOfDomain):
            subset_fpr_formula(5, 1, 2)

    @pytest.mark.parametrize("n,k", [(6, 0), (6, 3), (6, 5), (4, 2)])
    def test_rejects_bad_subset_size(self, n, k):
        with pytest.raises(OutOfDomain):
            subset_fpr_formula(n, k, 3)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_direct_subset_count(self, n):
        """Closed form vs counting fixed k-subsets of the canonical element."""
        for p in (2, 3, 5, 7):
            if p > n:
                continue
            for k in range(1, n):
                if not 2 * k < n:
                    continue
                try:
                    value = subset_fpr_formula(n, k, p)
                except OutOfDomain:
                    continue
                x = canonical_p_element(n, p)
                fixed = sum(
                    1 for c in itertools.combinations(range(1, n + 1), k)
                    if frozenset(x(i) for i in c) == frozenset(c))
                assert value == Fraction(fixed, comb(n, k))


class TestBinomialInequalities:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=4))
    def test_product_of_binomials_bounded_by_binomial_of_sums(self, pairs):
        pairs = [(max(c, d), min(c, d)) for c, d in pairs]
        prod = 1
        for c, d in pairs:
            prod *= comb(c, d)
        total_c = sum(c for c, _ in pairs)
        total_d = sum(d for _, d in pairs)
        assert prod <= comb(total_c, total_d)

    @settings(max_examples=300)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
    def test_binomial_ratio_bounded_by_argument_ratio(self, x, y, z):
        r, a, b = sorted((x, y, z))
        assert Fraction(comb(a, r), comb(b, r)) <= Fraction(a, b)

    def test_ratio_inequality_needs_positive_r(self):
        # with r = 0 both binomials are 1 and the bound a/b fails
        assert Fraction(comb(3, 0), comb(5, 0)) > Fraction(3, 5)


class TestMinFpr:
    def test_sharp_for_p_3_on_five_points(self):
        x, ratio = min_fpr_p_element(natural_action(alternating(5)), 3)
        assert ratio == Fraction(2, 5) == Fraction(3 - 1, 2 * 3 - 1)
        assert x.order() == 3

    def test_symmetric_3_at_p_2(self):
        x, ratio = min_fpr_p_element(natural_action(symmetric(3)), 2)
        assert ratio == Fraction(1, 3)
        assert x.order() == 2

    def test_matches_exhaustive_scan(self):
        G = symmetric(4)
        act = coset_action(G, PermGroup(4, [perm("(1 2 3)", 4),
                                            perm("(1 2)", 4)]))
        for p in (2, 3):
            _, ratio = min_fpr_p_element(act, p)
            brute = min(
                Fraction(len(act.fixed_points(x)), act.degree)
                for x in G.elements()
                if x.order() > 1 and x.order() == p ** _plog(x.order(), p))
            assert ratio == brute

    def test_deterministic(self):
        act = natural_action(alternating(6))
        assert min_fpr_p_element(act, 2) == min_fpr_p_element(act, 2)

    def test_rejects_prime_not_dividing(self):
        with pytest.raises(NoPElement):
            min_fpr_p_element(natural_action(symmetric(3)), 7)

    def test_matches_class_scan_over_catalog(self):
        """Read off a Sylow subgroup, the least (ratio, order) and its least
        element of G are the ones the class scan finds, on the natural
        action and on the coset action of every proper Sylow subgroup."""
        for entry in catalog_upto(2000):
            G = entry.build()
            if not G.is_transitive():
                continue
            primes = prime_factors(G.order())
            actions = [natural_action(G)] + [
                coset_action(G, S) for S in (sylow_subgroup(G, q) for q in primes)
                if S.order() < G.order()]
            for action in actions:
                for p in primes:
                    assert min_fpr_p_element(action, p) == min_fpr_by_classes(action, p), (
                        entry.label, action.degree, p)

    @pytest.mark.parametrize("label", ["A7", "S7", "A8"])
    def test_matches_class_scan_on_larger_groups(self, label):
        action = natural_action(construct_text(label))
        for p in prime_factors(action.group.order()):
            assert min_fpr_p_element(action, p) == min_fpr_by_classes(action, p), p

    def test_never_lists_the_group(self):
        G = construct_text("A8")
        x, ratio = min_fpr_p_element(natural_action(G), 5)
        assert (x.cycle_string(), ratio) == ("(4 5 6 7 8)", Fraction(3, 8))
        assert G._elements is None


def _plog(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else -1


class TestSylowOrbitBound:
    def test_alternating_4(self):
        r = sylow_orbit_bound_check(natural_action(alternating(4)), 3)
        assert r.ok and r.details["orbits"] == 2

    def test_alternating_5_at_p_5(self):
        r = sylow_orbit_bound_check(natural_action(alternating(5)), 5,
                                    exclusions_clear=True)
        assert r.ok
        assert r.details["orbits"] == 1
        assert r.details["refined_bound_holds"]

    def test_alternating_5_at_p_3_attains_bound(self):
        r = sylow_orbit_bound_check(natural_action(alternating(5)), 3)
        assert r.ok
        assert r.details["orbits"] == 3
        assert r.details["bound_attained"]

    def test_coset_route(self):
        act = coset_action(alternating(5), alt5_point_subgroup())
        r = sylow_orbit_bound_check(act, 3)
        assert r.ok and r.details["orbits"] == 3

    def test_rejects_even_prime(self):
        with pytest.raises(PreconditionFailed):
            sylow_orbit_bound_check(natural_action(symmetric(3)), 2)

    def test_rejects_prime_not_dividing(self):
        with pytest.raises(PreconditionFailed):
            sylow_orbit_bound_check(natural_action(symmetric(3)), 5)
