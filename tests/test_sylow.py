"""Sylow subgroup and Sylow count tests.

nu_p is the length of one Sylow subgroup's conjugation orbit; the
oracles are the normalizer index |G : N_G(P)| from ``group.normalizer``'s
brute scan and the subgroups of full p-power order in the subgroup
lattice, so the derivations are independent.  The Sylow subgroup the
normalizer tower picks is checked against ``sylow_by_scan``, the same
rule applied to the sorted element list.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sylowlab

from conftest import (
    alternating,
    cyclic,
    dihedral,
    klein_four,
    nu_by_normalizer_index,
    order_of,
    perm,
    prime_factors,
    sylow_by_scan,
    symmetric,
)
from sylowlab.actions import (
    canonical_p_element,
    min_fpr_p_element,
    natural_action,
    subset_fpr_formula,
)
from sylowlab.catalog import catalog_entry, catalog_upto, construct_text
from sylowlab.covering import p_elements, sigma_p_cover
from sylowlab.errors import (
    CapExceeded,
    NotASubgroup,
    NotMaximal,
    NotNormal,
    NotPSolvable,
    OutOfDomain,
    PreconditionFailed,
    SylowNotContained,
)
from sylowlab.group import PermGroup, is_subgroup, normalizer, p_residual
from sylowlab.lattice import subgroup_lattice
from sylowlab.perm import Permutation
from sylowlab.sylow import (
    nu_monotonicity_check,
    nu_fpr_identity_check,
    nu_p,
    nu_quotient_identity_check,
    p_solvable_divisibility_check,
    sylow_ratio_bound_check,
    sylow_ratio_gap_scan,
    sylow_subgroup,
    sylow_subgroup_containing,
    sylow_subgroups,
)
from sylowlab.tables import CayleyTable, p_part


def alt5_point_subgroup():
    """Copy of the alternating group on {1..4} sitting inside degree 5."""
    return PermGroup(5, [perm("(1 2 3)", 5), perm("(1 2)(3 4)", 5)])


class TestSylowSubgroup:
    @pytest.mark.parametrize("make,p,order", [
        (lambda: symmetric(4), 2, 8),
        (lambda: symmetric(4), 3, 3),
        (lambda: alternating(5), 5, 5),
        (lambda: alternating(5), 2, 4),
        (lambda: alternating(6), 3, 9),
        (lambda: symmetric(6), 2, 16),
        (lambda: dihedral(6), 2, 4),
        (lambda: cyclic(12), 2, 4),
    ])
    def test_order_is_p_part(self, make, p, order):
        G = make()
        P = sylow_subgroup(G, p)
        assert P.order() == order == p_part(G.order(), p)
        assert is_subgroup(P, G)

    def test_prime_not_dividing_gives_trivial(self):
        assert sylow_subgroup(symmetric(3), 5).order() == 1

    def test_sylow_2_of_symmetric_4_is_dihedral(self):
        P = sylow_subgroup(symmetric(4), 2)
        orders = sorted(x.order() for x in P.elements())
        # dihedral of order 8: five involutions, two elements of order 4
        assert orders == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_deterministic(self):
        a = sylow_subgroup(alternating(5), 2)
        b = sylow_subgroup(alternating(5), 2)
        assert frozenset(a.elements()) == frozenset(b.elements())

    def test_containing_a_given_subgroup(self):
        G = symmetric(4)
        Q = PermGroup(4, [perm("(1 2)(3 4)", 4)])
        P = sylow_subgroup_containing(G, Q, 2)
        assert P.order() == 8
        assert is_subgroup(Q, P)

    def test_enumeration_matches_count(self):
        G = alternating(5)
        syl = sylow_subgroups(G, 2)
        assert len(syl) == nu_p(G, 2) == 5
        assert all(len(s) == 4 for s in syl)

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            sylow_subgroups(alternating(6), 2, cap=30)

    def test_enumeration_cap_with_cached_elements(self):
        # the element list is already there, so only the orbit's own
        # limit (45 subgroups of order 8 > 30 elements) can refuse
        G = alternating(6)
        G.elements()
        with pytest.raises(CapExceeded) as info:
            sylow_subgroups(G, 2, cap=30)
        assert info.value.what == "Sylow subgroup enumeration"
        # nu_p's orbit has no such limit: it counts all 45
        assert nu_p(G, 2, cap=30) == 45

    @pytest.mark.parametrize("label", [e.label for e in catalog_upto(2000)] + ["A7", "A8"])
    def test_tower_matches_scan(self, label):
        """The normalizer tower picks the generators that ``sylow_by_scan``
        picks from the sorted element list, from P = 1 and from Q = <x>
        for the largest p-element x of G."""
        G = construct_text(label) if label in ("A7", "A8") else catalog_entry(label).build()
        for p in prime_factors(G.order()):
            assert sylow_subgroup(G, p).generators == PermGroup(
                G.degree, sylow_by_scan(G, p)).generators, (label, p)
            x = next(y for y in reversed(G.elements()) if p_part(y.order(), p) == y.order())
            Q = PermGroup(G.degree, [x])
            assert sylow_subgroup_containing(G, Q, p).generators == PermGroup(
                G.degree, sylow_by_scan(G, p, [x])).generators, (label, p)

    def test_tower_keeps_the_element_cap(self):
        # the tower lists no element of G, but refuses where listing G would
        with pytest.raises(CapExceeded) as info:
            sylow_subgroup(construct_text("A10"), 5)
        assert (info.value.what, info.value.required, info.value.cap) == (
            "element enumeration", 1814400, 10**6)


class TestNu:
    @pytest.mark.parametrize("make,p,count", [
        (lambda: alternating(4), 3, 4),
        (lambda: alternating(5), 3, 10),
        (lambda: alternating(5), 5, 6),
        (lambda: alternating(5), 2, 5),
        (lambda: alternating(6), 3, 10),
        (lambda: symmetric(4), 2, 3),
        (lambda: symmetric(4), 3, 4),
        (lambda: symmetric(5), 5, 6),
        (lambda: dihedral(7), 2, 7),
        (lambda: alternating(8), 5, 336),
    ])
    def test_frozen_counts(self, make, p, count):
        assert nu_p(make(), p) == count

    def test_p_group_has_one(self):
        assert nu_p(dihedral(4), 2) == 1
        assert nu_p(cyclic(9), 3) == 1

    def test_trivial_when_p_absent(self):
        assert nu_p(symmetric(3), 7) == 1

    @pytest.mark.parametrize("make", [
        lambda: symmetric(4),
        lambda: alternating(5),
        lambda: alternating(6),
        lambda: dihedral(6),
        lambda: symmetric(5),
    ])
    def test_lattice_recount_oracle(self, make):
        """nu_p must equal the number of maximal-p-power-order subgroups."""
        G = make()
        lat = subgroup_lattice(G)
        for p in (2, 3, 5):
            if G.order() % p:
                continue
            target = p_part(G.order(), p)
            by_lattice = sum(1 for i in range(len(lat))
                             if order_of(lat, i) == target)
            assert nu_p(G, p) == by_lattice

    @pytest.mark.parametrize("label", [e.label for e in catalog_upto(2000)] + ["A7", "A8"])
    def test_orbit_matches_normalizer_index(self, label):
        G = construct_text(label) if label in ("A7", "A8") else catalog_entry(label).build()
        for p in prime_factors(G.order()):
            P = sylow_subgroup(G, p)
            assert nu_p(G, p) == G.order() // normalizer(G, P).order(), (label, p)

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_index_orbit_and_lattice_agree(self, entry):
        """nu_p and sylow_subgroups (both the conjugation orbit of one
        Sylow subgroup) must give the lattice's subgroups of order |G|_p."""
        G = entry.build()
        lat = subgroup_lattice(G)
        ctx = lat.ctx
        for p in prime_factors(G.order()):
            target = p_part(G.order(), p)
            by_lattice = {frozenset(ctx.elements[e] for e in s)
                          for s in lat.element_sets if len(s) == target}
            orbit = sylow_subgroups(G, p)
            assert nu_p(G, p) == len(orbit) == len(by_lattice)
            assert set(orbit) == by_lattice

    @pytest.mark.parametrize("p, union_size", [(2, 4096), (3, 1233)])
    def test_numbering_holds_the_union_of_the_sylow_subgroups(self, p, union_size):
        """The tower's steps and the final orbit share G's one numbering,
        so it holds exactly the p-elements of G: 1 + 210 + 105 + 2520 +
        1260 at p = 2, and 1 + 112 + 1120 at p = 3."""
        G = construct_text("A8")
        nu_p(G, p)
        union = frozenset().union(*sylow_subgroups(construct_text("A8"), p))
        assert len(union) == union_size
        tables = G._numbering.tables
        assert len(tables) == len(set(tables)) == len(union)
        assert {Permutation(t) for t in tables} == union

    def test_congruent_one_mod_p(self):
        for make in (lambda: symmetric(4), lambda: alternating(5),
                     lambda: alternating(6), lambda: dihedral(9)):
            G = make()
            for p in (2, 3, 5):
                if G.order() % p == 0:
                    assert nu_p(G, p) % p == 1


class TestLatticeSylowCounts:
    """``SubgroupLattice.sylow_counts``, one conjugation orbit on the
    Cayley table per class of subgroups, against the normalizer index of
    every subgroup."""

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_every_subgroup_matches_normalizer_index(self, entry):
        G = entry.build()
        lat = subgroup_lattice(G)
        for p in prime_factors(G.order()):
            counts = lat.sylow_counts(p)
            assert len(counts) == len(lat)
            for i, sub in enumerate(lat.element_sets):
                assert counts[i] == nu_by_normalizer_index(lat.ctx, sub, p), (i, p)

    @pytest.mark.parametrize("entry", catalog_upto(500), ids=lambda e: e.label)
    def test_one_count_per_class(self, entry, monkeypatch):
        G = entry.build()
        lat = subgroup_lattice(G)
        position = {sub: i for i, sub in enumerate(lat.element_sets)}
        counted = []
        count = CayleyTable.sylow_count_in

        def counting(self, sub, gens, p):
            counted.append(lat.class_ids[position[sub]])
            return count(self, sub, gens, p)

        monkeypatch.setattr(CayleyTable, "sylow_count_in", counting)
        for p in prime_factors(G.order()):
            counted.clear()
            lat.sylow_counts(p)
            assert sorted(counted) == sorted(set(lat.class_ids))


class TestPrimeValidation:
    """Library entry points refuse a p that is not a prime before any
    early return.  Before, nu_p(A5, 4) answered 5, nu_p(A5, 6) failed an
    internal assertion and p_residual(A5, 4) returned a group; the gap
    scan at p = 9 reported no violations, p_elements(A5, 4) returned the
    identity alone and subset_fpr_formula(7, 2, 4) answered 1/7."""

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9])
    @pytest.mark.parametrize("call", [
        lambda p: nu_p(alternating(5), p),
        lambda p: sylow_subgroup(alternating(5), p),
        lambda p: sylow_subgroup_containing(alternating(5), PermGroup(5), p),
        lambda p: sylow_subgroups(alternating(5), p),
        lambda p: p_residual(alternating(5), p),
        lambda p: sigma_p_cover(alternating(5), p),
        lambda p: min_fpr_p_element(natural_action(alternating(5)), p),
        lambda p: sylow_ratio_gap_scan([("A5", alternating(5))], p, Fraction(1, 2)),
        lambda p: p_elements(alternating(5), p),
        lambda p: canonical_p_element(10, p),
        lambda p: subset_fpr_formula(7, 2, p),
    ], ids=["nu_p", "sylow_subgroup", "sylow_subgroup_containing",
            "sylow_subgroups", "p_residual", "sigma_p_cover", "min_fpr_p_element",
            "sylow_ratio_gap_scan", "p_elements", "canonical_p_element",
            "subset_fpr_formula"])
    def test_non_prime_is_out_of_domain(self, call, p):
        with pytest.raises(OutOfDomain, match=f"expected a prime, got {p}"):
            call(p)

    def test_is_p_solvable_in_child_process(self):
        # is_p_solvable(S4, 1) used to loop forever, hence the timeout
        code = (
            "from sylowlab.catalog import construct_text\n"
            "from sylowlab.errors import OutOfDomain\n"
            "from sylowlab.group import is_p_solvable\n"
            "for p in (0, 1, 4, 6):\n"
            "    try:\n"
            "        print(p, is_p_solvable(construct_text('S4'), p))\n"
            "    except OutOfDomain as err:\n"
            "        print(p, err)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sylowlab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{p} expected a prime, got {p}" for p in (0, 1, 4, 6)]


class TestMonotonicity:
    def test_strict_case(self):
        G = symmetric(3)
        H = PermGroup(3, [perm("(1 2)", 3)])
        r = nu_monotonicity_check(G, H, 2)
        assert r.ok
        assert r.details["nu_H"] == 1 and r.details["nu_G"] == 3
        assert not r.details["equal"]

    def test_equality_case_alternating_6_over_5(self):
        H = PermGroup(6, [perm("(1 2 3 4 5)", 6), perm("(1 2 3)", 6)])
        r = nu_monotonicity_check(alternating(6), H, 3)
        assert r.ok
        assert r.details["nu_H"] == r.details["nu_G"] == 10
        assert r.details["unique_containment"]
        assert r.details["product_covers_G"]

    def test_equality_case_dihedral_in_alternating_5(self):
        # normalizer of a 5-cycle: same number of Sylow 2-subgroups
        G = alternating(5)
        H = PermGroup(5, [perm("(1 2 3 4 5)", 5), perm("(2 5)(3 4)", 5)])
        assert H.order() == 10
        r = nu_monotonicity_check(G, H, 2)
        assert r.ok
        assert r.details["equal"]

    def test_whole_group(self):
        r = nu_monotonicity_check(symmetric(4), symmetric(4), 2)
        assert r.ok and r.details["equal"]

    def test_rejects_non_subgroup(self):
        with pytest.raises(NotASubgroup):
            nu_monotonicity_check(alternating(5), symmetric(5), 5)

    @pytest.mark.parametrize("entry", catalog_upto(168), ids=lambda e: e.label)
    def test_details_match_independent_routes(self, entry):
        """For one subgroup H per lattice class: both counts against the
        table's normalizer index, the Sylow subgroups of G containing Q
        against the lattice, and G = H N_G(P) against |H||N|/|H n N| with
        the brute normalizer.  Neither of the last two depends on which
        Sylow subgroups Q of H and P of G are taken."""
        G = entry.build()
        lat = subgroup_lattice(G)
        ctx = lat.ctx
        for p in prime_factors(G.order()):
            target = p_part(G.order(), p)
            sylows = [s for s in lat.element_sets if len(s) == target]
            N = frozenset(map(ctx.index.__getitem__,
                              normalizer(G, sylow_subgroup(G, p)).elements()))
            for members in lat.classes().values():
                h = lat.element_sets[members[0]]
                Q = next(s for s in lat.element_sets
                         if len(s) == p_part(len(h), p) and s <= h)
                d = nu_monotonicity_check(G, lat.subgroup(members[0]), p).details
                assert d["nu_H"] == nu_by_normalizer_index(ctx, h, p)
                assert d["nu_G"] == nu_by_normalizer_index(ctx, lat.element_sets[lat.top], p)
                assert d["sylows_of_G_containing_Q"] == sum(1 for s in sylows if Q <= s)
                assert d["product_covers_G"] == (
                    len(h) * len(N) // len(h & N) == G.order())


class TestQuotientIdentity:
    def test_symmetric_4_mod_klein(self):
        G = symmetric(4)
        N = PermGroup(4, [perm("(1 2)(3 4)", 4), perm("(1 3)(2 4)", 4)])
        r3 = nu_quotient_identity_check(G, N, 3)
        assert r3.ok
        assert (r3.details["nu_G"], r3.details["nu_quotient"],
                r3.details["nu_PN"]) == (4, 1, 4)
        r2 = nu_quotient_identity_check(G, N, 2)
        assert r2.ok
        assert (r2.details["nu_G"], r2.details["nu_quotient"],
                r2.details["nu_PN"]) == (3, 3, 1)

    def test_trivial_normal_subgroup(self):
        G = alternating(5)
        N = PermGroup(5, [])
        r = nu_quotient_identity_check(G, N, 5)
        assert r.ok and r.details["nu_G"] == 6

    def test_alternating_in_symmetric(self):
        r = nu_quotient_identity_check(symmetric(4), alternating(4, ), 3)
        assert r.ok

    def test_rejects_non_normal(self):
        with pytest.raises(NotNormal):
            nu_quotient_identity_check(symmetric(3),
                                       PermGroup(3, [perm("(1 2)", 3)]), 2)


class TestFprIdentity:
    def test_alternating_5_over_4(self):
        r = nu_fpr_identity_check(alternating(5), alt5_point_subgroup(), 3)
        assert r.ok
        assert r.details["sylow_ratio"] == Fraction(2, 5)
        assert r.details["fixed_point_ratio"] == Fraction(2, 5)

    def test_symmetric_4_over_dihedral(self):
        H = PermGroup(4, [perm("(1 2 3 4)", 4), perm("(1 3)", 4)])
        r = nu_fpr_identity_check(symmetric(4), H, 2)
        assert r.ok
        assert r.details["sylow_ratio"] == Fraction(1, 3)

    def test_symmetric_3_over_order_2(self):
        H = PermGroup(3, [perm("(1 2)", 3)])
        r = nu_fpr_identity_check(symmetric(3), H, 2)
        assert r.ok
        assert r.details["sylow_ratio"] == Fraction(1, 3)

    def test_rejects_non_maximal(self):
        H = PermGroup(4, [perm("(1 2)(3 4)", 4)])
        with pytest.raises(NotMaximal):
            nu_fpr_identity_check(symmetric(4), H, 2)

    def test_rejects_sylow_not_contained(self):
        with pytest.raises(SylowNotContained):
            nu_fpr_identity_check(alternating(5), alt5_point_subgroup(), 5)

    @pytest.mark.parametrize("n, p", [(7, 2), (7, 3), (7, 5), (8, 3), (8, 5), (8, 7)])
    def test_point_stabilizer_of_alternating(self, n, p):
        # A_{n-1} fixes the point n, so the cosets are the n points and the
        # ratio is the share of points that all of P's generators fix
        G = alternating(n)
        H = PermGroup(n, [Permutation(g.images + (n,))
                          for g in alternating(n - 1).generators])
        r = nu_fpr_identity_check(G, H, p)
        assert r.ok
        fixed = set(range(1, n + 1))
        for g in sylow_subgroup(H, p).generators:
            fixed &= set(g.fixed_points())
        assert r.details["sylow_ratio"] == Fraction(len(fixed), n)
        assert r.details["degree"] == n

    def test_rejects_whole_group(self):
        with pytest.raises(NotMaximal):
            nu_fpr_identity_check(alternating(5), alternating(5), 3)

    def test_rejects_non_maximal_above_the_lattice_cap(self):
        # <(1 2 3 4 5), (1 2 3)> is A5 inside A6 < A7, and holds a Sylow 5
        H = PermGroup(7, [perm("(1 2 3 4 5)", 7), perm("(1 2 3)", 7)])
        with pytest.raises(NotMaximal):
            nu_fpr_identity_check(alternating(7), H, 5)


class TestSympyRoute:
    """nu_p against the conjugation orbit of sympy's own Sylow subgroup
    (the Sylow route of the benchmark's confirm script)."""

    # sympy's Sylow search alone takes seconds on Borel(2,8) and Borel(2,9)
    @pytest.mark.parametrize("label", [
        e.label for e in catalog_upto(2000)
        if e.label not in ("Borel(2,8)", "Borel(2,9)")] + ["A7", "A8"])
    def test_nu_is_orbit_of_sympy_sylow(self, label):
        pytest.importorskip("sympy")
        from sympy.combinatorics import Permutation as SymPerm
        from sympy.combinatorics.perm_groups import PermutationGroup

        G = construct_text(label) if label in ("A7", "A8") else catalog_entry(label).build()
        S = PermutationGroup([SymPerm([i - 1 for i in g.images]) for g in G.generators])
        gens = [tuple(g.array_form) for g in S.generators]

        def conjugate(x, g):
            # the permutation g^-1 x g, on 0-based image tuples
            out = [0] * len(x)
            for i, xi in enumerate(x):
                out[g[i]] = g[xi]
            return tuple(out)

        for p in prime_factors(G.order()):
            start = frozenset(tuple(x.array_form) for x in S.sylow_subgroup(p).generate())
            seen = {start}
            queue = [start]
            for P in queue:
                for g in gens:
                    Q = frozenset(conjugate(x, g) for x in P)
                    if Q not in seen:
                        seen.add(Q)
                        queue.append(Q)
            assert nu_p(G, p) == len(seen), (label, p)


class TestRatioBound:
    def test_sharp_at_alternating_5_over_4(self):
        r = sylow_ratio_bound_check(alternating(5), alt5_point_subgroup(), 3)
        assert r.ok
        assert r.details["ratio"] == Fraction(2, 5) == r.details["bound"]
        assert r.details["bound_attained"]

    def test_sharp_at_symmetric_3_for_p_2(self):
        H = PermGroup(3, [perm("(1 2)", 3)])
        r = sylow_ratio_bound_check(symmetric(3), H, 2)
        assert r.ok and r.details["bound_attained"]

    def test_refined_bound_when_exclusions_clear(self):
        # the alternating group on 6 points has no obstructing factor at p=5
        G = alternating(6)
        H = PermGroup(6, [perm("(1 2 3 4 5)", 6), perm("(2 5)(3 4)", 6)])
        r = sylow_ratio_bound_check(G, H, 5, exclusions_clear=True)
        assert r.ok
        assert r.details["strict_bound_holds"]

    def test_rejects_group_not_generated_by_p_elements(self):
        H = PermGroup(3, [perm("(1 2 3)", 3)])
        with pytest.raises(PreconditionFailed):
            sylow_ratio_bound_check(symmetric(3), H, 3)

    def test_rejects_whole_group(self):
        with pytest.raises(PreconditionFailed):
            sylow_ratio_bound_check(alternating(5), alternating(5, ), 3)

    def test_rejects_sylow_not_contained(self):
        with pytest.raises(SylowNotContained):
            sylow_ratio_bound_check(alternating(5), alt5_point_subgroup(), 5)


class TestPSolvableDivisibility:
    def test_symmetric_4_both_primes(self):
        r2 = p_solvable_divisibility_check(symmetric(4), 2)
        assert r2.ok and r2.details["nu_values"] == [1, 3]
        r3 = p_solvable_divisibility_check(symmetric(4), 3)
        assert r3.ok and r3.details["nu_values"] == [1, 4]

    def test_p_group(self):
        r = p_solvable_divisibility_check(dihedral(4), 2)
        assert r.ok and r.details["nu_values"] == [1]

    def test_rejects_non_p_solvable(self):
        with pytest.raises(NotPSolvable):
            p_solvable_divisibility_check(alternating(5), 5)


class TestRatioGapScan:
    def test_odd_prime_scan_is_clean(self):
        groups = [("sym4", symmetric(4)), ("alt5", alternating(5)),
                  ("dih9", dihedral(9))]
        r = sylow_ratio_gap_scan(groups, 3, Fraction(1, 2))
        assert r.ok and r.details["violations"] == []

    def test_p_2_family_member_is_flagged(self):
        # the alternating group on 5 points has a dihedral subgroup of
        # order 6 with 3 of the 5 Sylow 2-subgroups
        r = sylow_ratio_gap_scan([("alt5", alternating(5))], 2,
                                 Fraction(1, 2))
        assert not r.ok
        top = r.details["violations"][0]
        assert (top["nu_H"], top["nu_G"]) == (3, 5)
        assert Fraction(top["ratio_num"], top["ratio_den"]) == Fraction(3, 5)

    def test_bound_one_never_flags(self):
        r = sylow_ratio_gap_scan([("sym4", symmetric(4))], 2, Fraction(1))
        assert r.ok

    def test_capped_group_is_skipped_with_notice(self):
        r = sylow_ratio_gap_scan(
            [("alt7", alternating(7)), ("klein", klein_four())],
            2, Fraction(1, 2))
        assert r.ok
        assert any("alt7" in n for n in r.notices)
        assert r.details["groups_scanned"] == 1

    def test_violations_sorted_by_descending_ratio(self):
        r = sylow_ratio_gap_scan(
            [("alt5", alternating(5)), ("alt6", alternating(6))],
            2, Fraction(1, 5))
        ratios = [Fraction(v["ratio_num"], v["ratio_den"])
                  for v in r.details["violations"]]
        assert ratios == sorted(ratios, reverse=True)
        assert len(ratios) >= 2
