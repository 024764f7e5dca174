"""Acceptance gate: headline exact values and bound sweeps on the catalog.

Every number asserted here was derived by an independent brute-force
route before being frozen (element counting on the Cayley table, subset
enumeration, exhaustive set cover, exhaustive clique search).  The
sweeps run the library checks across the whole built-in catalog.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from sylowlab import (
    CATALOG,
    BitGraph,
    canonical_p_element,
    catalog_entry,
    catalog_upto,
    construct_text,
    fpr_element,
    is_normal,
    is_subgroup,
    min_fpr_p_element,
    n_pi,
    natural_action,
    noncommuting_graph,
    nu_fpr_identity_check,
    nu_p,
    nu_quotient_identity_check,
    p_residual,
    pr_pi,
    pr_times_clique_check,
    sigma_le_clique_check,
    sigma_lower_bound_check,
    sigma_p,
    subgroup_lattice,
    subset_fpr_formula,
    sylow_orbit_bound_check,
    turan_bound_check,
)
from sylowlab.covering import _cover_instance, _sigma_instance
from sylowlab.errors import (
    CapExceeded,
    NotTransitive,
    OutOfDomain,
    PreconditionFailed,
)
from sylowlab.gf import p_part
from sylowlab.setcover import min_cover

from conftest import min_cover_exhaustive, order_of
from test_graphs import bron_kerbosch_max, complete_graph, random_graph

def prime_divisors(n):
    """The primes dividing n >= 1, by trial division."""
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % d for d in range(2, int(p ** 0.5) + 1))]


class TestSharpSylowRatio:
    """The (p-1)/(2p-1) ratio is attained by alternating group pairs."""

    def test_alternating_pairs_attain_the_ratio(self):
        start = time.monotonic()
        A4 = catalog_entry("A4").build()
        A5 = catalog_entry("A5").build()
        assert nu_p(A4, 3) == 4
        assert nu_p(A5, 3) == 10
        assert Fraction(nu_p(A4, 3), nu_p(A5, 3)) == Fraction(3 - 1, 2 * 3 - 1)

        A8 = catalog_entry("A8").build()
        A9 = catalog_entry("A9").build()
        assert nu_p(A8, 5) == 336
        assert nu_p(A9, 5) == 756
        assert Fraction(nu_p(A8, 5), nu_p(A9, 5)) == Fraction(5 - 1, 2 * 5 - 1)
        assert time.monotonic() - start < 30.0


class TestRatioEqualsFixedPointRatio:
    """nu(H)/nu(G) equals the fixed point ratio of a Sylow subgroup on
    the cosets of H, for every maximal H containing one."""

    GROUPS = ("S3", "S4", "A4", "A5", "S5", "A6", "SL(2,8)")

    def test_identity_over_all_maximals(self):
        start = time.monotonic()
        total = 0
        for label in self.GROUPS:
            G = catalog_entry(label).build()
            lat = subgroup_lattice(G)
            checked_here = 0
            for p in prime_divisors(G.order()):
                target = p_part(G.order(), p)
                for i in lat.maximal_indices():
                    if p_part(order_of(lat, i), p) != target:
                        continue
                    H = lat.subgroup(i)
                    rep = nu_fpr_identity_check(G, H, p)
                    assert rep.ok, (label, p, rep.details)
                    checked_here += 1
            assert checked_here > 0, label
            total += checked_here
        assert total >= 100
        assert time.monotonic() - start < 60.0


class TestQuotientProductIdentity:
    """nu(G) = nu(G/N) * nu(PN) for every normal subgroup of every
    catalog group of order at most 500 and every prime divisor."""

    def test_identity_across_catalog(self):
        triples = 0
        for entry in catalog_upto(500):
            G = entry.build()
            primes = prime_divisors(G.order())
            lat = subgroup_lattice(G)
            for i in range(len(lat)):
                N = lat.subgroup(i)
                if not is_normal(G, N):
                    continue
                for p in primes:
                    rep = nu_quotient_identity_check(G, N, p)
                    assert rep.ok, (entry.label, i, p, rep.details)
                    triples += 1
        assert triples >= 250


class TestMersennePair:
    """At p = 7 the Borel subgroup of SL(2,8) realizes the exceptional
    ratio 2/(p+2), beating the generic (p-1)/(2p-1) but breaking the
    refined 1/(p+1) bound that the exclusion flags guard."""

    def test_exceptional_ratio(self):
        G = catalog_entry("SL(2,8)").build()
        B = catalog_entry("Borel(2,8)").build()
        assert is_subgroup(B, G)
        assert nu_p(G, 7) == 36
        assert nu_p(B, 7) == 8
        assert Fraction(nu_p(B, 7), nu_p(G, 7)) == Fraction(2, 7 + 2)
        # below the generic bound ...
        assert Fraction(8, 36) <= Fraction(7 - 1, 2 * 7 - 1)
        # ... yet above the refined one, which is why the catalog flags
        # this group at p = 7 and the refined bound is never asserted here
        assert Fraction(8, 36) > Fraction(1, 7 + 1)
        assert not catalog_entry("SL(2,8)").exclusions_clear(7)


class TestDicksonCounts:
    """PSL(2,q) on the q+1 projective points, over fields that the
    modulus rule adds, against Dickson's subgroup list (Huppert,
    Endliche Gruppen I, II.8.27): with d = gcd(2, q-1), a Sylow
    r-subgroup is normalized by a Borel subgroup at the characteristic,
    by a dihedral group of order 2(q-1)/d or 2(q+1)/d for odd r dividing
    (q-1)/d or (q+1)/d, and at r = 2 it is self-normalizing for q = +-1
    mod 8 and has normalizer A4 for q = +-3 mod 8.  The least fixed
    point ratio is that of a unipotent element (1 point), a split torus
    element (2 points) or a non-split one (none)."""

    QS = (17, 19, 23, 25, 27, 29, 31)

    @staticmethod
    def dickson_nu(q, r):
        d = math.gcd(2, q - 1)
        order = q * (q * q - 1) // d
        if q % r == 0:
            return q + 1
        if r == 2:
            return order // p_part(order, 2) if q % 8 in (1, 7) else order // 12
        return q * (q + 1) // 2 if (q - 1) // d % r == 0 else q * (q - 1) // 2

    def test_sylow_numbers_and_least_ratios(self):
        start = time.monotonic()
        checked = 0
        for q in self.QS:
            G = construct_text(f"PSL(2,{q})")
            d = math.gcd(2, q - 1)
            assert G.order() == q * (q * q - 1) // d
            action = natural_action(G)
            for r in prime_divisors(G.order()):
                assert nu_p(G, r) == self.dickson_nu(q, r), (q, r)
                if q % r == 0:
                    want = Fraction(1, q + 1)
                elif (q - 1) // d % r == 0:
                    want = Fraction(2, q + 1)
                else:
                    want = Fraction(0)
                assert min_fpr_p_element(action, r)[1] == want, (q, r)
                checked += 1
        assert checked == 28
        assert time.monotonic() - start < 10.0


class TestCharacteristicTwoPair:
    """At p = 2 the subgroup counts 2^k +/- 1 appear in SL(2,4)."""

    def test_counts(self):
        G = catalog_entry("SL(2,4)").build()
        assert nu_p(G, 2) == 2 ** 2 + 1
        lat = subgroup_lattice(G)
        found = 0
        for i in range(len(lat)):
            if order_of(lat, i) != 6:
                continue
            H = lat.subgroup(i)
            assert any(x * y != y * x
                       for x in H.elements() for y in H.elements()), \
                "order-6 subgroup should be nonabelian here"
            assert nu_p(H, 2) == 2 ** 2 - 1
            found += 1
        assert found > 0


class TestSubsetActionFormula:
    """The closed-form fixed point ratio on k-subsets agrees with direct
    subset counting wherever the closed form applies."""

    def test_against_brute_force(self):
        start = time.monotonic()
        agreed = 0
        skipped = 0
        for n in range(3, 13):
            for k in range(1, n // 2 + 1):
                if not k < Fraction(n, 2):
                    continue
                for p in (2, 3, 5, 7):
                    if p > n:
                        continue
                    try:
                        predicted = subset_fpr_formula(n, k, p)
                    except OutOfDomain:
                        skipped += 1
                        continue
                    x = canonical_p_element(n, p)
                    fixed = sum(
                        1 for s in itertools.combinations(range(1, n + 1), k)
                        if frozenset(x(i) for i in s) == frozenset(s))
                    assert predicted == Fraction(fixed, math.comb(n, k)), (n, k, p)
                    agreed += 1
        assert agreed >= 100
        assert skipped > 0  # the rejected p=2 shapes really occur
        assert time.monotonic() - start < 120.0


class TestCoveringNumbers:
    """Minimum covers of p-elements by proper subgroups: frozen values,
    the p+1 lower bound, and solver cross-validation."""

    def test_headline_values(self):
        assert sigma_p(catalog_entry("S3").build(), 2) == 3
        assert sigma_p(catalog_entry("A4").build(), 3) == 4
        assert sigma_p(catalog_entry("C3xC3").build(), 3) == 4

    def test_lower_bound_across_catalog(self):
        checked = 0
        for entry in catalog_upto(2000):
            G = entry.build()
            for p in prime_divisors(G.order()):
                if p_residual(G, p).order() != G.order():
                    continue
                rep = sigma_lower_bound_check(G, p)
                assert rep.ok, (entry.label, p, rep.details)
                checked += 1
        assert checked >= 30

    def test_solver_matches_exhaustive_on_small_instances(self):
        compared = 0
        for entry in catalog_upto(500):
            G = entry.build()
            for p in prime_divisors(G.order()):
                try:
                    lat, universe, maximal = _sigma_instance(G, p)
                except PreconditionFailed:
                    continue
                if not 0 < len(maximal) <= 20:
                    continue
                masks = _cover_instance(lat, universe, maximal)
                covered = 0
                for m in masks:
                    covered |= m
                if covered != (1 << len(universe)) - 1:
                    continue  # no finite cover; nothing to compare
                size, _ = min_cover(len(universe), masks)
                assert size == min_cover_exhaustive(len(universe), masks), \
                    (entry.label, p)
                compared += 1
        assert compared >= 15


class TestCliqueAndProbability:
    """sigma_p <= n_p where noncommuting p-elements exist, and the
    commuting probability times the clique number is at least 1."""

    def test_suite_across_catalog(self):
        bounded = 0
        skipped = []
        for entry in catalog_upto(500):
            G = entry.build()
            for p in prime_divisors(G.order()):
                rep = pr_times_clique_check(G, frozenset({p}))
                assert rep.ok, (entry.label, p, rep.details)
                try:
                    rep2 = sigma_le_clique_check(G, p)
                except PreconditionFailed:
                    skipped.append((entry.label, p))
                    continue
                assert rep2.ok, (entry.label, p, rep2.details)
                bounded += 1
        assert bounded >= 25
        # each skip is principled: either all p-elements commute pairwise,
        # or the group is not generated by its p-elements (then one proper
        # subgroup already covers them and the comparison has no content)
        for label, p in skipped:
            G = catalog_entry(label).build()
            assert (n_pi(G, frozenset({p})) <= 1
                    or p_residual(G, p).order() < G.order()), (label, p)

    def test_hand_values(self):
        S3 = catalog_entry("S3").build()
        assert pr_pi(S3, frozenset({2})) == Fraction(5, 8)
        assert n_pi(S3, frozenset({2})) == 3
        assert Fraction(5, 8) * 3 >= 1


class TestSylowOrbitBound:
    """A Sylow p-subgroup (p odd) of a p-element-generated transitive
    group has at most (p/(2p-1)) * degree orbits; the refined
    2/(p+1) * degree bound applies when the exclusion flags are clear."""

    def test_natural_catalog_actions(self):
        checked = 0
        refined = 0
        for entry in CATALOG:
            G = entry.build()
            if G.degree > 60:
                continue
            try:
                action = natural_action(G)
            except NotTransitive:
                continue
            for p in prime_divisors(G.order()):
                if p == 2:
                    continue
                if p_residual(G, p).order() != G.order():
                    continue
                clear = entry.exclusions_clear(p)
                rep = sylow_orbit_bound_check(action, p, exclusions_clear=clear)
                assert rep.ok, (entry.label, p, rep.details)
                if clear:
                    assert rep.details["refined_bound_holds"] is True
                    refined += 1
                checked += 1
        assert checked >= 20
        assert refined >= 10


class TestAlternatingTrends:
    """Behaviour of the canonical-element fixed point ratio and of the
    covering number along the natural alternating series."""

    NS = range(5, 13)

    def _fpr_sequence(self, p):
        from conftest import alternating
        out = []
        for n in self.NS:
            action = natural_action(alternating(n))
            out.append(fpr_element(action, canonical_p_element(n, p)))
        return out

    def test_covering_number_is_non_decreasing_where_computable(self):
        from conftest import alternating
        values = {2: [], 3: []}
        capped = []
        for n in self.NS:
            G = alternating(n)
            for p in (2, 3):
                try:
                    values[p].append(sigma_p(G, p))
                except CapExceeded:
                    capped.append((n, p))
        assert values[2] == [5, 9]
        assert values[3] == [4, 7]
        for p in (2, 3):
            assert all(a <= b for a, b in zip(values[p], values[p][1:]))
        # everything from degree 7 up exceeds the lattice cap, and the
        # failure is loud rather than silent
        assert capped == [(n, p) for n in range(7, 13) for p in (2, 3)]

    def test_canonical_fpr_sequence_is_non_increasing(self):
        for p in (2, 3):
            seq = self._fpr_sequence(p)
            assert all(a >= b for a, b in zip(seq, seq[1:])), (
                f"fixed point ratios of canonical {p}-elements along the "
                f"natural alternating series, degrees 5..12: "
                f"{[str(r) for r in seq]} -- the sequence is not monotone, "
                f"it dips to zero whenever {p} divides the degree cleanly "
                f"and rebounds right after")


class TestEdgeCountBound:
    """The quadratic edge bound in terms of the clique number, checked
    with exact arithmetic on group graphs and synthetic graphs."""

    def test_on_catalog_noncommuting_graphs(self):
        for entry in catalog_upto(500):
            G = entry.build()
            for p in prime_divisors(G.order()):
                graph = noncommuting_graph(G, frozenset({p}))
                rep = turan_bound_check(graph)
                assert rep.ok, (entry.label, p, rep.details)

    def test_on_complete_graphs_with_equality(self):
        for n in range(1, 25):
            rep = turan_bound_check(complete_graph(n))
            assert rep.ok
            assert rep.details["attained"], n

    def test_on_paths(self):
        for n in range(2, 25):
            adj = [0] * n
            for v in range(n - 1):
                adj[v] |= 1 << (v + 1)
                adj[v + 1] |= 1 << v
            rep = turan_bound_check(BitGraph(n, adj))
            assert rep.ok
            assert rep.details["clique_number"] == 2

    def test_on_random_graphs_with_exhaustive_clique(self):
        rng = random.Random(20260823)
        for n in (8, 12, 16, 20, 24):
            for density in (0.2, 0.5, 0.8):
                adj = random_graph(rng, n, density)
                rep = turan_bound_check(BitGraph(n, adj))
                assert rep.ok
                assert rep.details["clique_number"] == bron_kerbosch_max(n, adj)
