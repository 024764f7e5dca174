"""Subgroup lattice tests.

The ground truth for small groups is brute_all_subgroups, which closes
every generating subset of size at most 4 with raw products.  Larger
groups are pinned to classical subgroup counts.
"""

import pytest

from conftest import (
    alternating,
    brute_all_subgroups,
    cyclic,
    dihedral,
    klein_four,
    symmetric,
)
from sylowlab.catalog import catalog_upto
from sylowlab.errors import CapExceeded
from sylowlab.lattice import subgroup_lattice


def maximal_overgroups(lat, i):
    s = lat.element_sets[i]
    return tuple(j for j in lat.maximal_indices() if s <= lat.element_sets[j])


def as_perm_sets(lat):
    els = lat.ctx.elements
    return {frozenset(els[i] for i in s) for s in lat.element_sets}


class TestAgainstBruteForce:
    @pytest.mark.parametrize("make", [
        lambda: cyclic(6),
        klein_four,
        lambda: symmetric(3),
        lambda: dihedral(4),
        lambda: cyclic(8),
        lambda: alternating(4),
    ])
    def test_every_subgroup_found(self, make):
        G = make()
        lat = subgroup_lattice(G)
        expected = brute_all_subgroups(G.degree, G.elements())
        assert as_perm_sets(lat) == expected


class TestCounts:
    @pytest.mark.parametrize("make,count", [
        (lambda: cyclic(6), 4),
        (klein_four, 5),
        (lambda: symmetric(3), 6),
        (lambda: dihedral(4), 10),
        (lambda: alternating(4), 10),
        (lambda: symmetric(4), 30),
        (lambda: alternating(5), 59),
        (lambda: symmetric(5), 156),
        (lambda: alternating(6), 501),
    ])
    def test_total(self, make, count):
        assert len(subgroup_lattice(make())) == count

    def test_alternating_5_classes_and_maximals(self):
        lat = subgroup_lattice(alternating(5))
        assert len(lat.classes()) == 9
        maximal_orders = sorted(lat.order_of(i) for i in lat.maximal_indices())
        assert maximal_orders == [6] * 10 + [10] * 6 + [12] * 5

    def test_alternating_6_maximals(self):
        lat = subgroup_lattice(alternating(6))
        assert len(lat.classes()) == 22
        orders = {}
        for i in lat.maximal_indices():
            orders[lat.order_of(i)] = orders.get(lat.order_of(i), 0) + 1
        assert orders == {24: 30, 36: 10, 60: 12}

    def test_symmetric_4_maximals(self):
        lat = subgroup_lattice(symmetric(4))
        orders = sorted(lat.order_of(i) for i in lat.maximal_indices())
        assert orders == [6, 6, 6, 6, 8, 8, 8, 12]


class TestStructure:
    def test_sorted_by_order_with_endpoints(self):
        lat = subgroup_lattice(symmetric(4))
        orders = [lat.order_of(i) for i in range(len(lat))]
        assert orders == sorted(orders)
        assert lat.order_of(0) == 1
        assert lat.order_of(lat.top) == 24

    def test_subgroup_objects(self):
        lat = subgroup_lattice(alternating(4))
        for i in range(len(lat)):
            H = lat.subgroup(i)
            assert H.order() == lat.order_of(i)
            fs = frozenset(lat.ctx.index[e] for e in H.elements())
            assert lat.element_sets.index(fs) == i
        assert lat.subgroup(lat.top) is lat.parent

    @pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
    def test_subgroup_has_its_element_set(self, entry):
        lat = subgroup_lattice(entry.build())
        for i in range(len(lat)):
            H = lat.subgroup(i)
            assert frozenset(lat.ctx.index[e] for e in H.elements()) == lat.element_sets[i]

    def test_contains_matches_set_inclusion(self):
        lat = subgroup_lattice(symmetric(3))
        for i in range(len(lat)):
            for j in range(len(lat)):
                assert lat.contains(i, j) == (
                    lat.element_sets[j] <= lat.element_sets[i])

    def test_normal_subgroups_of_symmetric_4(self):
        lat = subgroup_lattice(symmetric(4))
        orders = sorted(lat.order_of(i) for i in lat.normal_indices())
        assert orders == [1, 4, 12, 24]

    def test_normal_subgroups_of_alternating_5(self):
        lat = subgroup_lattice(alternating(5))
        assert [lat.order_of(i) for i in lat.normal_indices()] == [1, 60]

    def test_class_members_share_order(self):
        lat = subgroup_lattice(alternating(5))
        for members in lat.classes().values():
            orders = {lat.order_of(i) for i in members}
            assert len(orders) == 1
        # class sizes sum to the subgroup count
        assert sum(len(v) for v in lat.classes().values()) == len(lat)

    def test_maximal_overgroups(self):
        lat = subgroup_lattice(symmetric(4))
        # the trivial subgroup sits below every maximal subgroup
        assert maximal_overgroups(lat, 0) == lat.maximal_indices()
        for i in lat.maximal_indices():
            assert maximal_overgroups(lat, i) == (i,)


class TestDeterminismAndCaps:
    def test_two_builds_agree(self):
        # separate group objects, so nothing is shared through the cache
        a = subgroup_lattice(alternating(5))
        b = subgroup_lattice(alternating(5))
        assert a is not b
        assert a.element_sets == b.element_sets
        assert a.generator_sets == b.generator_sets
        assert a.class_ids == b.class_ids

    def test_cached_on_group(self):
        G = symmetric(3)
        assert subgroup_lattice(G) is subgroup_lattice(G)

    def test_cap_refusal(self):
        G = alternating(7)
        with pytest.raises(CapExceeded) as e:
            subgroup_lattice(G)
        assert e.value.required == 2520
        assert e.value.cap == 2000

    def test_explicit_cap_wins(self):
        with pytest.raises(CapExceeded):
            subgroup_lattice(symmetric(4), cap=10)
