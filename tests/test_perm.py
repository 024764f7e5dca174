"""Permutation arithmetic, parsing and printing."""

import random

import pytest
from hypothesis import given, strategies as st

from sylowlab.errors import DegreeMismatch, InvalidPermutation
from sylowlab.catalog import construct_text
from sylowlab.perm import Permutation, compose
from sylowlab.tables import CayleyTable

from conftest import perm, symmetric


def cycle_type(x):
    """Cycle lengths including fixed points, sorted ascending."""
    return tuple(sorted(len(c) for c in x.cycles(include_fixed=True)))


def random_perms(max_degree=8):
    return st.integers(2, max_degree).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(
            lambda im: Permutation(tuple(im))))


class TestConstruction:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.images == (1, 2, 3, 4)
        assert e.is_identity()

    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidPermutation):
            Permutation((1, 1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidPermutation):
            Permutation((0, 1))
        with pytest.raises(InvalidPermutation):
            Permutation((1, 3))

    def test_rejects_empty(self):
        with pytest.raises(InvalidPermutation):
            Permutation(())

    def test_point_outside_the_degree(self):
        with pytest.raises(ValueError):
            Permutation((2, 1))(3)

    def test_order_by_image_table(self):
        a, b = Permutation((1, 2, 3)), Permutation((2, 1, 3))
        assert a <= b and a <= a and not b <= a


class TestParsing:
    def test_single_cycle(self):
        assert perm("(1 2 3)", 3).images == (2, 3, 1)

    def test_two_cycles(self):
        assert perm("(1 2 3)(4 5)", 5).images == (2, 3, 1, 5, 4)

    def test_identity_string(self):
        assert perm("()", 3).is_identity()

    def test_whitespace_and_commas(self):
        assert perm(" ( 1, 2 , 3 ) ", 4) == perm("(1 2 3)", 4)

    def test_degree_inferred_from_largest_point(self):
        p = Permutation.from_cycles("(2 5)")
        assert p.degree == 5

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(InvalidPermutation):
            perm("(1 2)(2 3)", 3)

    def test_rejects_repeat_within_cycle(self):
        with pytest.raises(InvalidPermutation):
            perm("(1 2 1)", 3)

    def test_rejects_trailing_garbage(self):
        with pytest.raises(InvalidPermutation):
            perm("(1 2) junk", 3)

    def test_rejects_point_beyond_degree(self):
        with pytest.raises(InvalidPermutation):
            perm("(1 5)", 3)

    def test_rejects_zero_point(self):
        with pytest.raises(InvalidPermutation):
            perm("(0 1)", 3)

    @pytest.mark.parametrize("text", ["", "(1 2)x(3 4)"])
    def test_rejects_empty_or_interrupted_text(self, text):
        with pytest.raises(InvalidPermutation):
            Permutation.from_cycles(text)

    def test_round_trip(self):
        for text in ["()", "(1 2)", "(1 2 3)(4 5)", "(1 3)(2 6 4)"]:
            p = perm(text, 6)
            assert perm(p.cycle_string(), 6) == p

    @given(random_perms())
    def test_round_trip_property(self, p):
        assert Permutation.from_cycles(p.cycle_string(), p.degree) == p


class TestComposition:
    def test_left_first_convention(self):
        # apply (1 2) first, then (2 3): 1 -> 2 -> 3
        a, b = perm("(1 2)", 3), perm("(2 3)", 3)
        assert (a * b).images == (3, 1, 2)
        assert (a * b) == perm("(1 3 2)", 3)

    def test_involution_squares_to_identity(self):
        t = perm("(1 2)", 2)
        assert (t * t).is_identity()

    def test_three_cycle_squared(self):
        c = perm("(1 2 3)", 3)
        assert c * c == perm("(1 3 2)", 3)

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            perm("(1 2)", 2) * perm("(1 2)", 3)

    def test_inverse(self):
        p = perm("(1 2 3)(4 5)", 5)
        assert (p * p.inverse()).is_identity()
        assert p.inverse() == perm("(1 3 2)(4 5)", 5)

    def test_powers(self):
        c = perm("(1 2 3 4)", 4)
        assert c ** 0 == Permutation.identity(4)
        assert c ** 2 == perm("(1 3)(2 4)", 4)
        assert c ** -1 == c.inverse()
        assert c ** 5 == c

    def test_conjugate(self):
        # (1 2 3) conjugated by (1 2) swaps the roles of 1 and 2
        x, g = perm("(1 2 3)", 3), perm("(1 2)", 3)
        assert x.conjugate(g) == perm("(1 3 2)", 3)

    @given(random_perms(), random_perms(), random_perms())
    def test_associativity(self, a, b, c):
        n = max(a.degree, b.degree, c.degree)
        a, b, c = (Permutation(tuple(p.images + tuple(range(p.degree + 1, n + 1))))
                   for p in (a, b, c))
        assert (a * b) * c == a * (b * c)

    @given(random_perms())
    def test_inverse_property(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(random_perms(), random_perms())
    def test_conjugation_preserves_cycle_type(self, x, g):
        n = max(x.degree, g.degree)
        x, g = (Permutation(tuple(p.images + tuple(range(p.degree + 1, n + 1))))
                for p in (x, g))
        assert cycle_type(x.conjugate(g)) == cycle_type(x)



class TestCompositionKernel:
    """``perm.compose`` is the one composition routine: products,
    Cayley-table left maps and conjugation orbits all go through it.
    Each product is checked point by point through ``__call__``, which
    reads the image table without composing."""

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_product_applies_left_factor_first(self, degree):
        rng = random.Random(degree)
        points = range(1, degree + 1)
        perms = [Permutation.identity(degree)] + [
            Permutation(rng.sample(points, degree)) for _ in range(6)]
        for a in perms:
            for b in perms:
                c = a * b
                assert [c(i) for i in points] == [b(a(i)) for i in points]
                assert type(c.images) is tuple
                assert compose(a.images, b.images) == c.images

    @pytest.mark.parametrize("group", [
        symmetric(1), symmetric(2), construct_text("S4"), construct_text("SL(2,3)"),
        construct_text("A5"), construct_text("D10")], ids=lambda G: f"order{G.order()}")
    def test_cayley_table_matches_pointwise_products(self, group):
        ctx = CayleyTable(group)
        index = {e.images: i for i, e in enumerate(ctx.elements)}
        points = range(1, group.degree + 1)
        for a, row in zip(ctx.elements, ctx.table):
            assert row == [index[tuple(b(a(i)) for i in points)] for b in ctx.elements]

class TestStructure:
    def test_cycles(self):
        p = perm("(1 2 3)(4 5)", 6)
        assert p.cycles() == ((1, 2, 3), (4, 5))
        assert p.cycles(include_fixed=True) == ((1, 2, 3), (4, 5), (6,))

    def test_cycle_type(self):
        assert cycle_type(perm("(1 2 3)(4 5)", 6)) == (1, 2, 3)
        assert cycle_type(Permutation.identity(3)) == (1, 1, 1)

    def test_order(self):
        assert perm("(1 2 3)(4 5)", 5).order() == 6
        assert perm("(1 2 3 4)", 4).order() == 4
        assert Permutation.identity(5).order() == 1

    def test_parity(self):
        assert perm("(1 2 3)", 3).is_even()
        assert not perm("(1 2)", 2).is_even()
        assert not perm("(1 2 3 4)", 4).is_even()
        assert perm("(1 2)(3 4)", 4).is_even()

    @given(random_perms(), random_perms())
    def test_parity_homomorphism(self, a, b):
        n = max(a.degree, b.degree)
        a, b = (Permutation(tuple(p.images + tuple(range(p.degree + 1, n + 1))))
                for p in (a, b))
        assert (a * b).is_even() == (a.is_even() == b.is_even())

    @given(random_perms())
    def test_order_annihilates(self, p):
        assert (p ** p.order()).is_identity()

    def test_fixed_and_moved(self):
        p = perm("(1 3)", 4)
        assert p.fixed_points() == (2, 4)

    def test_ordering_is_lexicographic(self):
        ps = [perm(s, 3) for s in ["(1 2 3)", "()", "(2 3)", "(1 2)"]]
        assert [p.images for p in sorted(ps)] == sorted(p.images for p in ps)

    def test_hash_consistent(self):
        assert len({perm("(1 2)", 3), perm("(1 2)", 3), perm("(1 3)", 3)}) == 2

    def test_cycle_string(self):
        assert perm("(1 2 3)(4 5)", 6).cycle_string() == "(1 2 3)(4 5)"
        assert Permutation.identity(4).cycle_string() == "()"
        # cycles rotated to put smallest point first, sorted by smallest point
        assert Permutation.from_cycles("(5 4)(3 1 2)", 5).cycle_string() == "(1 2 3)(4 5)"
