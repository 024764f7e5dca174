"""Tests for the exact set cover solver against exhaustive search."""

import random
import sys

import pytest

from sylowlab.catalog import construct, parse_group_expr
from sylowlab.covering import _cover_instance, _sigma_instance
from sylowlab.setcover import min_cover

from conftest import min_cover_exhaustive


def random_instance(rng, universe_size, n_masks):
    """Random coverable instance: every element appears in some mask."""
    masks = []
    for _ in range(n_masks):
        m = 0
        for b in range(universe_size):
            if rng.random() < 0.4:
                m |= 1 << b
        masks.append(m)
    # patch coverage gaps so the instance is feasible
    covered = 0
    for m in masks:
        covered |= m
    full = (1 << universe_size) - 1
    missing = full & ~covered
    if missing:
        masks.append(missing)
    return masks


class TestSmallInstances:
    def test_empty_universe(self):
        assert min_cover(0, []) == (0, ())
        assert min_cover(0, [0]) == (0, ())

    def test_single_set(self):
        size, picked = min_cover(3, [0b111])
        assert size == 1
        assert picked == (0,)

    def test_two_disjoint_sets(self):
        size, picked = min_cover(4, [0b0011, 0b1100])
        assert size == 2
        assert picked == (0, 1)

    def test_uncoverable_raises(self):
        with pytest.raises(ValueError):
            min_cover(3, [0b011])
        with pytest.raises(ValueError):
            min_cover(2, [])

    def test_duplicate_masks_keep_lowest_index(self):
        size, picked = min_cover(2, [0b11, 0b11, 0b11])
        assert (size, picked) == (1, (0,))

    def test_dominated_mask_never_needed(self):
        # index 0 is a strict subset of index 1
        size, picked = min_cover(3, [0b001, 0b011, 0b100])
        assert size == 2
        assert picked == (1, 2)

    def test_greedy_is_not_trusted(self):
        # greedy grabs the 4-element set and then needs two more;
        # the optimum is the two 3-element sets
        masks = [0b001111, 0b010011, 0b101100, 0b010000, 0b100000]
        size, picked = min_cover(6, masks)
        assert size == 2
        assert picked == (1, 2)

    def test_cover_is_actually_a_cover(self):
        rng = random.Random(7)
        for _ in range(20):
            masks = random_instance(rng, 10, 8)
            size, picked = min_cover(10, masks)
            union = 0
            for i in picked:
                union |= masks[i]
            assert union == (1 << 10) - 1
            assert size == len(picked) == len(set(picked))


class TestAgainstExhaustive:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances_match(self, seed):
        rng = random.Random(seed)
        universe = rng.randint(4, 12)
        n_masks = rng.randint(3, 14)
        masks = random_instance(rng, universe, n_masks)
        fast_size, fast_picked = min_cover(universe, masks)
        assert fast_size == min_cover_exhaustive(universe, masks)
        union = 0
        for i in fast_picked:
            union |= masks[i]
        assert union == (1 << universe) - 1

    def test_deterministic(self):
        rng = random.Random(99)
        masks = random_instance(rng, 9, 10)
        assert min_cover(9, masks) == min_cover(9, list(masks))


def plain_min_cover(universe_size, masks):
    """min_cover's search with no lower bound: same dominance rule, greedy
    incumbent, branching element and candidate order, pruning only when
    one more set cannot beat the incumbent.  The bound and the exclusion
    of min_cover may only skip subtrees that hold no better cover, so both
    must return the same witness."""
    full = (1 << universe_size) - 1
    keep = []
    for i, m in enumerate(masks):
        mi = m & full
        if mi and not any((mi | o & full) == o & full and (j < i or mi != o & full)
                          for j, o in enumerate(masks) if j != i):
            keep.append((i, mi))
    kept = [m for _, m in keep]
    chosen, rem = [], full
    while rem:
        gains = [(m & rem).bit_count() for m in kept]
        chosen.append(gains.index(max(gains)))
        rem &= ~kept[chosen[-1]]
    best = [len(chosen), [keep[i][0] for i in chosen]]
    by_bit = [[i for i, m in enumerate(kept) if m >> b & 1] for b in range(universe_size)]

    def search(rem, picked):
        if not rem:
            if len(picked) < best[0]:
                best[:] = [len(picked), [keep[i][0] for i in picked]]
            return
        if len(picked) + 1 >= best[0]:
            return
        bit = min((b for b in range(universe_size) if rem >> b & 1),
                  key=lambda b: (len(by_bit[b]), b))
        for i in sorted(by_bit[bit], key=lambda i: (-(kept[i] & rem).bit_count(), i)):
            search(rem & ~kept[i], picked + [i])

    search(full, [])
    return best[0], tuple(sorted(best[1]))


class TestWitnessUnchangedByBounds:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_cover_as_unbounded_search(self, seed):
        rng = random.Random(1000 + seed)
        universe = rng.randint(6, 16)
        masks = random_instance(rng, universe, rng.randint(6, 16))
        assert min_cover(universe, masks) == plain_min_cover(universe, masks)

    @pytest.mark.parametrize("seed", range(30))
    def test_no_more_nodes_than_unbounded_search(self, seed):
        # the bound prunes every node plain_min_cover prunes (no set left
        # that a better cover may add), and both meet the same incumbents
        rng = random.Random(1000 + seed)
        universe = rng.randint(6, 16)
        masks = random_instance(rng, universe, rng.randint(6, 16))
        assert search_nodes(min_cover, universe, masks) <= \
            search_nodes(plain_min_cover, universe, masks)


class TestCatalogNodeCounts:
    """Nodes min_cover visits on the sigma_p instances of catalog groups:
    at most the counts once a candidate tried at a node is left out of
    its later siblings' subtrees (without that rule A6 at p = 2 took
    2,253, PSL(2,11) at p = 5 took 19,901)."""

    @pytest.mark.parametrize("label, p, most", [
        ("A6", 2, 528),
        ("PSL(2,11)", 2, 1082),
        ("A6", 3, 200),
        ("PSL(2,7)", 3, 144),
        ("PSL(2,7)", 2, 35),
        ("S5", 2, 44),
        ("PSL(2,11)", 3, 167),
        ("SL(2,8)", 2, 90),
        ("PSL(2,11)", 5, 2991),
    ])
    def test_node_count(self, label, p, most):
        lat, universe, maximal = _sigma_instance(construct(parse_group_expr(label)), p)
        masks = _cover_instance(lat, universe, maximal)
        assert search_nodes(min_cover, len(universe), masks) <= most


def search_nodes(solve, universe_size, masks):
    """The calls of ``solve``'s inner ``search``: the nodes it visits."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == "search"

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        solve(universe_size, masks)
    finally:
        sys.settrace(previous)
    return calls
