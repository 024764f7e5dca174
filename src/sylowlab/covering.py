"""Minimal coverings of p-elements by proper subgroups.

The covering number of a group generated by its p-elements is the least
number of proper subgroups whose union contains every element of p-power
order (``sigma_p``; ``sigma_p_cover`` adds the witness).  That
precondition is read off the cover itself: a finite group is generated
by its p-elements exactly when no maximal subgroup holds them all, so
exactly when a least cover needs two subgroups or more, or none exists.
``class_cover`` covers one conjugacy class of a prime-power element
instead, and its first entry is that class's covering number.  Any
cover by proper subgroups refines to one by maximal subgroups, so the
solver only considers maximal subgroups; a test oracle re-solves small
instances over all proper subgroups to confirm.  The p-elements
themselves, the identity included, are ``graphs.pi_elements(G, {p})``.
"""

from __future__ import annotations

import math

from .errors import ClassNotCoverable, PreconditionFailed
from .gf import check_prime, is_p_power, least_prime
from .group import PermGroup, conjugacy_class
from .lattice import subgroup_lattice
from .perm import Permutation
from .reports import CheckReport
from .setcover import min_cover


def _cover_instance(lat, universe_idx: list[int], candidate_indices):
    """Bitmask cover instance over the given universe of element indices."""
    pos = {e: i for i, e in enumerate(universe_idx)}
    universe = set(pos)
    masks = []
    for ci in candidate_indices:
        m = 0
        # a set intersection walks the smaller side: a small class, or
        # a subgroup smaller than the p-elements
        for e in lat.element_sets[ci] & universe:
            m |= 1 << pos[e]
        masks.append(m)
    return masks


def _solve(lat, universe_idx: list[int], candidate_indices):
    """A least cover of the universe by the candidate subgroups, as its
    size and each chosen subgroup's generators.  Raises ValueError when
    an element of the universe lies in no candidate (``min_cover``)."""
    masks = _cover_instance(lat, universe_idx, candidate_indices)
    size, chosen = min_cover(len(universe_idx), masks)
    return size, tuple(lat.generators_of(candidate_indices[i]) for i in chosen)


def _sigma_instance(G: PermGroup, p: int):
    lat = subgroup_lattice(G)
    ctx = lat.ctx
    universe = sorted(i for i in range(ctx.n)
                      if i and is_p_power(ctx.elt_order[i], p))
    # the identity is a p-element too, but it lies in every candidate
    # subgroup, so it is left out of the cover universe
    maximal = lat.maximal_indices()
    assert all(0 in lat.element_sets[ci] for ci in maximal)
    return lat, universe, maximal


def sigma_p(G: PermGroup, p: int) -> int | float:
    """Minimum number of proper subgroups covering all p-elements.

    Returns ``math.inf`` when no cover exists, which happens exactly for
    the nontrivial cyclic groups generated by a single p-element (their
    generator lies in no proper subgroup) and for the trivial group.
    """
    return sigma_p_cover(G, p)[0]


def sigma_p_cover(G: PermGroup, p: int):
    """Like sigma_p, also returning the witness cover as a tuple of
    generator tuples (empty for the infinity case).

    The universe leaves out the identity, so a least cover of size 1 is
    one maximal subgroup that holds every p-element, and one of size 0
    means 1 is the only p-element: either way G is not generated by its
    p-elements, and the request is refused.
    """
    check_prime(p)
    lat, universe, maximal = _sigma_instance(G, p)
    if not maximal:
        # only the trivial group: min_cover would cover its empty universe with 0
        return math.inf, ()
    try:
        size, cover = _solve(lat, universe, maximal)
    except ValueError:
        # some p-element generates the whole group: G is cyclic
        return math.inf, ()
    if size < 2:
        raise PreconditionFailed("group must be generated by its p-elements")
    return size, cover


def class_cover(G: PermGroup, x: Permutation):
    """Minimum cover of x^G by maximal subgroups, with the witness."""
    o = x.order()
    if o > 1 and not is_p_power(o, least_prime(o)):
        raise PreconditionFailed("element must have prime power order")
    lat = subgroup_lattice(G)
    cls = conjugacy_class(G, x)
    universe = sorted(lat.ctx.index[y] for y in cls)
    try:
        return _solve(lat, universe, lat.maximal_indices())
    except ValueError:
        raise ClassNotCoverable(
            "a conjugate lies in no proper subgroup") from None


def sigma_lower_bound_check(G: PermGroup, p: int) -> CheckReport:
    """For G generated by its p-elements: the covering number is >= p+1."""
    value = sigma_p(G, p)
    return CheckReport(value >= p + 1, {
        "p": p,
        "sigma": value,
        "lower_bound": p + 1,
        "attained": value == p + 1,
    })
