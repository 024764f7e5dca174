"""Transitive coset actions, exact fixed point ratios and the checks on them.

A coset action holds the coset-image map of ``group.right_cosets`` (the
identity map in the natural action).  A fixed point ratio is always an
exact ``Fraction``: the number of points fixed by an element (or by a
whole subgroup) divided by the number of points.  The test suite checks
fixed-point counting against the class formula |x^G meet H| / |x^G| on
every catalog group of order at most 2000, in its natural action and on
the cosets of each class of maximal subgroups.

Two checks act on cosets: ``nu_fpr_identity_check``, the paper's link
nu_p(H)/nu_p(G) = fpr of a Sylow p-subgroup on G/H for maximal H holding
one, with both counts read off ``sylow``'s conjugation orbits, and the
Sylow orbit-count bound ``sylow_orbit_bound_check``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb

from .errors import (
    NoPElement,
    NotAMember,
    NotMaximal,
    NotTransitive,
    OutOfDomain,
    PreconditionFailed,
    SylowNotContained,
)
from .gf import check_prime, is_p_power, p_part
from .group import (
    PermGroup,
    check_subgroup,
    orbit_map,
    point_stabilizer,
    right_cosets,
)
from .perm import Permutation
from .reports import CheckReport
from .sylow import _conjugates, sylow_subgroup


def _digits(n: int, p: int) -> list[int]:
    """The base-p digits of n >= 1, least significant first."""
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


def _odd_shape(digits: list[int], p: int) -> bool:
    """Whether digit(i) cycles of length p^i make an odd permutation:
    only for p = 2, where a cycle of length 2^i is odd exactly for i >= 1,
    with an odd digit sum above the units place."""
    return p == 2 and sum(digits[1:]) % 2 == 1


class CosetAction:
    """Action of a group on the right cosets of a subgroup.

    Points are numbered 1..degree; point i corresponds to the coset
    ``H * rep`` for ``rep = point_map[i-1]``, the coset's least element,
    and to the conjugate subgroup ``rep^-1 H rep``.  Point 1 is the coset
    H itself.  ``induced`` maps x to the permutation it induces on the
    points: the map ``group.right_cosets`` returns, or the identity map
    when the points are G's own.
    """

    __slots__ = ("group", "point_stabilizer", "degree", "point_map", "_induced")

    def __init__(self, group, point_stabilizer, point_map, induced):
        self.group = group
        self.point_stabilizer = point_stabilizer
        self.degree = len(point_map)
        self.point_map = point_map
        # ``act`` without its membership test, for x known to lie in the group
        self._induced = induced

    def act(self, x: Permutation) -> Permutation:
        """The permutation of 1..degree induced by x."""
        if x not in self.group:
            raise NotAMember("element is not in the acting group")
        return self._induced(x)

    def fixed_points(self, x: Permutation) -> tuple[int, ...]:
        return self.act(x).fixed_points()

    def image(self, gens) -> PermGroup:
        """The subgroup generated by ``gens``, acting on the points."""
        return PermGroup(self.degree, [self.act(g) for g in gens])

    def is_primitive(self) -> bool:
        """Whether the group is primitive on the points, i.e. H is maximal.

        A subgroup properly above H contains <H, r> for the representative
        r of a coset other than H, and <H, r> depends only on the H-orbit
        of r's point.  A subgroup containing the point stabilizer H is the
        whole group exactly when it is transitive, so one <H, r> is tested
        per H-orbit other than {1}.
        """
        hgens = self.point_stabilizer.generators
        return all(
            self.image([*hgens, self.point_map[min(orb) - 1]]).is_transitive()
            for orb in self.image(hgens).orbits() if 1 not in orb)


def coset_action(G: PermGroup, H: PermGroup) -> CosetAction:
    """The transitive action of G on the right cosets of a proper H."""
    check_subgroup(H, G)
    if H.order() == G.order():
        raise PreconditionFailed("H must be a proper subgroup")
    point_map, induced = right_cosets(G, H)
    assert len(point_map) * H.order() == G.order(), \
        "coset sweep must reach the full index"
    return CosetAction(G, H, point_map, induced)


def natural_action(G: PermGroup) -> CosetAction:
    """The given action of a transitive G on its own points.

    Equivalent to the coset action on a point stabilizer, with act(x) = x.
    """
    if not G.is_transitive():
        raise NotTransitive("group is not transitive on its points")
    H = point_stabilizer(G, 1)
    # rep_i maps point 1 to i
    reps = orbit_map(1, G.generators, lambda pt, s: s(pt), Permutation.__mul__, G.identity())
    point_map = tuple(reps[i] for i in range(1, G.degree + 1))
    return CosetAction(G, H, point_map, lambda x: x)


def fpr_element(action: CosetAction, x: Permutation) -> Fraction:
    """Fraction of points fixed by x."""
    return Fraction(len(action.fixed_points(x)), action.degree)


def fpr_subgroup(action: CosetAction, P: PermGroup) -> Fraction:
    """Fraction of points fixed by every element of P."""
    check_subgroup(P, action.group, "P")
    fixed = set(range(1, action.degree + 1))
    for g in P.generators:
        fixed &= set(action.fixed_points(g))
        if not fixed:
            break
    return Fraction(len(fixed), action.degree)


def canonical_p_element(n: int, p: int) -> Permutation:
    """An even permutation of p-power order on n points with a canonical
    cycle shape read off the base-p digits of n.

    For odd p (and for p=2 when the digit sum above the units place is
    even) the shape has digit(i) cycles of length p^i.  For p=2 with odd
    digit sum, the single longest cycle is traded for shorter ones to
    keep the permutation even: 2+digit(f-1) cycles of length 2^(f-1) and
    digit(i) cycles of length 2^i for i <= f-2.  Cycles occupy
    consecutive points starting at 1, longest first.
    """
    check_prime(p)
    if n < p:
        raise NoPElement(f"no p-element available: n={n} < p={p}")
    digits = _digits(n, p)
    if _odd_shape(digits, p):  # one longest cycle becomes two of half its length
        digits[-1] -= 1
        digits[-2] += 2
    lengths = [p ** i for i in reversed(range(len(digits))) for _ in range(digits[i])]
    assert sum(lengths) == n, "cycle lengths must partition the points"
    images = list(range(1, n + 1))
    start = 1
    for length in lengths:
        for j in range(length - 1):
            images[start - 1 + j] = start + j + 1
        images[start + length - 2] = start
        start += length
    x = Permutation(tuple(images))
    assert x.is_even(), "canonical element must be even"
    assert x.order() == 1 or is_p_power(x.order(), p)
    return x


def subset_fpr_formula(n: int, k: int, p: int) -> Fraction:
    """Closed form for the fixed point ratio of the canonical p-element
    acting on k-element subsets of n points.

    Valid for odd p and for p=2 with even digit sum above the units
    place; the remaining p=2 case has no such closed form and is
    rejected (count fixed subsets directly instead).
    """
    check_prime(p)
    if not 1 <= k < Fraction(n, 2):
        raise OutOfDomain("need 1 <= k < n/2")
    digits = _digits(n, p)
    if _odd_shape(digits, p):
        raise OutOfDomain(
            "closed form does not cover p=2 with odd digit sum")
    num = 1
    for a, b in zip_longest(digits, _digits(k, p), fillvalue=0):
        num *= comb(a, b)
    return Fraction(num, comb(n, k))


def min_fpr_p_element(action: CosetAction, p: int) -> tuple[Permutation, Fraction]:
    """A nontrivial p-element with the smallest fixed point ratio.

    The ratio and the element order are class functions, and every
    p-element is conjugate into a Sylow p-subgroup P, so the least
    (ratio, order) is read off P's nontrivial elements.  The returned
    element is the least of G, by image table, with that ratio and
    order, found by walking G's chain (``_Chain.least``): ties break
    toward smaller element order, then lexicographically smaller image
    table.  G is never listed.
    """
    check_prime(p)
    G = action.group
    if G.order() % p:
        raise NoPElement(f"p={p} does not divide the group order")

    def ratio(x: Permutation) -> Fraction:
        return Fraction(len(action._induced(x).fixed_points()), action.degree)

    P = sylow_subgroup(G, p)
    best, o = min((ratio(x), x.order()) for x in P.elements() if not x.is_identity())
    x = G.chain().least(lambda x: x.order() == o and ratio(x) == best)
    assert x is not None, "a conjugate of a Sylow element must be met"
    return x, best


def nu_fpr_identity_check(G: PermGroup, H: PermGroup, p: int) -> CheckReport:
    """Verify nu(H,p)/nu(G,p) equals the fixed point ratio of a Sylow
    p-subgroup on the conjugates of H, for maximal H containing one.

    H is maximal exactly when G is primitive on the cosets of H, so the
    check needs no subgroup lattice: G only has to fit the element cap.
    """
    check_subgroup(H, G)
    if H.order() == G.order():
        raise NotMaximal("H is the whole group")
    action = coset_action(G, H)
    if not action.is_primitive():
        raise NotMaximal("H is not maximal: G is imprimitive on its cosets")
    if p_part(H.order(), p) != p_part(G.order(), p):
        raise SylowNotContained(
            "H does not contain a Sylow p-subgroup of G")
    P = sylow_subgroup(H, p)
    nu_H = len(_conjugates(H, P, p))
    nu_G = len(_conjugates(G, P, p))
    ratio = Fraction(nu_H, nu_G)
    fixed_ratio = fpr_subgroup(action, P)
    return CheckReport(ratio == fixed_ratio, {
        "p": p,
        "nu_H": nu_H,
        "nu_G": nu_G,
        "sylow_ratio": ratio,
        "fixed_point_ratio": fixed_ratio,
        "degree": action.degree,
    })


def sylow_orbit_bound_check(action: CosetAction, p: int,
                            exclusions_clear: bool = False) -> CheckReport:
    """Count orbits of a Sylow p-subgroup on the points, p odd.

    Asserts orbit count <= (p/(2p-1)) * degree.  With
    ``exclusions_clear`` (the p-element-generated core of the group has
    no factor group isomorphic to an alternating group A_m with
    p+1 < m < p^2-p), additionally asserts <= (2/(p+1)) * degree.
    """
    if p == 2:
        raise PreconditionFailed("orbit bound requires an odd prime")
    G = action.group
    if G.order() % p:
        raise PreconditionFailed("p must divide the group order")
    P = sylow_subgroup(G, p)
    orbits = len(action.image(P.generators).orbits())
    main_ok = orbits * (2 * p - 1) <= p * action.degree
    extra_ok = (orbits * (p + 1) <= 2 * action.degree
                if exclusions_clear else None)
    return CheckReport(main_ok and extra_ok is not False, {
        "p": p,
        "degree": action.degree,
        "sylow_order": P.order(),
        "orbits": orbits,
        "bound": Fraction(p * action.degree, 2 * p - 1),
        "bound_attained": orbits * (2 * p - 1) == p * action.degree,
        "refined_bound_checked": exclusions_clear,
        "refined_bound_holds": extra_ok,
    })
