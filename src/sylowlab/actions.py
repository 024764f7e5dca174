"""Transitive coset actions and exact fixed point ratios.

A fixed point ratio is always an exact ``Fraction``: the number of points
fixed by an element (or by a whole subgroup) divided by the number of
points.  Fixed-point counting and the conjugacy formula
|x^G meet H| / |x^G| are cross-asserted on small groups, so the two
derivations guard each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import config
from .errors import (
    CapExceeded,
    NoPElement,
    NotAMember,
    NotASubgroup,
    NotTransitive,
    OutOfDomain,
    PreconditionFailed,
)
from .group import PermGroup, conjugacy_class, is_subgroup, orbit_map, point_stabilizer
from .perm import Permutation
from .reports import CheckReport, timed
from .tables import is_p_power

# cross-check fpr against the conjugacy-class formula up to this order
_CROSS_CHECK_LIMIT = 10_000


@dataclass(frozen=True)
class PadicProfile:
    """Base-p digit expansion of a positive integer.

    ``digits`` are least significant first; the leading digit is nonzero.
    """

    p: int
    digits: tuple[int, ...]

    @classmethod
    def of(cls, n: int, p: int) -> "PadicProfile":
        if n <= 0 or p < 2:
            raise ValueError("need n >= 1 and p >= 2")
        digits = []
        m = n
        while m:
            m, r = divmod(m, p)
            digits.append(r)
        return cls(p, tuple(digits))

    @property
    def top(self) -> int:
        """Index f of the leading digit."""
        return len(self.digits) - 1

    def digit(self, i: int) -> int:
        return self.digits[i] if 0 <= i < len(self.digits) else 0

    @property
    def value(self) -> int:
        return sum(a * self.p ** i for i, a in enumerate(self.digits))


class CosetAction:
    """Action of a group on the right cosets of a subgroup.

    Points are numbered 1..degree; point i corresponds to the coset
    ``H * rep`` for ``rep = point_map[i-1]`` and to the conjugate
    subgroup ``rep^-1 H rep``.  Point 1 is the coset H itself.
    """

    __slots__ = ("group", "point_stabilizer", "degree", "action_image",
                 "point_map", "_elt_to_point")

    def __init__(self, group, point_stabilizer, degree, action_image,
                 point_map, elt_to_point):
        self.group = group
        self.point_stabilizer = point_stabilizer
        self.degree = degree
        self.action_image = action_image
        self.point_map = point_map
        self._elt_to_point = elt_to_point

    def act(self, x: Permutation) -> Permutation:
        """The permutation of 1..degree induced by x."""
        if x not in self.group:
            raise NotAMember("element is not in the acting group")
        if self._elt_to_point is None:
            return x
        lookup = self._elt_to_point
        return Permutation(tuple(lookup[(rep * x).images]
                                 for rep in self.point_map))

    def fixed_points(self, x: Permutation) -> tuple[int, ...]:
        if self._elt_to_point is None:
            if x not in self.group:
                raise NotAMember("element is not in the acting group")
            return x.fixed_points()
        return self.act(x).fixed_points()

    def orbit_count(self, gens) -> int:
        """Number of orbits of the subgroup generated by ``gens``."""
        return len(PermGroup(self.degree, [self.act(g) for g in gens]).orbits())


def coset_action(G: PermGroup, H: PermGroup, cap: int | None = None) -> CosetAction:
    """The transitive action of G on the right cosets of a proper H."""
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    if H.order() == G.order():
        raise PreconditionFailed("H must be a proper subgroup")
    limit = config.element_cap(cap)
    if G.order() > limit:
        raise CapExceeded("coset action", G.order(), limit)
    degree = G.order() // H.order()
    h_els = H.elements(cap)

    # Canonical coset representative: the minimal element (by image table)
    # of the coset.  Filling the lookup for a coset costs |H| products, so
    # the whole breadth-first sweep costs |G| products.
    elt_to_point = {}
    point_map = []

    def add_coset(g: Permutation) -> int:
        translates = [h * g for h in h_els]
        rep = min(translates)
        idx = len(point_map)
        point_map.append(rep)
        for t in translates:
            elt_to_point[t.images] = idx + 1
        return idx + 1

    add_coset(Permutation.identity(G.degree))
    frontier = [point_map[0]]
    while frontier:
        nxt = []
        for rep in frontier:
            for s in G.generators:
                t = rep * s
                if t.images not in elt_to_point:
                    add_coset(t)
                    nxt.append(point_map[-1])
        frontier = nxt
    assert len(point_map) == degree, "coset sweep must reach the full index"

    action = CosetAction(G, H, degree, None, tuple(point_map), elt_to_point)
    action.action_image = PermGroup(
        degree, tuple(action.act(s) for s in G.generators))
    return action


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
    return CosetAction(G, H, G.degree, G, point_map, None)


def fpr_element(action: CosetAction, x: Permutation) -> Fraction:
    """Fraction of points fixed by x.

    On groups of order at most 10^4 the result is recomputed as
    |x^G meet H| / |x^G| and the two values are asserted equal.
    """
    if x not in action.group:
        raise NotAMember("element is not in the acting group")
    ratio = Fraction(len(action.fixed_points(x)), action.degree)
    G = action.group
    if G.order() <= _CROSS_CHECK_LIMIT:
        cls = conjugacy_class(G, x)
        h_set = frozenset(action.point_stabilizer.elements())
        by_class = Fraction(sum(1 for y in cls if y in h_set), len(cls))
        assert by_class == ratio, "fixed-point count disagrees with class formula"
    return ratio


def fpr_subgroup(action: CosetAction, P: PermGroup) -> Fraction:
    """Fraction of points fixed by every element of P."""
    if not is_subgroup(P, action.group):
        raise NotASubgroup("P is not a subgroup of the acting group")
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
    if n < p:
        raise NoPElement(f"no p-element available: n={n} < p={p}")
    prof = PadicProfile.of(n, p)
    f = prof.top
    lengths: list[int] = []
    if p == 2 and sum(prof.digit(i) for i in range(1, f + 1)) % 2 == 1:
        lengths.extend([2 ** (f - 1)] * (2 + prof.digit(f - 1)))
        for i in range(f - 2, -1, -1):
            lengths.extend([2 ** i] * prof.digit(i))
    else:
        for i in range(f, -1, -1):
            lengths.extend([p ** i] * prof.digit(i))
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
    if not 1 <= k < Fraction(n, 2):
        raise OutOfDomain("need 1 <= k < n/2")
    prof = PadicProfile.of(n, p)
    f = prof.top
    if p == 2 and sum(prof.digit(i) for i in range(1, f + 1)) % 2 == 1:
        raise OutOfDomain(
            "closed form does not cover p=2 with odd digit sum")
    sub = PadicProfile.of(k, p)
    num = 1
    for i in range(f + 1):
        num *= comb(prof.digit(i), sub.digit(i))
    return Fraction(num, comb(n, k))


def min_fpr_p_element(action: CosetAction, p: int,
                      cap: int | None = None) -> tuple[Permutation, Fraction]:
    """A nontrivial p-element with the smallest fixed point ratio.

    One representative per conjugacy class is scanned (the ratio is a
    class function).  Ties break toward smaller element order, then
    lexicographically smaller image table.
    """
    G = action.group
    if G.order() % p:
        raise NoPElement(f"p={p} does not divide the group order")
    best: tuple[Fraction, int, tuple[int, ...]] | None = None
    best_elt = None
    for rep, _ in G.conjugacy_classes(cap):
        o = rep.order()
        if o == 1 or not is_p_power(o, p):
            continue
        ratio = Fraction(len(action.fixed_points(rep)), action.degree)
        key = (ratio, o, rep.images)
        if best is None or key < best:
            best, best_elt = key, rep
    if best_elt is None:  # pragma: no cover - p | |G| gives a p-element
        raise NoPElement("no nontrivial p-element found")
    return best_elt, best[0]


def sylow_orbit_bound_check(action: CosetAction, p: int,
                            exclusions_clear: bool = False,
                            cap: int | None = None) -> CheckReport:
    """Count orbits of a Sylow p-subgroup on the points, p odd.

    Asserts orbit count <= (p/(2p-1)) * degree.  With
    ``exclusions_clear`` (the p-element-generated core of the group has
    no factor group isomorphic to an alternating group A_m with
    p+1 < m < p^2-p), additionally asserts <= (2/(p+1)) * degree.
    """
    from .sylow import sylow_subgroup

    if p == 2:
        raise PreconditionFailed("orbit bound requires an odd prime")
    G = action.group
    if G.order() % p:
        raise PreconditionFailed("p must divide the group order")
    report = CheckReport("sylow-orbit-bound", False)
    with timed(report):
        P = sylow_subgroup(G, p, cap)
        orbits = action.orbit_count(P.generators)
        main_ok = orbits * (2 * p - 1) <= p * action.degree
        extra_ok = (orbits * (p + 1) <= 2 * action.degree
                    if exclusions_clear else None)
        report.ok = main_ok and extra_ok is not False
        report.details = {
            "p": p,
            "degree": action.degree,
            "sylow_order": P.order(),
            "orbits": orbits,
            "bound": Fraction(p * action.degree, 2 * p - 1),
            "bound_attained": orbits * (2 * p - 1) == p * action.degree,
            "refined_bound_checked": exclusions_clear,
            "refined_bound_holds": extra_ok,
        }
    return report
