"""Sylow subgroups, Sylow counts, and the identities relating them.

A Sylow subgroup is grown as a normalizer tower without listing G: from
P = 1 (or a given p-subgroup), ``grow_sylow`` adjoins the least
p-element of N_G(P) outside P, where N_G(P) is the stabilizer of P in
its conjugation orbit, sifted into a chain on the base 1..degree from
Schreier generators and walked in image-table order (``_Chain.least``).

G acts on Syl_p(G) by conjugation, transitively, so nu(G, p) is the
length of one Sylow subgroup's conjugation orbit.  ``nu_p``,
``sylow_subgroups`` and the four Sylow-number checks read every count
off such orbits; the lattice-based checks count on the Cayley table
(``CayleyTable.sylow_count_in``).  The test suite checks the counts
against the normalizer index and against the subgroups of full p-power
order in the subgroup lattice, and the tower against the same rule
applied to the sorted element list.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from . import config
from .errors import (
    CapExceeded,
    NotASubgroup,
    NotMaximal,
    NotNormal,
    NotPSolvable,
    PreconditionFailed,
    SylowNotContained,
)
from .group import (
    PermGroup,
    _Chain,
    is_normal,
    is_p_solvable,
    is_subgroup,
    orbit_map,
    p_residual,
    quotient_group,
)
from .perm import Permutation
from .reports import CheckReport
from .tables import check_prime, grow_sylow, p_part


def sylow_subgroup(G: PermGroup, p: int, cap: int | None = None) -> PermGroup:
    """A Sylow p-subgroup of G, deterministically chosen by ``grow_sylow``:
    from P = 1, the least p-element of N_G(P) outside P is adjoined until
    P is Sylow."""
    return sylow_subgroup_containing(G, PermGroup(G.degree), p, cap)


def sylow_subgroup_containing(G: PermGroup, Q: PermGroup, p: int,
                              cap: int | None = None) -> PermGroup:
    """A Sylow p-subgroup of G containing the p-subgroup Q.

    No step lists G, but G must still fit the element cap that
    ``G.elements`` would apply.
    """
    check_prime(p)
    target = p_part(G.order(), p)
    if Q.order() == target:
        return Q
    G.check_element_cap(cap)

    def least_normalizing(P, gens, pred):
        # N_G(P) is the stabilizer of P in its conjugation orbit: Schreier
        # generators are sifted into a chain on the base 1..degree until it
        # has order |G| / (orbit length); ``least`` walks it in table order
        orbit, _, schreier = _orbit(G, PermGroup(G.degree, gens), cap)
        N = _Chain(G.degree, tuple(range(1, G.degree + 1)))
        for s in schreier:
            if N.order() * len(orbit) == G.order():
                break
            N.add_gen(s)
        return N.least(pred)

    _, gens = grow_sylow(
        p, target, Q.element_set(cap), Q.generators, Permutation.order, least_normalizing,
        lambda P, gens, y: PermGroup(G.degree, [*gens, y]).element_set(cap))
    return PermGroup(G.degree, gens)


def _orbit(G: PermGroup, P: PermGroup, cap: int | None = None,
           limit: int | None = None, what: str = "orbit"):
    """The orbit of P under conjugation by G, with its Schreier generators.

    The conjugates share few elements, so each element met gets a number
    and is conjugated by each generator once; a conjugate is keyed by its
    sorted numbers.  Returns the orbit (a dict from each key to an element
    of G conjugating P to that conjugate, from ``orbit_map``'s
    transversal), the image table of each number, and an iterator over
    the Schreier generators u * g * u'^-1 of N_G(P), for each conjugate's
    transversal element u and each generator g of G.
    """
    tables = []
    index = {}

    def number(x):
        if x not in index:
            index[x] = len(tables)
            tables.append(x)
        return index[x]

    def conjugate(gi, g, i):
        x = tables[i]  # (g^-1 x g)(k) = g(x(g^-1(k)))
        return number(tuple([g[x[k - 1] - 1] for k in gi]))

    def act(s, gen):
        return tuple(sorted(map(gen[0], s)))

    gens = [(cache(partial(conjugate, g.inverse().images, g.images)), g)
            for g in G.generators]
    orbit = orbit_map(tuple(sorted(number(x.images) for x in P.elements(cap))), gens,
                      act, lambda u, gen: u * gen[1], G.identity(), limit, what)
    schreier = (u * gen[1] * orbit[act(s, gen)].inverse()
                for s, u in orbit.items() for gen in gens)
    return orbit, tables, schreier


def _conjugates(G: PermGroup, P: PermGroup, p: int | None = None,
                cap: int | None = None, limit: int | None = None,
                what: str = "orbit") -> list[tuple[tuple[int, ...], ...]]:
    """The orbit of P under conjugation by G, each conjugate as the tuple
    of its elements' image tables.  With ``p``, P is a Sylow p-subgroup
    of G, and the orbit's length, nu(G, p), is asserted to be 1 mod p.
    """
    seen, tables, _ = _orbit(G, P, cap, limit, what)
    assert p is None or len(seen) % p == 1, "Sylow count must be 1 mod p"
    return [tuple(map(tables.__getitem__, s)) for s in seen]


def nu_p(G: PermGroup, p: int, cap: int | None = None) -> int:
    """Number of Sylow p-subgroups of G: the length of one Sylow
    subgroup's conjugation orbit."""
    check_prime(p)
    if G.order() % p:
        return 1
    return len(_conjugates(G, sylow_subgroup(G, p, cap), p, cap))


def sylow_subgroups(G: PermGroup, p: int, cap: int | None = None) -> tuple[frozenset, ...]:
    """Element sets of all Sylow p-subgroups, sorted.

    They form the conjugation orbit of one Sylow subgroup, the same orbit
    ``nu_p`` counts.  Raises CapExceeded when the Sylow subgroups together
    would hold more elements than the element cap allows.
    """
    check_prime(p)
    P = sylow_subgroup(G, p, cap)
    seen = _conjugates(G, P, p, cap, limit=config.element_cap(cap) // P.order(),
                       what="Sylow subgroup enumeration")
    return tuple(frozenset(map(Permutation, s)) for s in sorted(seen, key=sorted))


def nu_monotonicity_check(G: PermGroup, H: PermGroup, p: int,
                          cap: int | None = None) -> CheckReport:
    """Verify nu(H, p) <= nu(G, p) and characterize the equality case.

    Equality holds exactly when (1) each Sylow p-subgroup of H lies in a
    unique Sylow p-subgroup of G, and (2) G = H * N_G(P).  Q in Syl_p(H)
    and P in Syl_p(G) containing Q are grown once each; the G-orbit of P
    gives nu(G, p) and the Sylow subgroups of G containing Q, the H-orbit
    of Q gives nu(H, p), and (2) holds exactly when H is transitive on
    Syl_p(G), that is when the H-orbit of P has nu(G, p) members.
    """
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    Q = sylow_subgroup(H, p, cap)
    P = sylow_subgroup_containing(G, Q, p, cap)
    sylows = _conjugates(G, P, p, cap)
    nu_G = len(sylows)
    nu_H = len(_conjugates(H, Q, p, cap))
    q_set = frozenset(x.images for x in Q.elements())
    containing = sum(1 for s in sylows if q_set.issubset(s))
    unique_containment = containing == 1
    # |H : N_H(P)| need not be 1 mod p, so this orbit carries no p
    product_covers = len(_conjugates(H, P, cap=cap)) == nu_G
    equal = nu_H == nu_G
    conditions = unique_containment and product_covers
    return CheckReport("sylow-monotone", nu_H <= nu_G and (equal == conditions), {
        "p": p,
        "nu_G": nu_G,
        "nu_H": nu_H,
        "equal": equal,
        "sylows_of_G_containing_Q": containing,
        "unique_containment": unique_containment,
        "product_covers_G": product_covers,
    })


def nu_quotient_identity_check(G: PermGroup, N: PermGroup, p: int,
                               cap: int | None = None) -> CheckReport:
    """Verify nu(G, p) = nu(G/N, p) * nu(PN, p) for normal N."""
    if not is_normal(G, N):
        raise NotNormal("N is not normal in G")
    Q, _ = quotient_group(G, N, cap)
    P = sylow_subgroup(G, p, cap)
    PN = PermGroup(G.degree, P.generators + N.generators)
    nu_G = len(_conjugates(G, P, p, cap))
    nu_Q = nu_p(Q, p, cap)
    nu_PN = len(_conjugates(PN, P, p, cap))
    return CheckReport("sylow-quotient-product", nu_G == nu_Q * nu_PN, {
        "p": p,
        "nu_G": nu_G,
        "nu_quotient": nu_Q,
        "nu_PN": nu_PN,
        "product": nu_Q * nu_PN,
    })


def nu_fpr_identity_check(G: PermGroup, H: PermGroup, p: int,
                          cap: int | None = None) -> CheckReport:
    """Verify nu(H,p)/nu(G,p) equals the fixed point ratio of a Sylow
    p-subgroup on the conjugates of H, for maximal H containing one.

    H is maximal exactly when G is primitive on the cosets of H, so the
    check needs no subgroup lattice: G only has to fit the element cap.
    """
    from .actions import coset_action, fpr_subgroup

    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    if H.order() == G.order():
        raise NotMaximal("H is the whole group")
    action = coset_action(G, H, cap)
    if not action.is_primitive():
        raise NotMaximal("H is not maximal: G is imprimitive on its cosets")
    if p_part(H.order(), p) != p_part(G.order(), p):
        raise SylowNotContained(
            "H does not contain a Sylow p-subgroup of G")
    P = sylow_subgroup(H, p, cap)
    nu_H = len(_conjugates(H, P, p, cap))
    nu_G = len(_conjugates(G, P, p, cap))
    ratio = Fraction(nu_H, nu_G)
    fixed_ratio = fpr_subgroup(action, P)
    return CheckReport("sylow-fpr-identity", ratio == fixed_ratio, {
        "p": p,
        "nu_H": nu_H,
        "nu_G": nu_G,
        "sylow_ratio": ratio,
        "fixed_point_ratio": fixed_ratio,
        "degree": action.degree,
    })


def sylow_ratio_bound_check(G: PermGroup, H: PermGroup, p: int,
                            exclusions_clear: bool = False,
                            cap: int | None = None) -> CheckReport:
    """For G generated by its p-elements and proper H containing a full
    Sylow p-subgroup: nu(H,p) <= ((p-1)/(2p-1)) nu(G,p).

    With ``exclusions_clear`` (no factor group of G isomorphic to an
    alternating group A_m with p+1 < m < p^2-p, nor to SL(2, p+1) for
    Mersenne p), additionally asserts nu(H,p) <= nu(G,p)/(p+1).
    """
    if p_residual(G, p, cap).order() != G.order():
        raise PreconditionFailed("G must be generated by its p-elements")
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    if H.order() >= G.order():
        raise PreconditionFailed("H must be proper")
    if p_part(H.order(), p) != p_part(G.order(), p):
        raise SylowNotContained("H does not contain a Sylow p-subgroup of G")
    P = sylow_subgroup(H, p, cap)
    nu_G = len(_conjugates(G, P, p, cap))
    nu_H = len(_conjugates(H, P, p, cap))
    main_bound = nu_H * (2 * p - 1) <= nu_G * (p - 1)
    strict_bound = nu_H * (p + 1) <= nu_G if exclusions_clear else None
    return CheckReport("sylow-ratio-bound", main_bound and (strict_bound is not False), {
        "p": p,
        "nu_G": nu_G,
        "nu_H": nu_H,
        "ratio": Fraction(nu_H, nu_G),
        "bound": Fraction(p - 1, 2 * p - 1),
        "bound_attained": nu_H * (2 * p - 1) == nu_G * (p - 1),
        "strict_bound_checked": exclusions_clear,
        "strict_bound_holds": strict_bound,
    })


def p_solvable_divisibility_check(G: PermGroup, p: int,
                                  cap: int | None = None) -> CheckReport:
    """For p-solvable G: nu(H,p) divides nu(G,p) for every proper H, and
    when the counts differ, nu(H,p) <= nu(G,p)/(p+1).
    """
    from .lattice import subgroup_lattice

    if not is_p_solvable(G, p, cap):
        raise NotPSolvable("G is not p-solvable")
    lat = subgroup_lattice(G, cap)
    ctx = lat.ctx
    nu_G = ctx.sylow_count_in(frozenset(range(ctx.n)), p)
    bad_div = []
    bad_gap = []
    values = set()
    for i in range(len(lat) - 1):
        nu_H = ctx.sylow_count_in(lat.element_sets[i], p)
        values.add(nu_H)
        if nu_G % nu_H:
            bad_div.append(i)
        elif nu_H != nu_G and nu_H * (p + 1) > nu_G:
            bad_gap.append(i)
    return CheckReport("p-solvable-divisibility", not bad_div and not bad_gap, {
        "p": p,
        "nu_G": nu_G,
        "subgroups_checked": len(lat) - 1,
        "nu_values": sorted(values),
        "divisibility_failures": bad_div,
        "gap_failures": bad_gap,
    })


def sylow_ratio_gap_scan(groups, p: int, bound: Fraction,
                         cap: int | None = None) -> CheckReport:
    """Scan subgroup pairs for nu(H,p) < nu(G,p) with ratio above ``bound``.

    ``groups`` is an iterable of (name, PermGroup).  Groups whose lattice
    exceeds the cap are skipped with a notice, never silently.
    """
    from .lattice import subgroup_lattice

    violations = []
    notices = []
    scanned = 0
    for name, G in groups:
        try:
            lat = subgroup_lattice(G, cap)
        except CapExceeded as e:
            notices.append(
                f"skipped {name}: lattice needs {e.required} > cap {e.cap}")
            continue
        scanned += 1
        ctx = lat.ctx
        nu_G = ctx.sylow_count_in(frozenset(range(ctx.n)), p)
        for i in range(len(lat) - 1):
            nu_H = ctx.sylow_count_in(lat.element_sets[i], p)
            if nu_H < nu_G and nu_H > bound * nu_G:
                gens = [ctx.elements[g].cycle_string()
                        for g in lat.generator_sets[i]]
                violations.append({
                    "group": name,
                    "subgroup_generators": gens,
                    "p": p,
                    "nu_G": nu_G,
                    "nu_H": nu_H,
                    "ratio_num": Fraction(nu_H, nu_G).numerator,
                    "ratio_den": Fraction(nu_H, nu_G).denominator,
                })
    violations.sort(key=lambda v: (-Fraction(v["ratio_num"], v["ratio_den"]),
                                   v["group"], v["subgroup_generators"]))
    return CheckReport("sylow-ratio-gap-scan", not violations, {
        "p": p,
        "bound": bound,
        "groups_scanned": scanned,
        "violations": violations,
    }, notices)
