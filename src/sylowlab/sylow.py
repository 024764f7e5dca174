"""Sylow subgroups, Sylow counts, and the identities relating them.

A Sylow subgroup is grown as a normalizer tower without listing G: from
P = 1 (or a given p-subgroup), ``sylow_subgroup_containing`` adjoins the
least p-element of N_G(P) outside P, where N_G(P) is the stabilizer of P
in its conjugation orbit (``group.stabilizer``: Schreier generators
sifted into a chain on the base 1..degree, closed as soon as it reaches
its known order |G| / (orbit length)), walked in image-table order
(``_Chain.least``).
Z = Omega_1(Z(P)), the central elements of P of order p with 1, is
characteristic in P, so N_G(P) <= N_G(Z): where Z < P, N_G(Z) is built
first, from Z's orbit under G, once per tower for each Z the tower meets,
and P's orbit is walked under N_G(Z) only (``_normalizer_chain``).  For
nu_2(A9) the tower so meets 3,731 conjugates, where a walk of every step
under G meets 12,790.  The adjoined y normalizes P, so <P, y> is the
union of the cosets P y^i (``_coset_closure``), and each step's subgroup
carries its sorted element list, so no step builds a chain for P itself.

G acts on Syl_p(G) by conjugation, transitively, so nu(G, p) is the
length of one Sylow subgroup's conjugation orbit.  A conjugate P^g is
keyed by P^g n X, for X the elements of G of order dividing p^j and j
the least exponent at which P's elements of that order generate P
(``_key``): X is closed under conjugation and P n X generates P, so the
key is exact.  Every conjugation orbit under G, of a tower step, of its
Omega_1(Z(P)) or of the count, numbers its key elements in one
``group.Numbering`` kept on G (``_numbering``); an orbit under N_G(Z)
uses that subgroup's own.  A numbering is closed under conjugation
before the orbit is walked: each numbered element is conjugated once by
each generator, into one list per generator, and a key is mapped through
such a list.  G's numbering thus holds a few conjugacy classes of p-elements, not the
union of the Sylow subgroups.  Each conjugate keeps only its
Schreier-tree record, (parent, generator) (``group.schreier_tree``); its
transversal element is its parent's times one generator, memoised by
``group.transversal``, and is built only for the Schreier generators
the tower consumes, and for the callers that need a conjugate's
elements.
``nu_p``, ``sylow_subgroups``, the three Sylow-number checks here
(monotonicity, the quotient product and the ratio bound) and
``actions.nu_fpr_identity_check`` read every count off such orbits, and
each grows one Sylow subgroup from P = 1.
The lattice-based checks count on the Cayley table instead, once per
conjugacy class of subgroups, each class representative's Sylow
subgroup read off the lattice itself (``SubgroupLattice.sylow_counts``).
The test suite checks the counts against the normalizer index and
against the subgroups of full p-power order in the subgroup lattice, and
the tower against the same rule applied to the sorted element indices
of a Cayley table.
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .errors import (
    CapExceeded,
    NotPSolvable,
    PreconditionFailed,
    SylowNotContained,
)
from .group import (
    Numbering,
    PermGroup,
    _Chain,
    check_subgroup,
    normal_closure,
    quotient_group,
    schreier_tree,
    stabilizer,
    transversal,
)
from .lattice import is_p_solvable, subgroup_lattice
from .perm import Permutation
from .reports import CheckReport
from .tables import check_prime, is_p_power, p_part


def sylow_subgroup(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup of G, deterministically chosen: from P = 1, the
    least p-element of N_G(P) outside P is adjoined until P is Sylow."""
    return sylow_subgroup_containing(G, PermGroup(G.degree), p)


def sylow_subgroup_containing(G: PermGroup, Q: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup of G containing the p-subgroup Q.

    From P = Q, the least p-element of N_G(P) outside P, least by image
    table, is adjoined while P is not Sylow; Sylow's theorem guarantees
    one.  No step lists G, but G must still fit the element cap that
    ``G.elements`` would apply, even when Q is Sylow already, so that
    every Sylow request refuses the same groups.
    """
    check_prime(p)
    G.check_element_cap()
    target = p_part(G.order(), p)
    if Q.order() == target:
        return Q
    centres = {}  # Omega_1(Z(P)) by its elements, to N_G(Omega_1(Z(P)))
    P, gens = frozenset(Q.elements()), list(Q.generators)
    while len(P) < target:
        y = _normalizer_chain(G, _listed(G.degree, gens, P), p, centres).least(
            lambda x: x not in P and is_p_power(x.order(), p))
        if y is None:  # pragma: no cover - impossible by Sylow theory
            raise AssertionError("Sylow extension stalled")
        P = _coset_closure(P, y)
        gens.append(y)
    return _listed(G.degree, gens, P)


def _listed(degree: int, gens, elements) -> PermGroup:
    """<gens>, given its element set, with its sorted element list in place,
    so that ``_key`` and ``elements`` build no chain."""
    H = PermGroup(degree, gens)
    H._elements = tuple(sorted(elements))
    return H


def _coset_closure(P: frozenset, y: Permutation) -> frozenset:
    """The element set of <P, y>, for y normalizing the group P: the union
    of the cosets P y^i, up to the least i with y^i in P."""
    out = set(P)
    c = y
    while c not in out:
        out.update([x * c for x in P])
        c = c * y
    return frozenset(out)


def _omega_centre(P: PermGroup, p: int) -> PermGroup:
    """Omega_1(Z(P)) for a p-group P: its central elements of order p and 1."""
    central = [x for x in P.elements()[1:]
               if x.order() == p and all(x * g == g * x for g in P.generators)]
    return _listed(P.degree, central, [P.identity(), *central])


def _normalizer_chain(G: PermGroup, P: PermGroup, p: int, centres: dict) -> _Chain:
    """N_G(P) for a p-subgroup P of G that carries its element list
    (``_listed``), as a chain on the base 1..degree, the shape
    ``_Chain.least`` walks.

    Z = Omega_1(Z(P)) is characteristic in P, so N_G(P) <= N_G(Z): unless
    Z = P, N_G(Z) is taken from ``centres``, which maps Z's element list
    to N_G(Z), or built from Z's orbit under G and kept there, and P's
    orbit is walked under N_G(Z) only.
    """
    Z = _omega_centre(P, p)
    if len(Z.elements()) < len(P.elements()):
        if Z.elements() not in centres:
            centres[Z.elements()] = stabilizer(G, *_orbit(G, Z))
        G = centres[Z.elements()]
    return stabilizer(G, *_orbit(G, P)).chain()


def _numbering(G: PermGroup) -> Numbering:
    """G's one numbering for conjugation orbits, built on first use, like
    G's table and lattice."""
    if G._numbering is None:
        G._numbering = Numbering(G)
    return G._numbering


def _key(P: PermGroup) -> list[Permutation]:
    """The elements of P that key its conjugates in ``_orbit``: those
    other than 1 of order at most m, for the least m at which they
    generate P.

    The elements of G of order at most m form a set X closed under
    conjugation, so (P n X)^g = P^g n X.  P n X generates P, so the
    stabilizer of the key is N_G(P) and distinct conjugates have distinct
    keys.  P is a p-group, so m = p^j and X holds the elements of order
    dividing p^j; j = 1 unless the elements of order p generate a proper
    subgroup, as in a cyclic or quaternion Sylow subgroup.  A proper
    subgroup has at most |P|/p elements, for p = ``levels[0]``, so more
    key elements than that generate P without a stabilizer chain.
    """
    els = P.elements()
    orders = {x: x.order() for x in els[1:]}
    levels = sorted(set(orders.values()))
    for m in levels:
        key = [x for x, o in orders.items() if o <= m]
        if (m == levels[-1] or (len(key) + 1) * levels[0] > len(els)
                or PermGroup(P.degree, key).order() == len(els)):
            return key
    return []


def _orbit(G: PermGroup, P: PermGroup):
    """The orbit of P under conjugation by G, as a Schreier tree
    (``group.schreier_tree``), with the action on its keys.

    Each conjugate P^g is keyed by its key elements (``_key``), the
    conjugates of P's.  Each element met gets a number in G's one
    numbering (``_numbering``), which every orbit under G shares.
    Closing it after the key elements of P are numbered conjugates each
    element of their conjugacy classes in G once by each generator of G;
    so after a Sylow request G's numbering holds the classes of the key
    elements of the tower's orbits under G (of a step P_i, or of its
    Omega_1(Z(P_i))) and of the Sylow subgroup, not the union of the
    Sylow subgroups.  A conjugate's key is its sorted numbers, each
    mapped through one generator's conjugation list.

    Returns the tree and the action ``act(key, k)``, the pair that
    ``group.stabilizer`` takes for N_G(P).
    """
    numbering = _numbering(G)
    seed = tuple(sorted(numbering.number(x.images) for x in _key(P)))
    numbering.close()
    conj = numbering.conj

    def act(s, k):
        return tuple(sorted(map(conj[k].__getitem__, s)))

    return schreier_tree(G, seed, act), act


def _conjugates(G: PermGroup, P: PermGroup, p: int | None = None) -> list:
    """The orbit of P under conjugation by G, each conjugate as its
    Schreier-tree record (``group.transversal(G)`` turns them into their
    elements of G).  With ``p``, P is a Sylow p-subgroup of G, and the
    orbit's length, nu(G, p), is asserted to be 1 mod p.
    """
    seen, _ = _orbit(G, P)
    assert p is None or len(seen) % p == 1, "Sylow count must be 1 mod p"
    return list(seen.values())


def nu_p(G: PermGroup, p: int) -> int:
    """Number of Sylow p-subgroups of G: the length of one Sylow
    subgroup's conjugation orbit."""
    check_prime(p)
    if G.order() % p:
        return 1
    return len(_conjugates(G, sylow_subgroup(G, p), p))


def sylow_subgroups(G: PermGroup, p: int) -> tuple[frozenset, ...]:
    """Element sets of all Sylow p-subgroups, sorted.

    They form the conjugation orbit of one Sylow subgroup, the same orbit
    ``nu_p`` counts.  Raises CapExceeded when the Sylow subgroups together
    hold more elements, nu * |P|, than the element cap allows.  The orbit
    is walked first, with no limit: it has at most |G| members, and the
    tower has admitted G under the element cap.  So a refusal costs the
    same orbit walk as ``nu_p``.
    """
    check_prime(p)
    P = sylow_subgroup(G, p)
    records = _conjugates(G, P, p)
    config.refuse_above("Sylow subgroup enumeration", len(records) * P.order(),
                        config.element_cap())
    els = P.elements()

    def members(u):
        u_inv = u.inverse()
        return frozenset(u_inv * x * u for x in els)

    return tuple(sorted(map(members, map(transversal(G), records)), key=sorted))


def nu_monotonicity_check(G: PermGroup, H: PermGroup, p: int) -> CheckReport:
    """Verify nu(H, p) <= nu(G, p) and characterize the equality case.

    Equality holds exactly when (1) each Sylow p-subgroup of H lies in a
    unique Sylow p-subgroup of G, and (2) G = H * N_G(P).  Q in Syl_p(H)
    and P in Syl_p(G) containing Q are grown once each; the G-orbit of P
    gives nu(G, p) and the Sylow subgroups of G containing Q, the H-orbit
    of Q gives nu(H, p), and (2) holds exactly when H is transitive on
    Syl_p(G), that is when the H-orbit of P has nu(G, p) members.
    """
    check_subgroup(H, G)
    Q = sylow_subgroup(H, p)
    P = sylow_subgroup_containing(G, Q, p)
    sylows = _conjugates(G, P, p)
    nu_G = len(sylows)
    nu_H = len(_conjugates(H, Q, p))
    p_set = frozenset(P.elements())

    def holds_Q(u):
        # u^-1 P u holds Q exactly when P holds u Q u^-1
        u_inv = u.inverse()
        return all(u * q * u_inv in p_set for q in Q.generators)

    containing = sum(map(holds_Q, map(transversal(G), sylows)))
    unique_containment = containing == 1
    # |H : N_H(P)| need not be 1 mod p, so this orbit carries no p
    product_covers = len(_conjugates(H, P)) == nu_G
    equal = nu_H == nu_G
    conditions = unique_containment and product_covers
    return CheckReport(nu_H <= nu_G and (equal == conditions), {
        "p": p,
        "nu_G": nu_G,
        "nu_H": nu_H,
        "equal": equal,
        "sylows_of_G_containing_Q": containing,
        "unique_containment": unique_containment,
        "product_covers_G": product_covers,
    })


def nu_quotient_identity_check(G: PermGroup, N: PermGroup, p: int) -> CheckReport:
    """Verify nu(G, p) = nu(G/N, p) * nu(PN, p) for normal N.

    One Sylow p-subgroup P of G is grown.  Its image PN/N is Sylow in
    G/N, so nu(G/N, p) is the length of that image's conjugation orbit.
    """
    Q, project = quotient_group(G, N)
    P = sylow_subgroup(G, p)
    PN = PermGroup(G.degree, P.generators + N.generators)
    nu_G = len(_conjugates(G, P, p))
    nu_Q = len(_conjugates(Q, PermGroup(Q.degree, map(project, P.generators)), p))
    nu_PN = len(_conjugates(PN, P, p))
    return CheckReport(nu_G == nu_Q * nu_PN, {
        "p": p,
        "nu_G": nu_G,
        "nu_quotient": nu_Q,
        "nu_PN": nu_PN,
        "product": nu_Q * nu_PN,
    })


def sylow_ratio_bound_check(G: PermGroup, H: PermGroup, p: int,
                            exclusions_clear: bool = False) -> CheckReport:
    """For G generated by its p-elements and proper H containing a full
    Sylow p-subgroup: nu(H,p) <= ((p-1)/(2p-1)) nu(G,p).

    With ``exclusions_clear`` (no factor group of G isomorphic to an
    alternating group A_m with p+1 < m < p^2-p, nor to SL(2, p+1) for
    Mersenne p), additionally asserts nu(H,p) <= nu(G,p)/(p+1).

    One Sylow p-subgroup P of H is grown, after the refusals that need
    none.  P is Sylow in G too, so its normal closure is the subgroup
    that the p-elements of G generate.
    """
    check_prime(p)
    check_subgroup(H, G)
    if H.order() >= G.order():
        raise PreconditionFailed("H must be proper")
    if p_part(H.order(), p) != p_part(G.order(), p):
        raise SylowNotContained("H does not contain a Sylow p-subgroup of G")
    P = sylow_subgroup(H, p)
    if normal_closure(G, P.generators).order() != G.order():
        raise PreconditionFailed("G must be generated by its p-elements")
    nu_G = len(_conjugates(G, P, p))
    nu_H = len(_conjugates(H, P, p))
    main_bound = nu_H * (2 * p - 1) <= nu_G * (p - 1)
    strict_bound = nu_H * (p + 1) <= nu_G if exclusions_clear else None
    return CheckReport(main_bound and (strict_bound is not False), {
        "p": p,
        "nu_G": nu_G,
        "nu_H": nu_H,
        "ratio": Fraction(nu_H, nu_G),
        "bound": Fraction(p - 1, 2 * p - 1),
        "bound_attained": nu_H * (2 * p - 1) == nu_G * (p - 1),
        "strict_bound_checked": exclusions_clear,
        "strict_bound_holds": strict_bound,
    })


def p_solvable_divisibility_check(G: PermGroup, p: int) -> CheckReport:
    """For p-solvable G: nu(H,p) divides nu(G,p) for every proper H, and
    when the counts differ, nu(H,p) <= nu(G,p)/(p+1).
    """
    if not is_p_solvable(G, p):
        raise NotPSolvable("G is not p-solvable")
    *nus, nu_G = subgroup_lattice(G).sylow_counts(p)
    bad_div = []
    bad_gap = []
    for i, nu_H in enumerate(nus):
        if nu_G % nu_H:
            bad_div.append(i)
        elif nu_H != nu_G and nu_H * (p + 1) > nu_G:
            bad_gap.append(i)
    return CheckReport(not bad_div and not bad_gap, {
        "p": p,
        "nu_G": nu_G,
        "subgroups_checked": len(nus),
        "nu_values": sorted(set(nus)),
        "divisibility_failures": bad_div,
        "gap_failures": bad_gap,
    })


def sylow_ratio_gap_scan(groups, p: int, bound: Fraction) -> CheckReport:
    """Scan subgroup pairs for nu(H,p) < nu(G,p) with ratio above ``bound``.

    ``groups`` is an iterable of (name, PermGroup).  Groups whose lattice
    exceeds the cap are skipped with a notice, never silently.
    """
    check_prime(p)
    violations = []
    notices = []
    scanned = 0
    for name, G in groups:
        try:
            lat = subgroup_lattice(G)
        except CapExceeded as e:
            notices.append(
                f"skipped {name}: lattice needs {e.required} > cap {e.cap}")
            continue
        scanned += 1
        *nus, nu_G = lat.sylow_counts(p)
        for i, nu_H in enumerate(nus):
            if nu_H < nu_G and nu_H > bound * nu_G:
                gens = [g.cycle_string() for g in lat.generators_of(i)]
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
    return CheckReport(not violations, {
        "p": p,
        "bound": bound,
        "groups_scanned": scanned,
        "violations": violations,
    }, notices)
