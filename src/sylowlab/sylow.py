"""Sylow subgroups, Sylow counts, and the identities relating them.

The count nu(G, p) is computed as the index of a normalizer.  A separate
oracle in the test suite recounts subgroups of full p-power order from
the subgroup lattice, so the two routes check each other.
"""

from __future__ import annotations

from fractions import Fraction

from . import config
from .errors import (
    CapExceeded,
    NotASubgroup,
    NotNormal,
    NotPSolvable,
    PreconditionFailed,
    SylowNotContained,
)
from .group import (
    PermGroup,
    generated_subgroup,
    is_normal,
    is_p_solvable,
    is_subgroup,
    normalizer,
    orbit_map,
    p_residual,
    quotient_group,
)
from .perm import Permutation
from .reports import CheckReport, timed
from .tables import check_prime, grow_sylow, p_part


def sylow_subgroup(G: PermGroup, p: int, cap: int | None = None) -> PermGroup:
    """A Sylow p-subgroup of G, deterministically chosen by ``grow_sylow``."""
    return sylow_subgroup_containing(G, PermGroup(G.degree), p, cap)


def _normalizes(gens, y: Permutation, P: frozenset[Permutation]) -> bool:
    return all(g.conjugate(y) in P for g in gens)


def sylow_subgroup_containing(G: PermGroup, Q: PermGroup, p: int,
                              cap: int | None = None) -> PermGroup:
    """A Sylow p-subgroup of G containing the p-subgroup Q."""
    check_prime(p)
    target = p_part(G.order(), p)
    if Q.order() == target:
        return Q
    _, gens = grow_sylow(
        G.elements(cap), p, target, Q.element_set(cap), Q.generators,
        Permutation.order, _normalizes,
        lambda P, gens, y: PermGroup(G.degree, [*gens, y]).element_set(cap))
    return PermGroup(G.degree, gens)


def nu_p(G: PermGroup, p: int, cap: int | None = None) -> int:
    """Number of Sylow p-subgroups of G (the index of a normalizer)."""
    check_prime(p)
    if G.order() % p:
        return 1
    P = sylow_subgroup(G, p, cap)
    count = G.order() // normalizer(G, P, cap).order()
    assert count % p == 1, "Sylow count must be 1 mod p"
    return count


def sylow_subgroups(G: PermGroup, p: int, cap: int | None = None) -> tuple[frozenset, ...]:
    """Element sets of all Sylow p-subgroups, by conjugating one of them."""
    check_prime(p)
    P = sylow_subgroup(G, p, cap)
    count = nu_p(G, p, cap)
    limit = config.element_cap(cap)
    if count * P.order() > limit:
        raise CapExceeded("Sylow subgroup enumeration", count * P.order(), limit)
    seen = orbit_map(frozenset(P.elements()), G.generators,
                     lambda s, g: frozenset(x.conjugate(g) for x in s))
    assert len(seen) == count
    return tuple(sorted(seen, key=lambda s: sorted(s)))


def nu_monotonicity_check(G: PermGroup, H: PermGroup, p: int,
                          cap: int | None = None) -> CheckReport:
    """Verify nu(H, p) <= nu(G, p) and characterize the equality case.

    Equality holds exactly when (1) each Sylow p-subgroup of H lies in a
    unique Sylow p-subgroup of G, and (2) G = H * N_G(P).  Both sides are
    verified by direct enumeration.
    """
    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    report = CheckReport("sylow-monotone", False)
    with timed(report):
        nu_G = nu_p(G, p, cap)
        nu_H = nu_p(H, p, cap)
        Q = sylow_subgroup(H, p, cap)
        P = sylow_subgroup_containing(G, Q, p, cap)
        q_set = frozenset(Q.elements())
        containing = sum(1 for s in sylow_subgroups(G, p, cap) if q_set <= s)
        unique_containment = containing == 1
        n_set = frozenset(normalizer(G, P, cap).elements())
        h_set = frozenset(H.elements())
        product_size = len(h_set) * len(n_set) // len(h_set & n_set)
        product_covers = product_size == G.order()
        equal = nu_H == nu_G
        conditions = unique_containment and product_covers
        report.ok = nu_H <= nu_G and (equal == conditions)
        report.details = {
            "p": p,
            "nu_G": nu_G,
            "nu_H": nu_H,
            "equal": equal,
            "sylows_of_G_containing_Q": containing,
            "unique_containment": unique_containment,
            "product_covers_G": product_covers,
        }
    return report


def nu_quotient_identity_check(G: PermGroup, N: PermGroup, p: int,
                               cap: int | None = None) -> CheckReport:
    """Verify nu(G, p) = nu(G/N, p) * nu(PN, p) for normal N."""
    if not is_normal(G, N):
        raise NotNormal("N is not normal in G")
    report = CheckReport("sylow-quotient-product", False)
    with timed(report):
        Q, _ = quotient_group(G, N, cap)
        P = sylow_subgroup(G, p, cap)
        PN = generated_subgroup(G.degree, tuple(P.generators) + tuple(N.generators))
        nu_G = nu_p(G, p, cap)
        nu_Q = nu_p(Q, p, cap)
        nu_PN = nu_p(PN, p, cap)
        report.ok = nu_G == nu_Q * nu_PN
        report.details = {
            "p": p,
            "nu_G": nu_G,
            "nu_quotient": nu_Q,
            "nu_PN": nu_PN,
            "product": nu_Q * nu_PN,
        }
    return report


def nu_fpr_identity_check(G: PermGroup, H: PermGroup, p: int,
                          cap: int | None = None) -> CheckReport:
    """Verify nu(H,p)/nu(G,p) equals the fixed point ratio of a Sylow
    p-subgroup on the conjugates of H, for maximal H containing one.
    """
    from .actions import coset_action, fpr_subgroup
    from .lattice import subgroup_lattice

    if not is_subgroup(H, G):
        raise NotASubgroup("H is not a subgroup of G")
    lat = subgroup_lattice(G, cap)
    ctx = lat.ctx
    idx = lat.index_of(frozenset(ctx.index[e] for e in H.elements()))
    lat.check_maximal(idx)
    if p_part(H.order(), p) != p_part(G.order(), p):
        raise SylowNotContained(
            "H does not contain a Sylow p-subgroup of G")
    report = CheckReport("sylow-fpr-identity", False)
    with timed(report):
        P = sylow_subgroup(H, p, cap)
        action = coset_action(G, H, cap)
        nu_H = nu_p(H, p, cap)
        nu_G = nu_p(G, p, cap)
        ratio = Fraction(nu_H, nu_G)
        fixed_ratio = fpr_subgroup(action, P)
        report.ok = ratio == fixed_ratio
        report.details = {
            "p": p,
            "nu_H": nu_H,
            "nu_G": nu_G,
            "sylow_ratio": ratio,
            "fixed_point_ratio": fixed_ratio,
            "degree": action.degree,
        }
    return report


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
    report = CheckReport("sylow-ratio-bound", False)
    with timed(report):
        nu_G = nu_p(G, p, cap)
        nu_H = nu_p(H, p, cap)
        main_bound = nu_H * (2 * p - 1) <= nu_G * (p - 1)
        strict_bound = nu_H * (p + 1) <= nu_G if exclusions_clear else None
        report.ok = main_bound and (strict_bound is not False)
        report.details = {
            "p": p,
            "nu_G": nu_G,
            "nu_H": nu_H,
            "ratio": Fraction(nu_H, nu_G),
            "bound": Fraction(p - 1, 2 * p - 1),
            "bound_attained": nu_H * (2 * p - 1) == nu_G * (p - 1),
            "strict_bound_checked": exclusions_clear,
            "strict_bound_holds": strict_bound,
        }
    return report


def p_solvable_divisibility_check(G: PermGroup, p: int,
                                  cap: int | None = None) -> CheckReport:
    """For p-solvable G: nu(H,p) divides nu(G,p) for every proper H, and
    when the counts differ, nu(H,p) <= nu(G,p)/(p+1).
    """
    from .lattice import subgroup_lattice

    if not is_p_solvable(G, p, cap):
        raise NotPSolvable("G is not p-solvable")
    report = CheckReport("p-solvable-divisibility", False)
    with timed(report):
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
        report.ok = not bad_div and not bad_gap
        report.details = {
            "p": p,
            "nu_G": nu_G,
            "subgroups_checked": len(lat) - 1,
            "nu_values": sorted(values),
            "divisibility_failures": bad_div,
            "gap_failures": bad_gap,
        }
    return report


def sylow_ratio_gap_scan(groups, p: int, bound: Fraction,
                         cap: int | None = None) -> CheckReport:
    """Scan subgroup pairs for nu(H,p) < nu(G,p) with ratio above ``bound``.

    ``groups`` is an iterable of (name, PermGroup).  Groups whose lattice
    exceeds the cap are skipped with a notice, never silently.
    """
    from .lattice import subgroup_lattice

    report = CheckReport("sylow-ratio-gap-scan", False)
    with timed(report):
        violations = []
        scanned = 0
        for name, G in groups:
            try:
                lat = subgroup_lattice(G, cap)
            except CapExceeded as e:
                report.notices.append(
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
        report.ok = not violations
        report.details = {
            "p": p,
            "bound": bound,
            "groups_scanned": scanned,
            "violations": violations,
        }
    return report
