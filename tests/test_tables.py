"""Cayley-table kernels against raw permutation products.

The table is filled from generator rows and subgroups are grown by coset
extension; both are checked here against `Permutation.__mul__` and the
`brute_closure` oracle, which never touch the table.  Sylow subgroups
picked on table indices are checked against the permutation route.
"""

import random

import pytest

from conftest import alternating, brute_closure, nu_by_normalizer_index, sylow_in, symmetric
from sylowlab.catalog import catalog_upto, construct, parse_group_expr
from sylowlab.errors import OutOfDomain
from sylowlab.group import PermGroup
from sylowlab.sylow import nu_p, sylow_subgroup
from sylowlab.tables import CayleyTable, check_prime, get_table, is_p_power, least_prime, p_part


@pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
def test_table_matches_raw_products(entry):
    G = entry.build()
    ctx = CayleyTable(G)
    els = ctx.elements
    index = {e: i for i, e in enumerate(els)}
    for a, row in zip(els, ctx.table):
        assert row == [index[a * b] for b in els]
    assert [index[e.inverse()] for e in els] == ctx.inv
    assert ctx.gen_idx == tuple(index[g] for g in G.generators)


@pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
def test_orders_and_cyclic_subgroups_match_raw_products(entry):
    """The power walk's orders and cyclic subgroups against
    `Permutation.order` and `brute_closure` of each element."""
    G = entry.build()
    ctx = CayleyTable(G)
    els = ctx.elements
    assert ctx.elt_order == [e.order() for e in els]
    least: dict[frozenset[int], int] = {}
    for i in range(1, ctx.n):
        cyc = frozenset(ctx.index[x] for x in brute_closure(G.degree, [els[i]]))
        least.setdefault(cyc, i)
    expect = sorted(((g, c) for c, g in least.items()), key=lambda t: (len(t[1]), sorted(t[1])))
    assert ctx.cyclic_subgroups() == expect


@pytest.mark.parametrize("entry", catalog_upto(2000), ids=lambda e: e.label)
def test_sylow_in_matches_permutation_route(entry):
    """The tower's rule on table indices (the oracle `sylow_in`) and
    `sylow_subgroup` on permutations pick the same Sylow subgroup."""
    G = entry.build()
    copy = PermGroup(G.degree, G.generators)
    ctx = get_table(copy)
    everything = frozenset(range(ctx.n))
    n = G.order()
    for p in (q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))):
        _, gens = sylow_in(ctx, everything, p)
        from_table = PermGroup(G.degree, [ctx.elements[i] for i in gens])
        assert sylow_subgroup(G, p).generators == from_table.generators
        assert nu_p(G, p) == nu_by_normalizer_index(ctx, everything, p)


@pytest.mark.parametrize("make, seed", [
    (lambda: symmetric(4), 0),
    (lambda: alternating(5), 1),
    (lambda: symmetric(5), 2),
    (lambda: construct(parse_group_expr("PSL(2,7)")), 3),
    (lambda: alternating(6), 4),
])
def test_extend_matches_brute_closure(make, seed):
    G = make()
    ctx = CayleyTable(G)
    els = ctx.elements
    rng = random.Random(seed)
    for _ in range(25):
        gens = rng.sample(range(ctx.n), rng.randint(0, 2))
        g = rng.randrange(ctx.n)
        sub = frozenset(ctx.index[x] for x in brute_closure(G.degree, [els[i] for i in gens]))
        expect = brute_closure(G.degree, [els[i] for i in gens + [g]])
        assert ctx.extend(sub, gens, g) == frozenset(ctx.index[x] for x in expect)


def test_extend_by_member_returns_the_subgroup():
    ctx = CayleyTable(symmetric(4))
    sub = ctx.extend(frozenset((0,)), (), 1)
    assert ctx.extend(sub, (1,), 1) is sub


@pytest.mark.parametrize("p", [-1, 0, 1])
def test_prime_below_two_is_out_of_domain(p):
    # n % 1 == 0 forever: these used to loop without end
    with pytest.raises(OutOfDomain):
        p_part(12, p)
    with pytest.raises(OutOfDomain):
        is_p_power(8, p)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9, 91])
def test_check_prime_refuses_non_primes(p):
    with pytest.raises(OutOfDomain, match=f"expected a prime, got {p}"):
        check_prime(p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
def test_check_prime_accepts_primes(p):
    check_prime(p)


def test_check_prime_matches_trial_division():
    for n in range(-2, 10_000):
        is_prime = n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))
        try:
            check_prime(n)
            accepted = True
        except OutOfDomain:
            accepted = False
        assert accepted == is_prime, n
        if n >= 1:
            least = next((d for d in range(2, int(n ** 0.5) + 1) if n % d == 0), n)
            assert least_prime(n) == least, n


@pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3, 3317044064679887385961813])
def test_check_prime_accepts_large_primes(p):
    check_prime(p)


# strong pseudoprimes to every prime base up to 13, 23 and 37, products of
# two primes, and the first strong pseudoprime to all bases up to 41,
# which is where the test stops being exact
@pytest.mark.parametrize("n", [3474749660383, 3825123056546413051,
                               318665857834031151167461, 1000000007 * 1000000009,
                               (2**61 - 1) * (2**19 - 1)])
def test_check_prime_refuses_strong_pseudoprimes(n):
    with pytest.raises(OutOfDomain, match=f"expected a prime, got {n}"):
        check_prime(n)


@pytest.mark.parametrize("n", [3317044064679887385961981, 10**30 + 57])
def test_check_prime_refuses_beyond_its_exact_range(n):
    with pytest.raises(OutOfDomain, match=f"expected a prime below 3317044064679887385961981, got {n}"):
        check_prime(n)
