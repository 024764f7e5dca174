"""Exhaustive tests of the small finite field tables."""

import pytest

from sylowlab.errors import UnsupportedField
from sylowlab.gf import SmallField, field


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


PRIMES = [n for n in range(2, 33) if is_prime(n)]
# every prime power up to 32, by trial division
FIELD_SIZES = sorted(p ** k for p in PRIMES for k in range(1, 6) if p ** k <= 32)


def neg(F, a):
    """Additive inverse, digit by digit."""
    return F._encode((-x) % F.p for x in F._digits(a))


def power(F, a, e):
    """a**e by square and multiply; a negative e inverts a first."""
    if e < 0:
        a, e = F.inv(a), -e
    r = 1
    while e:
        if e & 1:
            r = F.mul(r, a)
        a = F.mul(a, a)
        e >>= 1
    return r


def frobenius(F, a):
    return power(F, a, F.p)


@pytest.mark.parametrize("q", FIELD_SIZES)
class TestFieldAxioms:
    def test_additive_group(self, q):
        F = field(q)
        for a in F.elements():
            assert F.add(a, 0) == a
            assert F.add(a, neg(F, a)) == 0
            for b in F.elements():
                assert F.add(a, b) == F.add(b, a)

    def test_multiplicative_group(self, q):
        F = field(q)
        for a in F.elements():
            assert F.mul(a, 1) == a
            assert F.mul(a, 0) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1
            for b in F.elements():
                assert F.mul(a, b) == F.mul(b, a)

    def test_associativity_and_distributivity(self, q):
        F = field(q)
        for a in F.elements():
            for b in F.elements():
                for c in F.elements():
                    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                    assert (F.mul(a, F.add(b, c))
                            == F.add(F.mul(a, b), F.mul(a, c)))

    def test_no_zero_divisors(self, q):
        F = field(q)
        for a in range(1, q):
            for b in range(1, q):
                assert F.mul(a, b) != 0

    def test_frobenius_is_an_automorphism(self, q):
        F = field(q)
        for a in F.elements():
            for b in F.elements():
                assert frobenius(F, F.add(a, b)) == F.add(frobenius(F, a), frobenius(F, b))
                assert frobenius(F, F.mul(a, b)) == F.mul(frobenius(F, a), frobenius(F, b))
        # the k-fold iterate is the identity
        for a in F.elements():
            x = a
            for _ in range(F.k):
                x = frobenius(F, x)
            assert x == a
        # the prime subfield is fixed pointwise
        for a in range(F.p):
            assert frobenius(F, a) == a

    def test_multiplicative_group_cyclic(self, q):
        F = field(q)
        g = F.generator()
        assert {power(F, g, e) for e in range(q - 1)} == set(range(1, q))

    def test_pow_and_div(self, q):
        F = field(q)
        for a in range(1, q):
            assert power(F, a, q - 1) == 1
            assert power(F, a, -1) == F.inv(a)
            assert F.div(a, a) == 1


class TestFrozenTables:
    def test_gf4(self):
        F = field(4)
        # with modulus t^2+t+1: t*t = t+1
        assert F.mul(2, 2) == 3
        assert F.add(2, 3) == 1

    def test_gf8(self):
        F = field(8)
        # with modulus t^3+t+1: t*t^2 = t+1
        assert F.mul(2, 4) == 3

    def test_gf9(self):
        F = field(9)
        # with modulus t^2+1: t*t = -1 = 2
        assert F.mul(3, 3) == 2
        assert F.add(1, 2) == 0

    def test_prime_field_is_mod_p(self):
        F = field(7)
        for a in range(7):
            for b in range(7):
                assert F.add(a, b) == (a + b) % 7
                assert F.mul(a, b) == (a * b) % 7


class TestModulusRule:
    """The modulus is the least monic irreducible polynomial of degree k,
    least by the base-p encoding; it gives back the moduli that were
    pinned by hand before the rule, so their encodings stay the same."""

    @pytest.mark.parametrize("q, modulus", [
        (4, (1, 1, 1)),            # t^2 + t + 1
        (8, (1, 1, 0, 1)),         # t^3 + t + 1
        (9, (1, 0, 1)),            # t^2 + 1
        (16, (1, 1, 0, 0, 1)),     # t^4 + t + 1
        (32, (1, 0, 1, 0, 0, 1)),  # t^5 + t^2 + 1
    ])
    def test_pinned_moduli(self, q, modulus):
        assert SmallField(q).modulus == modulus

    @pytest.mark.parametrize("q", PRIMES)
    def test_prime_field_modulus_is_t(self, q):
        assert SmallField(q).modulus == (0, 1)

    @pytest.mark.parametrize("q", [q for q in FIELD_SIZES if not is_prime(q)])
    def test_every_smaller_monic_polynomial_is_reducible(self, q):
        F = SmallField(q)
        p, k = F.p, F.k
        assert p ** k == q and F.modulus[-1] == 1 and len(F.modulus) == k + 1
        assert not has_factor(list(F.modulus), p)
        for low in range(F._encode(F.modulus[:k])):
            digits = [(low // p ** i) % p for i in range(k)]
            assert has_factor(digits + [1], p), (q, digits)


def has_factor(f, p):
    """Whether the monic f over GF(p), coefficients ascending, has a monic
    factor of degree 1 to deg f // 2, by long division."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in range(p ** d):
            g = [(low // p ** i) % p for i in range(d)] + [1]
            r = list(f)
            for i in range(n, d - 1, -1):
                c = r[i]
                for j in range(d + 1):
                    r[i - d + j] = (r[i - d + j] - c * g[j]) % p
            if not any(r[:d]):
                return True
    return False


class TestErrors:
    # 10**18 + 3 is a prime: the range is checked before any trial division
    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 15, 37, 49, 64, 10**18 + 3])
    def test_unsupported_sizes(self, q):
        with pytest.raises(UnsupportedField):
            SmallField(q)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            field(5).inv(0)

    def test_cache_returns_same_object(self):
        assert field(8) is field(8)
