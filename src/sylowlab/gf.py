"""Prime and finite-field arithmetic.

``p_part``, ``is_p_power``, ``least_prime`` and ``check_prime``, the
exact primality test of every entry point that takes a prime; and GF(q)
for every prime power q up to 32.  A field element is an integer
0..q-1: for q = p^k, the coefficients of a polynomial over GF(p) in
base p, least significant first, reduced modulo the least monic
irreducible polynomial of degree k, least by the same encoding (t for a
prime q), so encodings are stable across runs and machines.
"""

from __future__ import annotations

from .errors import OutOfDomain, UnsupportedField


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n; p < 2 is refused."""
    if p < 2:
        raise OutOfDomain(f"p must be at least 2, got {p}")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def is_p_power(n: int, p: int) -> bool:
    return p_part(n, p) == n


def least_prime(n: int) -> int:
    """The least prime dividing n >= 1, or 1 for n = 1."""
    return next((d for d in range(2, n + 1) if n % d == 0), 1)


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> None:
    """Raise OutOfDomain unless p is a prime.

    Library entry points that take a prime call this once, up front;
    ``p_part`` and ``is_p_power`` run once per element and only refuse
    p < 2.  The test is exact and takes a bounded time.  A p at or above
    ``_MR_EXACT_BELOW`` is refused: a prime dividing the order of a
    permutation group is at most its degree, far below that bound.
    """
    if p >= _MR_EXACT_BELOW:
        raise OutOfDomain(f"expected a prime below {_MR_EXACT_BELOW}, got {p}")
    if not _is_prime(p):
        raise OutOfDomain(f"expected a prime, got {p}")


# SL(2,q) and Borel(2,q) act on q^2 - 1 points and no degree limit exists
# yet, so no matrix group goes past SL(2,32) on 1023 points
_MAX_Q = 32


class SmallField:
    """GF(q) with dense add/mul tables and a verified primitive element."""

    __slots__ = ("q", "p", "k", "modulus", "_add", "_mul", "_inv", "_gen")

    def __init__(self, q: int):
        # the range first: least_prime is trial division
        if not 2 <= q <= _MAX_Q or not is_p_power(q, least_prime(q)):
            raise UnsupportedField(f"GF({q}): q must be a prime power from 2 to {_MAX_Q}")
        self.q, self.p, self.k = q, least_prime(q), 1
        while self.p ** self.k < q:
            self.k += 1
        self._add = [[self._poly_add(a, b) for b in range(q)] for a in range(q)]
        for low in range(q):  # t^k plus the polynomial that low encodes, least first
            self.modulus = (*self._digits(low), 1)
            self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
            self._inv = [0] + [row.index(1) for row in self._mul[1:] if 1 in row]
            if len(self._inv) == q:  # every nonzero element is invertible
                break
        self._gen = self._find_generator()

    # ---- encoding helpers -------------------------------------------------

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _encode(self, digits) -> int:
        v = 0
        for c in reversed(list(digits)):
            v = v * self.p + c
        return v

    def _poly_add(self, a: int, b: int) -> int:
        return self._encode(
            (x + y) % self.p for x, y in zip(self._digits(a), self._digits(b)))

    def _poly_mul(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the modulus: t^k = -(lower terms)
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k):
                    prod[i - self.k + j] = (
                        prod[i - self.k + j] - c * self.modulus[j]) % self.p
        return self._encode(prod[: self.k])

    # ---- public arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def elements(self) -> range:
        return range(self.q)

    def generator(self) -> int:
        """A verified generator of the cyclic multiplicative group."""
        return self._gen

    def _find_generator(self) -> int:
        target = self.q - 1
        for g in range(1, self.q):
            seen, x = 1, g
            while x != 1:
                x = self._mul[x][g]
                seen += 1
            if seen == target:
                return g
        raise AssertionError("multiplicative group is not cyclic")

    def __repr__(self) -> str:
        return f"SmallField({self.q})"


_cache: dict[int, SmallField] = {}


def field(q: int) -> SmallField:
    f = _cache.get(q)
    if f is None:
        f = _cache[q] = SmallField(q)
    return f
