"""Arithmetic in small finite fields GF(q).

Elements are integers 0..q-1. For q = p^k the integer encodes the
coefficient vector of a polynomial over GF(p) in base p, least
significant coefficient first, reduced modulo a fixed irreducible
modulus. The moduli are pinned so that element encodings are stable
across runs and machines.
"""

from __future__ import annotations

from .errors import UnsupportedField

# modulus polynomials, coefficient list ascending, leading term included
_MODULI = {
    4: (2, (1, 1, 1)),          # t^2 + t + 1
    8: (2, (1, 1, 0, 1)),       # t^3 + t + 1
    9: (3, (1, 0, 1)),          # t^2 + 1
    16: (2, (1, 1, 0, 0, 1)),   # t^4 + t + 1
    32: (2, (1, 0, 1, 0, 0, 1)),  # t^5 + t^2 + 1
}

_PRIMES = (2, 3, 5, 7, 11, 13)

SUPPORTED_SIZES = tuple(sorted(_PRIMES + tuple(_MODULI)))


class SmallField:
    """GF(q) with dense add/mul tables and a verified primitive element."""

    __slots__ = ("q", "p", "k", "modulus", "_add", "_mul", "_inv", "_gen")

    def __init__(self, q: int):
        if q in _PRIMES:
            p, mod = q, (0, 1)
            k = 1
        elif q in _MODULI:
            p, coeffs = _MODULI[q]
            mod = coeffs
            k = len(coeffs) - 1
        else:
            raise UnsupportedField(f"GF({q}) is not in the field table")
        self.q = q
        self.p = p
        self.k = k
        self.modulus = tuple(mod)
        self._add = [[self._poly_add(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[self._poly_mul(a, b) for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
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

    def neg(self, a: int) -> int:
        return self._encode((-x) % self.p for x in self._digits(a))

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

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
