"""Permutations on the points 1..n.

Composition convention
----------------------
``a * b`` applies ``a`` first, then ``b``:  ``(a * b)(i) == b(a(i))``.
This matches the usual right-action convention for permutation groups
and is used consistently across the whole library, including coset
actions and matrix-to-permutation constructions.
"""

from __future__ import annotations

import re
from math import lcm
from operator import itemgetter

from .errors import DegreeMismatch, InvalidPermutation

_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image table of ``a * b`` (a first, then b): one ``itemgetter`` picks
    a's images from b shifted by one place.  At degree 1 both are (1,), and
    a one-key ``itemgetter`` would return a bare int."""
    return itemgetter(*a)((0,) + b) if len(a) > 1 else b


class Permutation:
    """An immutable permutation of {1, ..., degree}, stored as an image table."""

    __slots__ = ("_images",)

    def __init__(self, images):
        img = tuple(images)
        if not img:
            raise InvalidPermutation("empty image table; degree must be positive")
        if sorted(img) != list(range(1, len(img) + 1)):
            raise InvalidPermutation(f"not an image table over 1..{len(img)}: {img!r}")
        self._images = img

    # -- construction ------------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like ``(1 2 3)(4 5)``.

        Whitespace and commas between points are both accepted.  The
        identity is written ``()``.  Unless ``degree`` is given the degree
        is the largest point mentioned (at least 1).
        """
        stripped = text.strip()
        if not stripped:
            raise InvalidPermutation("empty cycle string")
        consumed = 0
        cycles: list[tuple[int, ...]] = []
        for m in _CYCLE_RE.finditer(stripped):
            if stripped[consumed:m.start()].strip():
                raise InvalidPermutation(f"unexpected text in cycle string: {text!r}")
            consumed = m.end()
            body = m.group(1)
            if body.strip():
                points = tuple(int(tok) for tok in re.split(r"[\s,]+", body.strip()))
                cycles.append(points)
        if consumed == 0 or stripped[consumed:].strip():
            raise InvalidPermutation(f"unexpected text in cycle string: {text!r}")
        top = max((max(c) for c in cycles), default=1)
        if degree is None:
            degree = top
        elif degree < top:
            raise InvalidPermutation(f"degree {degree} below largest moved point {top}")
        images = list(range(1, degree + 1))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc) or min(cyc) < 1:
                raise InvalidPermutation(f"bad cycle {cyc!r}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if images[a - 1] != a:
                    raise InvalidPermutation(f"point {a} appears in two cycles")
                images[a - 1] = b
        return cls(images)

    # -- basic protocol ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple[int, ...]:
        return self._images

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self._images):
            raise ValueError(f"point {point} outside 1..{len(self._images)}")
        return self._images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        a, b = self._images, other._images
        if len(a) != len(b):
            raise DegreeMismatch(f"degree {len(a)} vs {len(b)}")
        out = Permutation.__new__(Permutation)
        out._images = compose(a, b)
        return out

    def inverse(self) -> "Permutation":
        img = self._images
        inv = [0] * len(img)
        for i, x in enumerate(img):
            inv[x - 1] = i + 1
        out = Permutation.__new__(Permutation)
        out._images = tuple(inv)
        return out

    def __pow__(self, n: int) -> "Permutation":
        base = self if n >= 0 else self.inverse()
        result = Permutation.identity(self.degree)
        for _ in range(abs(n)):
            result = result * base
        return result

    def conjugate(self, g: "Permutation") -> "Permutation":
        """Return g^-1 * self * g."""
        return g.inverse() * self * g

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __lt__(self, other: "Permutation") -> bool:
        return self._images < other._images

    def __le__(self, other: "Permutation") -> bool:
        return self._images <= other._images

    # -- structure ---------------------------------------------------------

    def is_identity(self) -> bool:
        return all(x == i + 1 for i, x in enumerate(self._images))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, x in enumerate(self._images) if x == i + 1)

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each rotated to start at its smallest point,
        ordered by that point."""
        img = self._images
        seen = [False] * len(img)
        out = []
        for start in range(1, len(img) + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            nxt = img[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt - 1] = True
                nxt = img[nxt - 1]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return tuple(out)

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"
