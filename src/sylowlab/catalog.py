"""Group expressions, constructors, and the built-in group catalog.

Expression grammar (documented in the README):

    expr   := term ('x' term)*              direct product
    term   := factor ('wr' factor)*         wreath product, imprimitive
    factor := atom | '(' expr ')'
    atom   := 'S' n | 'A' n | 'C' n | 'D' n (n = order, even)
            | 'SL(2,q)' | 'PSL(2,q)' | 'Borel(2,q)'
            | '[' perm (',' perm)* ']'      explicit generator list

Atom degrees: S/A/C act on n points, D on n/2 points, SL and Borel on
the q^2-1 nonzero column vectors, PSL on the q+1 projective points.
A wreath product `B wr T` places one copy of B on each point of T's
representation and lets T permute the copies.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import config
from .errors import (
    CapExceeded,
    ExprSyntaxError,
    UnsupportedDegree,
    UnsupportedField,
)
from .gf import SUPPORTED_SIZES, field
from .group import PermGroup
from .perm import Permutation

# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class FamilyAtom:
    """One of the lettered families: kind in {S, A, C, D}, n its parameter."""

    kind: str
    n: int

    def __str__(self) -> str:
        return f"{self.kind}{self.n}"


@dataclass(frozen=True)
class MatrixAtom:
    """SL(2,q), PSL(2,q) or Borel(2,q)."""

    kind: str
    q: int

    def __str__(self) -> str:
        return f"{self.kind}(2,{self.q})"


@dataclass(frozen=True)
class GensAtom:
    """Explicit generator list in cycle notation, all of one degree."""

    degree: int
    cycles: tuple[str, ...]

    def __str__(self) -> str:
        return "[" + ", ".join(self.cycles) + "]"


@dataclass(frozen=True)
class Product:
    left: "GroupExpr"
    right: "GroupExpr"

    def __str__(self) -> str:
        return f"{_wrap(self.left, 1)} x {_wrap(self.right, 1)}"


@dataclass(frozen=True)
class Wreath:
    base: "GroupExpr"
    top: "GroupExpr"

    def __str__(self) -> str:
        # left-associative: only a right-nested wreath needs parentheses
        lhs = _wrap(self.base, 2)
        rhs = f"({self.top})" if isinstance(self.top, (Product, Wreath)) else str(self.top)
        return f"{lhs} wr {rhs}"


GroupExpr = FamilyAtom | MatrixAtom | GensAtom | Product | Wreath


def _prec(e: GroupExpr) -> int:
    if isinstance(e, Product):
        return 1
    if isinstance(e, Wreath):
        return 2
    return 3


def _wrap(e: GroupExpr, need: int) -> str:
    s = str(e)
    return f"({s})" if _prec(e) < need else s


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<num>\d+)|(?P<punct>[(),]))")
_FAMILIES = frozenset("SACD")
_MATRIX = frozenset({"SL", "PSL", "Borel"})


# The parser and every walk over an expression tree (order prediction,
# construction, printing) recurse a few frames per level, so a tree or a
# parenthesis nesting deeper than this is refused, well inside Python's
# default recursion limit of 1000 frames.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0

    def error(self, message: str, offset: int | None = None):
        raise ExprSyntaxError(
            message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        """(kind, value, offset) of the next token without consuming it."""
        self.skip_ws()
        if self.pos >= len(self.text):
            return "end", "", self.pos
        ch = self.text[self.pos]
        if ch == "[":
            return "bracket", "[", self.pos
        m = _TOKEN.match(self.text, self.pos)
        if not m or m.start(m.lastgroup) != self.pos:
            return "bad", ch, self.pos
        return m.lastgroup, m.group(m.lastgroup), self.pos

    def take(self):
        kind, value, offset = self.peek()
        if kind == "bad":
            self.error(f"unexpected character {value!r}", offset)
        if kind != "end" and kind != "bracket":
            self.pos = offset + len(value)
        return kind, value, offset

    def expect_punct(self, ch: str):
        kind, value, offset = self.take()
        if kind != "punct" or value != ch:
            self.error(f"expected {ch!r}", offset)

    def expect_number(self) -> int:
        kind, value, offset = self.take()
        if kind != "num":
            self.error("expected a number", offset)
        return int(value)

    def parse(self) -> GroupExpr:
        e, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            self.error(f"trailing input {value!r}", offset)
        return e

    # expr, term and factor return an expression with its depth, the
    # number of x and wr nodes on its longest path from the root

    def node_depth(self, depth: int, other: int, offset: int) -> int:
        """Depth of a new x or wr node at offset over two operands."""
        depth = max(depth, other) + 1
        if depth > MAX_DEPTH:
            self.error(f"expression deeper than {MAX_DEPTH} x/wr levels", offset)
        return depth

    def expr(self) -> tuple[GroupExpr, int]:
        e, depth = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "name" and value == "x":
                self.take()
                right, other = self.term()
                e, depth = Product(e, right), self.node_depth(depth, other, offset)
            else:
                return e, depth

    def term(self) -> tuple[GroupExpr, int]:
        e, depth = self.factor()
        while True:
            kind, value, offset = self.peek()
            if kind == "name" and value == "wr":
                self.take()
                top, other = self.factor()
                e, depth = Wreath(e, top), self.node_depth(depth, other, offset)
            else:
                return e, depth

    def factor(self) -> tuple[GroupExpr, int]:
        kind, value, offset = self.peek()
        if kind == "punct" and value == "(":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                self.error(f"parentheses nested deeper than {MAX_DEPTH}", offset)
            self.take()
            inner = self.expr()
            self.expect_punct(")")
            self.nesting -= 1
            return inner
        if kind == "bracket":
            return self.generator_literal(), 0
        if kind == "name":
            return self.atom(), 0
        self.error("expected a group atom", offset)

    def atom(self) -> GroupExpr:
        kind, value, offset = self.take()
        m = re.fullmatch(r"([A-Za-z]+?)(\d*)", value)
        name, digits = m.group(1), m.group(2)
        if name in _MATRIX:
            if digits:
                self.error(f"{name} takes (2,q) arguments", offset)
            self.expect_punct("(")
            k2, v2, two_off = self.take()
            if k2 != "num":
                self.error("expected a number", two_off)
            if int(v2) != 2:
                self.error("only 2-dimensional matrix groups exist here", two_off)
            self.expect_punct(",")
            q = self.expect_number()
            self.expect_punct(")")
            return MatrixAtom(name, q)
        if name in _FAMILIES:
            if digits:
                n = int(digits)
            else:
                n = self.expect_number()
            return FamilyAtom(name, n)
        self.error(f"unknown atom {value!r}", offset)

    def generator_literal(self) -> GensAtom:
        start = self.pos
        end = self.text.find("]", start)
        if end < 0:
            self.error("unterminated generator list", start)
        body = self.text[start + 1: end]
        self.pos = end + 1
        parts = re.split(r",(?![^()]*\))", body)
        cycles = []
        degree = 1
        for part in parts:
            part = part.strip()
            if not part:
                self.error("empty generator entry", start)
            for pt in re.findall(r"\d+", part):
                degree = max(degree, int(pt))
            cycles.append(part)
        perms = []
        for part in cycles:
            try:
                perms.append(Permutation.from_cycles(part, degree))
            except Exception:
                self.error(f"bad permutation {part!r}", start)
        return GensAtom(degree, tuple(str(x.cycle_string()) for x in perms))


def parse_group_expr(text: str) -> GroupExpr:
    """Parse a group expression; raises ExprSyntaxError with a byte offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# construction

def predicted_order(e: GroupExpr) -> int | None:
    """Order the constructed group must have; None for generator literals."""
    if isinstance(e, FamilyAtom):
        if e.kind == "S":
            return math.factorial(e.n)
        if e.kind == "A":
            return max(1, math.factorial(e.n) // 2)
        if e.kind == "C":
            return e.n
        return e.n  # D: parameter is the order itself
    if isinstance(e, MatrixAtom):
        q = e.q
        if e.kind == "SL":
            return q * (q * q - 1)
        if e.kind == "PSL":
            return q * (q * q - 1) // math.gcd(2, q - 1)
        return q * (q - 1)  # Borel
    if isinstance(e, Product):
        a, b = predicted_order(e.left), predicted_order(e.right)
        return None if a is None or b is None else a * b
    if isinstance(e, Wreath):
        a, b = predicted_order(e.base), predicted_order(e.top)
        if a is None or b is None:
            return None
        return a ** degree_of(e.top) * b
    return None


def degree_of(e: GroupExpr) -> int:
    if isinstance(e, FamilyAtom):
        if e.kind == "D":
            return e.n // 2
        return e.n
    if isinstance(e, MatrixAtom):
        return e.q + 1 if e.kind == "PSL" else e.q * e.q - 1
    if isinstance(e, GensAtom):
        return e.degree
    if isinstance(e, Product):
        return degree_of(e.left) + degree_of(e.right)
    return degree_of(e.base) * degree_of(e.top)


def _shift(x: Permutation, offset: int, degree: int) -> Permutation:
    images = list(range(1, degree + 1))
    for i, img in enumerate(x.images):
        images[offset + i] = offset + img
    return Permutation(tuple(images))


def _sl2_matrices(q: int):
    """Generating matrices for SL(2,q): unipotents and the torus element."""
    F = field(q)
    a = F.generator()
    mats = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    if F.k > 1:
        mats += [((1, a), (0, 1)), ((1, 0), (a, 1))]
    if q > 2:
        mats.append(((a, 0), (0, F.inv(a))))
    return F, mats


def _vector_points(q: int):
    F = field(q)
    vecs = [(a, b) for a in F.elements() for b in F.elements() if (a, b) != (0, 0)]
    return F, vecs, {v: i for i, v in enumerate(vecs)}


def _matrix_perm(F, mat, vecs, index) -> Permutation:
    (m00, m01), (m10, m11) = mat
    images = []
    for a, b in vecs:
        w = (F.add(F.mul(m00, a), F.mul(m01, b)),
             F.add(F.mul(m10, a), F.mul(m11, b)))
        images.append(index[w] + 1)
    return Permutation(tuple(images))


def _projective_perm(F, mat, reps, index) -> Permutation:
    (m00, m01), (m10, m11) = mat
    images = []
    for a, b in reps:
        wa = F.add(F.mul(m00, a), F.mul(m01, b))
        wb = F.add(F.mul(m10, a), F.mul(m11, b))
        # normalize the image line to its canonical representative
        if wa != 0:
            wa, wb = 1, F.div(wb, wa)
        else:
            wb = 1
        images.append(index[wa, wb] + 1)
    return Permutation(tuple(images))


def _construct_matrix(e: MatrixAtom) -> PermGroup:
    q = e.q
    if q not in SUPPORTED_SIZES:
        raise UnsupportedField(f"GF({q}) is not in the field table")
    F, mats = _sl2_matrices(q)
    if e.kind == "PSL":
        reps = [(1, b) for b in F.elements()] + [(0, 1)]
        index = {v: i for i, v in enumerate(reps)}
        return PermGroup(q + 1, [_projective_perm(F, m, reps, index) for m in mats])
    if e.kind == "Borel":  # upper triangular part only
        mats = [m for m in mats if m[1][0] == 0]
    _, vecs, index = _vector_points(q)
    return PermGroup(q * q - 1, [_matrix_perm(F, m, vecs, index) for m in mats])


def _construct_family(e: FamilyAtom) -> PermGroup:
    n = e.n
    if e.kind == "D":
        if n < 6 or n % 2:
            raise UnsupportedDegree(
                "dihedral parameter is the group order: even, at least 6")
        m = n // 2
        rot = Permutation(tuple(list(range(2, m + 1)) + [1]))
        flip = Permutation(tuple(m + 1 - i for i in range(1, m + 1)))
        return PermGroup(m, [rot, flip])
    if n < 1:
        raise UnsupportedDegree("family parameter must be at least 1")
    if e.kind == "C":
        return PermGroup(n, [Permutation(tuple(list(range(2, n + 1)) + [1]))])
    if e.kind == "S":
        if n == 1:
            return PermGroup(1, [])
        gens = [Permutation(tuple(list(range(2, n + 1)) + [1]))]
        if n > 2:
            gens.append(Permutation.from_cycles("(1 2)", n))
        return PermGroup(n, gens)
    # alternating
    if n <= 2:
        return PermGroup(n, [])
    if n == 3:
        return PermGroup(3, [Permutation((2, 3, 1))])
    if n % 2:
        cyc = Permutation(tuple(list(range(2, n + 1)) + [1]))
    else:
        cyc = Permutation(tuple([1] + list(range(3, n + 1)) + [2]))
    return PermGroup(n, [cyc, Permutation.from_cycles("(1 2 3)", n)])


# orders are computed from a stabilizer chain, never by enumeration, so
# construction tolerates far larger groups than element-level operations
_CONSTRUCT_CAP = 10 ** 9


def construct(e: GroupExpr, cap: int | None = None) -> PermGroup:
    """Build the permutation group an expression denotes.

    The constructed order is checked against the family's closed-form
    order, and against a generous order cap before any heavy work.
    """
    limit = cap if cap is not None else max(_CONSTRUCT_CAP, config.element_cap(None))
    expected = predicted_order(e)
    if expected is not None and expected > limit:
        raise CapExceeded("constructed group order", expected, limit)
    G = _construct(e)
    if expected is not None:
        assert G.order() == expected, (str(e), G.order(), expected)
    elif G.order() > limit:
        raise CapExceeded("constructed group order", G.order(), limit)
    return G


def _construct(e: GroupExpr) -> PermGroup:
    if isinstance(e, FamilyAtom):
        return _construct_family(e)
    if isinstance(e, MatrixAtom):
        return _construct_matrix(e)
    if isinstance(e, GensAtom):
        return PermGroup(
            e.degree,
            [Permutation.from_cycles(c, e.degree) for c in e.cycles])
    if isinstance(e, Product):
        L = _construct(e.left)
        R = _construct(e.right)
        d = L.degree + R.degree
        gens = [_shift(x, 0, d) for x in L.generators]
        gens += [_shift(x, L.degree, d) for x in R.generators]
        return PermGroup(d, gens)
    base = _construct(e.base)
    top = _construct(e.top)
    db, dt = base.degree, top.degree
    d = db * dt
    gens = [_shift(x, j * db, d) for j in range(dt) for x in base.generators]
    for t in top.generators:
        images = [0] * d
        for j in range(dt):
            tgt = (t(j + 1) - 1) * db
            for i in range(db):
                images[j * db + i] = tgt + i + 1
        gens.append(Permutation(tuple(images)))
    return PermGroup(d, gens)


def construct_text(text: str, cap: int | None = None) -> PermGroup:
    return construct(parse_group_expr(text), cap)


# ---------------------------------------------------------------------------
# the catalog

@dataclass(frozen=True)
class CatalogEntry:
    """A named group with hand-curated bound-exclusion metadata.

    ``dirty_primes`` lists the odd primes p for which the group (or the
    subgroup generated by its p-elements) has a factor group isomorphic
    to an alternating group A_m with p+1 < m < p^2-p, or to SL(2,p+1)
    with p+1 a power of two. For those primes only the generic ratio and
    orbit bounds apply; for all other primes the refined bounds do too.
    """

    label: str
    expr_text: str
    order: int
    dirty_primes: frozenset[int] = frozenset()

    def expr(self) -> GroupExpr:
        return parse_group_expr(self.expr_text)

    def build(self, cap: int | None = None) -> PermGroup:
        G = construct(self.expr(), cap)
        assert G.order() == self.order, (self.label, G.order(), self.order)
        return G

    def exclusions_clear(self, p: int) -> bool:
        return p not in self.dirty_primes


def _e(label, expr_text, order, dirty=()):
    return CatalogEntry(label, expr_text, order, frozenset(dirty))


_Q8 = "[(1 2 3 4)(5 6 7 8), (1 5 3 7)(2 8 4 6)]"
_F21 = "[(1 2 3 4 5 6 7), (2 3 5)(4 7 6)]"

CATALOG: tuple[CatalogEntry, ...] = (
    _e("C2", "C2", 2),
    _e("C3", "C3", 3),
    _e("C4", "C4", 4),
    _e("V4", "C2 x C2", 4),
    _e("C5", "C5", 5),
    _e("C6", "C6", 6),
    _e("S3", "S3", 6),
    _e("C7", "C7", 7),
    _e("C8", "C8", 8),
    _e("D8", "D8", 8),
    _e("Q8", _Q8, 8),
    _e("E8", "C2 x C2 x C2", 8),
    _e("C2xC4", "C2 x C4", 8),
    _e("C2wrC2", "C2 wr C2", 8),
    _e("C9", "C9", 9),
    _e("C3xC3", "C3 x C3", 9),
    _e("D10", "D10", 10),
    _e("C12", "C12", 12),
    _e("D12", "D12", 12),
    _e("A4", "A4", 12),
    _e("Borel(2,4)", "Borel(2,4)", 12),
    _e("D14", "D14", 14),
    _e("F21", _F21, 21),
    _e("S4", "S4", 24),
    _e("SL(2,3)", "SL(2,3)", 24),
    _e("A4xC2", "A4 x C2", 24),
    _e("C5xC5", "C5 x C5", 25),
    _e("S3xS3", "S3 x S3", 36),
    _e("Borel(2,8)", "Borel(2,8)", 56),
    _e("A5", "A5", 60, {3}),
    _e("SL(2,4)", "SL(2,4)", 60, {3}),
    _e("PSL(2,5)", "PSL(2,5)", 60, {3}),
    _e("Borel(2,9)", "Borel(2,9)", 72),
    _e("C3wrC3", "C3 wr C3", 81),
    _e("SL(2,5)", "SL(2,5)", 120, {3}),
    _e("S5", "S5", 120, {3}),
    _e("PSL(2,7)", "PSL(2,7)", 168),
    _e("A6", "A6", 360),
    _e("SL(2,8)", "SL(2,8)", 504, {7}),
    _e("A8", "A8", 20160, {5}),
    _e("A9", "A9", 181440, {5, 7}),
)


def catalog_upto(max_order: int) -> tuple[CatalogEntry, ...]:
    return tuple(e for e in CATALOG if e.order <= max_order)


def catalog_entry(label: str) -> CatalogEntry:
    for e in CATALOG:
        if e.label == label:
            return e
    raise KeyError(label)
