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
    InvalidPermutation,
    UnsupportedDegree,
)
from .gf import field
from .group import PermGroup
from .perm import Permutation

# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class FamilyAtom:
    """One of the lettered families: kind in {S, A, C, D}, n its parameter."""

    kind: str
    n: int
    prec = 3

    def __str__(self) -> str:
        return f"{self.kind}{self.n}"


@dataclass(frozen=True)
class MatrixAtom:
    """SL(2,q), PSL(2,q) or Borel(2,q)."""

    kind: str
    q: int
    prec = 3

    def __str__(self) -> str:
        return f"{self.kind}(2,{self.q})"


@dataclass(frozen=True)
class GensAtom:
    """Explicit generator list in cycle notation, all of one degree."""

    degree: int
    cycles: tuple[str, ...]
    prec = 3

    def __str__(self) -> str:
        return "[" + ", ".join(self.cycles) + "]"


# Both operators are left-associative: a binary node prints its left
# operand bare down to its own precedence and its right operand bare only
# above it, so the printed text parses back to the same tree.

@dataclass(frozen=True)
class Product:
    left: "GroupExpr"
    right: "GroupExpr"
    prec = 1

    def __str__(self) -> str:
        return f"{_wrap(self.left, self.prec)} x {_wrap(self.right, self.prec + 1)}"


@dataclass(frozen=True)
class Wreath:
    base: "GroupExpr"
    top: "GroupExpr"
    prec = 2

    def __str__(self) -> str:
        return f"{_wrap(self.base, self.prec)} wr {_wrap(self.top, self.prec + 1)}"


GroupExpr = FamilyAtom | MatrixAtom | GensAtom | Product | Wreath


def _wrap(e: GroupExpr, need: int) -> str:
    return f"({e})" if e.prec < need else str(e)


# ---------------------------------------------------------------------------
# parser

# one token after optional whitespace; `end` and `bad` make every match succeed
_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z]+)|(?P<num>\d+)|(?P<punct>[(),])"
                    r"|(?P<bracket>\[)|(?P<end>\Z)|(?P<bad>.))")
_FAMILIES = frozenset("SACD")
_MATRIX = frozenset({"SL", "PSL", "Borel"})
# binary operators and their nodes, the loosest first
_OPERATORS = (("x", Product), ("wr", Wreath))


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

    def error(self, message: str, offset: int):
        raise ExprSyntaxError(message, offset)

    def peek(self):
        """(kind, value, offset) of the next token without consuming it."""
        m = _TOKEN.match(self.text, self.pos)
        return m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)

    def take(self):
        kind, value, offset = self.peek()
        if kind == "bad":
            self.error(f"unexpected character {value!r}", offset)
        self.pos = offset + len(value)
        return kind, value, offset

    def expect(self, kind: str, value: str | None = None) -> tuple[str, int]:
        """The next token's value and offset; it must have this kind and value."""
        k, v, offset = self.take()
        if k != kind or value not in (None, v):
            self.error(f"expected {value!r}" if value else "expected a number", offset)
        return v, offset

    def integer(self, digits: str, offset: int) -> int:
        """The value of the digits at ``offset``; more digits than ``int()``
        converts are refused."""
        try:
            return int(digits)
        except ValueError:
            self.error("number too long", offset)

    def number(self) -> int:
        return self.integer(*self.expect("num"))

    def parse(self) -> GroupExpr:
        e, _ = self.binary()
        kind, value, offset = self.peek()
        if kind != "end":
            self.error(f"trailing input {value!r}", offset)
        return e

    def binary(self, level: int = 0) -> tuple[GroupExpr, int]:
        """The operands of ``_OPERATORS[level]`` and above joined left to
        right, with the tree's depth, the number of x and wr nodes on its
        longest path from the root."""
        if level == len(_OPERATORS):
            return self.factor()
        op, node = _OPERATORS[level]
        e, depth = self.binary(level + 1)
        while True:
            kind, value, offset = self.peek()
            if kind != "name" or value != op:
                return e, depth
            self.take()
            right, other = self.binary(level + 1)
            e, depth = node(e, right), max(depth, other) + 1
            if depth > MAX_DEPTH:
                self.error(f"expression deeper than {MAX_DEPTH} x/wr levels", offset)

    def factor(self) -> tuple[GroupExpr, int]:
        kind, value, offset = self.peek()
        if kind == "punct" and value == "(":
            self.nesting += 1
            if self.nesting > MAX_DEPTH:
                self.error(f"parentheses nested deeper than {MAX_DEPTH}", offset)
            self.take()
            inner = self.binary()
            self.expect("punct", ")")
            self.nesting -= 1
            return inner
        if kind not in ("bracket", "name"):
            self.error("expected a group atom", offset)
        self.take()
        if kind == "bracket":
            return self.generator_literal(offset), 0
        return self.atom(value, offset), 0

    def atom(self, name: str, offset: int) -> GroupExpr:
        if name in _MATRIX:
            self.expect("punct", "(")
            two, two_off = self.expect("num")
            if self.integer(two, two_off) != 2:
                self.error("only 2-dimensional matrix groups exist here", two_off)
            self.expect("punct", ",")
            q = self.number()
            self.expect("punct", ")")
            return MatrixAtom(name, q)
        if name in _FAMILIES:
            return FamilyAtom(name, self.number())
        self.error(f"unknown atom {name!r}", offset)

    def generator_literal(self, start: int) -> GensAtom:
        """The list whose `[` is at ``start``; an entry that is no
        permutation is refused at ``start``."""
        end = self.text.find("]", start)
        if end < 0:
            self.error("unterminated generator list", start)
        self.pos = end + 1
        entries, offset = [], start + 1
        # the commas between entries, not those between the points of a cycle
        for part in re.split(r",(?![^()]*\))", self.text[start + 1: end]):
            if not part.strip():
                self.error("empty generator entry", start)
            entries.append((part, "", offset))
            offset += len(part) + 1
        degree, gens = parse_generators(entries, start)
        return GensAtom(degree, tuple(g.cycle_string() for g in gens))


# a point of a cycle string, or what stands in the place of one
_POINT = re.compile(r"[^\s,()]+")


def parse_generators(entries, at: int = 0) -> tuple[int, list[Permutation]]:
    """The degree and the permutations of generators in cycle notation:
    the one rule of generator files and generator literals.

    ``entries`` holds (text, where, offset) for each generator: ``where``
    prefixes its error messages and ``offset`` is the offset of its first
    character.  The degree is the largest point of any entry, at least 1.
    A token that is not a point, or a number too long for ``int()``, is
    refused at its own offset; an entry that is no permutation of that
    degree is refused at ``at``.  Each refusal is an ExprSyntaxError.
    """
    degree = 1
    for text, where, offset in entries:
        for m in _POINT.finditer(text):
            token = m.group()
            if not token.isdecimal():
                raise ExprSyntaxError(f"{where}{token!r} is not a point", offset + m.start())
            try:
                degree = max(degree, int(token))
            except ValueError:
                raise ExprSyntaxError(f"{where}number too long", offset + m.start()) from None
    gens = []
    for text, where, _ in entries:
        try:
            gens.append(Permutation.from_cycles(text, degree))
        except InvalidPermutation as err:
            raise ExprSyntaxError(f"{where}bad permutation {text.strip()!r}: {err}", at) from None
    return degree, gens


def parse_group_expr(text: str) -> GroupExpr:
    """Parse a group expression; raises ExprSyntaxError with a character offset."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# construction

def predicted_order(e: GroupExpr, limit: int | None = None) -> int | None:
    """Order the constructed group must have; None for generator literals.

    With ``limit``, an order past it is refused without being computed in
    full.  A group's order is at least each of its operands', so an
    operand past the limit raises CapExceeded with no ``required`` (the
    message says "more than" the limit), and so does a factorial that
    passes the limit before its last factor or a wreath power whose bit
    length does.  An order computed in full is returned even past the
    limit, for ``construct`` to refuse with the exact figure.
    """
    def operand(child: GroupExpr) -> int | None:
        n = predicted_order(child, limit)
        if limit is not None and n is not None and n > limit:
            raise CapExceeded(_ORDER, None, limit)
        return n

    if isinstance(e, FamilyAtom):
        if e.kind in "SA":
            n = 1
            for k in range(2, e.n + 1):
                # n = (k-1)! here, and S_n and A_n have order at least n * k / 2 >= n
                if limit is not None and n > limit:
                    raise CapExceeded(_ORDER, None, limit)
                n *= k
            return n if e.kind == "S" else max(1, n // 2)
        return e.n  # C, and D, whose parameter is its order
    if isinstance(e, MatrixAtom):
        q = e.q
        if e.kind == "SL":
            return q * (q * q - 1)
        if e.kind == "PSL":
            return q * (q * q - 1) // math.gcd(2, q - 1)
        return q * (q - 1)  # Borel
    if isinstance(e, Product):
        a, b = operand(e.left), operand(e.right)
        return None if a is None or b is None else a * b
    if isinstance(e, Wreath):
        a, b = operand(e.base), operand(e.top)
        if a is None:
            return None
        d = degree_of(e.top)
        # a^d >= 2^((bit length of a - 1) * d), and the limit is below 2^(its bit length)
        if limit is not None and a > 1 and (a.bit_length() - 1) * d >= limit.bit_length():
            raise CapExceeded(_ORDER, None, limit)
        return None if b is None else a ** d * b
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


def _apply(F, mat, v: tuple[int, int]) -> tuple[int, int]:
    """The matrix times the column vector v over F."""
    (m00, m01), (m10, m11) = mat
    a, b = v
    return (F.add(F.mul(m00, a), F.mul(m01, b)),
            F.add(F.mul(m10, a), F.mul(m11, b)))


def _construct_matrix(e: MatrixAtom) -> PermGroup:
    """The matrices acting on a point list: the nonzero vectors for SL and
    Borel, the lines for PSL, each line by its vector with first nonzero
    coordinate 1, to which ``canon`` normalises an image."""
    F, mats = _sl2_matrices(e.q)
    if e.kind == "Borel":  # upper triangular part only
        mats = [m for m in mats if m[1][0] == 0]
    if e.kind == "PSL":
        points = [(1, b) for b in F.elements()] + [(0, 1)]

        def canon(v):
            return (1, F.div(v[1], v[0])) if v[0] != 0 else (0, 1)
    else:
        points = [(a, b) for a in F.elements() for b in F.elements() if (a, b) != (0, 0)]

        def canon(v):
            return v
    index = {v: i for i, v in enumerate(points, 1)}
    return PermGroup(len(points), [
        Permutation(tuple(index[canon(_apply(F, m, v))] for v in points)) for m in mats])


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


_ORDER = "constructed group order"


def construct(e: GroupExpr) -> PermGroup:
    """Build the permutation group an expression denotes.

    The constructed order is checked against the family's closed-form
    order, and against ``config.construct_cap()`` before any heavy work.
    """
    limit = config.construct_cap()
    expected = predicted_order(e, limit)
    if expected is not None:
        config.refuse_above(_ORDER, expected, limit)
    G = _construct(e)
    if expected is None:
        config.refuse_above(_ORDER, G.order(), limit)
    assert expected in (None, G.order()), (str(e), G.order(), expected)
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


def construct_text(text: str) -> PermGroup:
    return construct(parse_group_expr(text))


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

    def build(self) -> PermGroup:
        G = construct(self.expr())
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


CATALOG_BY_LABEL: dict[str, CatalogEntry] = {e.label: e for e in CATALOG}


def catalog_entry(label: str) -> CatalogEntry:
    return CATALOG_BY_LABEL[label]
