"""Exact maximum clique search on bitset graphs.

Graphs are given as loop-free adjacency bitmasks: adj[v] has bit w set
iff v and w are joined.  The clique solver is branch and bound with a
greedy-coloring upper bound; its preprocessing works on whole rows, as
binary strings and byte strings, never bit by bit.  It is deterministic.
"""

from __future__ import annotations

from operator import itemgetter, sub

from .errors import OutOfDomain

_BITS = bytes.maketrans(b"01", b"\0\1")


def _permute(rows: list[int], n: int, order: list[int]) -> list[int]:
    """Each n-bit row with bit i of the result taken from bit order[i].

    A row is written as at least n binary digits, most significant
    first, so bit v is digit -1 - v: the new digits are picked in one
    step and parsed back with ``int``.
    """
    pick = itemgetter(*[-1 - v for v in reversed(order)])
    return [int("".join(pick(f"{row:0{n}b}")), 2) for row in rows]


def _bits(row: int, m: int) -> bytes:
    """Bit i of an m-bit row as byte i, 0 or 1."""
    return f"{row:0{m}b}"[::-1].encode().translate(_BITS)


def _degeneracy_order(m: int, adj: list[int]) -> list[int]:
    """Vertices in smallest-last order; reversing it colors dense parts first.

    Each step removes the vertex of least degree among those left, the
    lowest-numbered one on a tie.  Degrees are kept in a list: the
    removed vertex's row, one byte per bit, is subtracted from it, and
    the vertex itself is parked above every degree still possible.
    """
    deg = [row.bit_count() for row in adj]
    out = []
    for _ in range(m):
        v = deg.index(min(deg))
        out.append(v)
        deg = list(map(sub, deg, _bits(adj[v], m)))
        deg[v] = 2 * m
    out.reverse()
    return out


def max_clique(n: int, adj: list[int]) -> tuple[int, tuple[int, ...]]:
    """Size and vertex set of a maximum clique.

    Twin vertices are merged first and the rest relabeled in degeneracy
    order; each relabeling is one ``_permute`` of the rows.  Candidates are
    greedily colored each step; a branch is cut when the current clique
    plus the color count cannot beat the incumbent, which is seeded with
    a greedy clique.  A row with its own bit (a loop) raises OutOfDomain:
    the greedy seed would never shrink its candidates.
    """
    if any(row >> v & 1 for v, row in enumerate(adj)):
        raise OutOfDomain("loops are not allowed")
    if n == 0:
        return 0, ()
    # twins (equal rows) are non-adjacent and interchangeable in any
    # clique, so only the lowest-numbered vertex of each row is kept
    first: dict[int, int] = {}
    for v, row in enumerate(adj):
        first.setdefault(row, v)
    reps = list(first.values())
    m = len(reps)
    small = _permute([adj[v] for v in reps], n, reps)
    label = _degeneracy_order(m, small)
    back = [reps[v] for v in label]
    g = _permute([small[v] for v in label], m, label)

    # greedy warm start: always take the candidate of highest residual
    # degree, the lowest-numbered one on a tie; degrees are kept as in
    # _degeneracy_order, with dropped candidates parked below zero
    deg = [row.bit_count() for row in g]
    cand = (1 << m) - 1
    seed = []
    while cand:
        v = deg.index(max(deg))
        seed.append(v)
        gone = cand & ~g[v]
        cand &= g[v]
        while gone:
            w = (gone & -gone).bit_length() - 1
            gone &= gone - 1
            deg = list(map(sub, deg, _bits(g[w], m)))
            deg[w] = -2 * m
    best = len(seed)
    best_set = tuple(seed)

    def expand(chosen: list[int], cand: int) -> None:
        nonlocal best, best_set
        if not cand:
            if len(chosen) > best:
                best = len(chosen)
                best_set = tuple(chosen)
            return
        order: list[int] = []
        bounds: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~g[v] & ~(1 << v)
                uncolored &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        for i in range(len(order) - 1, -1, -1):
            if len(chosen) + bounds[i] <= best:
                return
            v = order[i]
            expand(chosen + [v], cand & g[v])
            cand &= ~(1 << v)

    expand([], (1 << m) - 1)
    return best, tuple(sorted(back[v] for v in best_set))

