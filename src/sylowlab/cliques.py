"""Exact maximum clique search on bitset graphs.

Graphs are given as loop-free adjacency bitmasks: adj[v] has bit w set
iff v and w are joined.  The clique solver is branch and bound with a
greedy-coloring upper bound.  Its preprocessing reads each row once as
a list of the positions on its short side (the non-neighbours of a
dense row, the neighbours of a sparse one) and works on these lists
from then on.  It is deterministic.
"""

from __future__ import annotations

from itertools import compress

from .errors import OutOfDomain

_BITS = bytes.maketrans(b"01", b"\0\1")
_BIT = (1).__lshift__


def _bits(row: int, n: int) -> bytes:
    """Bit i of an n-bit row as byte i, 0 or 1."""
    return f"{row:0{n}b}"[::-1].encode().translate(_BITS)


def _positions(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _short_sides(adj: list[int], n: int, reps: list[int]) -> list[tuple[int, list[int]]]:
    """The short side of each row of the subgraph on the vertices in reps.

    Entry i, for vertex reps[i], is (1, non-neighbours) for a dense row
    or (-1, neighbours) for a sparse one, with vertex reps[j] numbered
    j.  A row's positions are picked from its bytes by ``compress``, one
    pass in C over its n bits, where a loop over the set bits of a row
    near half density costs several times as much.
    """
    m = len(reps)
    keep = sum(map(_BIT, reps))
    new = [0] * n
    for i, v in enumerate(reps):
        new[v] = i
    sides = []
    for v in reps:
        row = adj[v] & keep
        if 2 * row.bit_count() > m - 1:
            sides.append((1, list(compress(new, _bits(keep ^ row ^ 1 << v, n)))))
        else:
            sides.append((-1, list(compress(new, _bits(row, n)))))
    return sides


def _relabel(sides: list[tuple[int, list[int]]],
             order: list[int]) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """The graph with vertex order[i] renumbered i: its rows and sides.

    A row is written as binary digits, all 1 for a dense row and all 0
    for a sparse one, then flipped at its list's positions; a dense
    row's own digit is set to 0.
    """
    m = len(order)
    new = [0] * m
    for i, v in enumerate(order):
        new[v] = i
    at = new.__getitem__
    rows = []
    out = []
    for i, v in enumerate(order):
        step, ws = sides[v]
        ws = list(map(at, ws))
        digits = bytearray(b"1" * m if step > 0 else b"0" * m)
        flip = 48 if step > 0 else 49
        for w in ws:
            digits[w] = flip
        digits[i] = 48
        digits.reverse()
        rows.append(int(digits, 2))
        out.append((step, ws))
    return rows, out


def _remove(deg: list[int], side: tuple[int, list[int]]) -> None:
    """Lower deg by one at each neighbour of a removed vertex.

    A kept degree is the true one plus a shared offset, the number of
    dense vertices removed so far.  Removing a dense vertex lowers every
    other degree by one, which is the offset and leaves the minimum and
    the maximum where they are, so only its non-neighbours are raised,
    back by one.
    """
    step, ws = side
    for w in ws:
        deg[w] += step


def _degeneracy_order(m: int, sides: list[tuple[int, list[int]]]) -> list[int]:
    """Vertices in smallest-last order; reversing it colors dense parts first.

    Each step removes the vertex of least degree among those left, the
    lowest-numbered one on a tie.  Degrees are kept in a list, updated
    by ``_remove`` through each removed vertex's short side; the removed
    vertex is parked at 2m.  After r removals a live vertex has at most
    m - 1 - r neighbours left and the offset is at most r, so its kept
    degree is at most m - 1; a parked degree falls by at most one per
    removal, so it stays at m or above.
    """
    deg = [m - 1 - len(ws) if step > 0 else len(ws) for step, ws in sides]
    out = []
    for _ in range(m):
        v = deg.index(min(deg))
        out.append(v)
        _remove(deg, sides[v])
        deg[v] = 2 * m
    out.reverse()
    return out


def max_clique(n: int, adj: list[int]) -> tuple[int, tuple[int, ...]]:
    """Size and vertex set of a maximum clique.

    Twin vertices are merged first and the rest relabeled in degeneracy
    order.  After the merge each row is read once for its short side
    (``_short_sides``): a dense row becomes the list of its
    non-neighbours, a sparse row the list of its neighbours.  The
    degeneracy order, the relabeled rows (``_relabel``) and the degree
    updates of the greedy warm start (``_remove``) all come from these
    lists, so each touches only a row's short side.  Candidates are
    greedily colored each step; a branch is cut when the current clique
    plus the color count cannot beat the incumbent, which is seeded with
    a greedy clique.  A row with its own bit (a loop) raises
    OutOfDomain: the greedy seed would never shrink its candidates.
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
    sides = _short_sides(adj, n, reps)
    label = _degeneracy_order(m, sides)
    back = [reps[v] for v in label]
    g, sides = _relabel(sides, label)

    # greedy warm start: always take the candidate of highest residual
    # degree, the lowest-numbered one on a tie; degrees are kept as in
    # _degeneracy_order, with dropped candidates parked at -2m: a live
    # candidate's kept degree is at least the offset, and a parked one
    # gains at most one per dense drop, so it stays below -m
    deg = [row.bit_count() for row in g]
    cand = (1 << m) - 1
    seed = []
    while cand:
        v = deg.index(max(deg))
        seed.append(v)
        gone = cand & ~g[v]
        cand &= g[v]
        for w in _positions(gone):
            _remove(deg, sides[w])
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

