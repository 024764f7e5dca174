"""Exact minimum set cover over bitmask candidates.

Branch and bound: branch on the uncovered element with the fewest
candidates, seed the incumbent with a greedy cover, and prune with one
lower bound on the sets still needed for the uncovered elements ``rem``:
to beat an incumbent of size ``best`` with ``chosen`` sets already
picked, the ``best - 1 - chosen`` largest gains ``|mask & rem|`` must
sum to at least ``|rem|``, and none may be added once that count is 0
or below.

The bound, and leaving a tried candidate out of later siblings'
subtrees, skip only subtrees that cannot beat the incumbent: the cover
stays.  Everything is deterministic, so results never depend on
iteration order of the caller.
"""

from __future__ import annotations


def _greedy(full: int, masks: list[int]) -> list[int]:
    # the masks cover full (``min_cover`` checks it), so some gain is positive
    chosen = []
    rem = full
    while rem:
        best = max(range(len(masks)), key=lambda i: (masks[i] & rem).bit_count())
        chosen.append(best)
        rem &= ~masks[best]
    return chosen


def min_cover(universe_size: int, masks: list[int]) -> tuple[int, tuple[int, ...]]:
    """Smallest family of candidate sets covering all universe bits.

    Returns (size, indices into ``masks``).  Raises ValueError when some
    element lies in no candidate.
    """
    full = (1 << universe_size) - 1
    if full == 0:
        return 0, ()
    union = 0
    for m in masks:
        union |= m
    if union & full != full:
        raise ValueError("universe is not coverable by the candidates")

    # dominance: an empty candidate, or one inside another, can be dropped
    nonempty = [(i, m & full) for i, m in enumerate(masks) if m & full]
    keep = [(i, mi) for i, mi in nonempty
            if not any((mi | other) == other and (j < i or mi != other)
                       for j, other in nonempty if j != i)]

    kept_masks = [m for _, m in keep]
    greedy = _greedy(full, kept_masks)
    best_size = len(greedy)
    best_sol = [keep[i][0] for i in greedy]

    by_element = [[i for i, m in enumerate(kept_masks) if m >> bit & 1]
                  for bit in range(universe_size)]
    # branching order: fewest candidates first, ties by bit
    branch_order = sorted(range(universe_size), key=lambda b: (len(by_element[b]), b))

    def search(rem: int, chosen: list[int], banned: list[int]) -> None:
        nonlocal best_size, best_sol
        if not rem:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sol = [keep[i][0] for i in chosen]
            return
        gains = [(m & rem).bit_count() for m in kept_masks]
        for i in banned:
            gains[i] = 0
        # a better cover adds at most this many sets; never a negative slice
        room = max(0, best_size - 1 - len(chosen))
        if sum(sorted(gains, reverse=True)[:room]) < rem.bit_count():
            return
        pick = next(b for b in branch_order if rem >> b & 1)
        cands = sorted((i for i in by_element[pick] if gains[i]), key=lambda i: (-gains[i], i))
        for i in cands:
            search(rem & ~kept_masks[i], chosen + [i], banned)
            banned = banned + [i]

    search(full, [], [])
    return best_size, tuple(sorted(best_sol))

