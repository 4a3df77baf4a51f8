"""Bipartite matching with a failure certificate, for the leftover step:
``hamiltonian.match_leftover`` is its one pipeline caller.

:func:`hall_saturating_matching` takes one bit row per left vertex and
returns a matching that saturates the left side, or a deficient left set
``A'`` with ``|N(A')| < |A'|``.  The right side is the union of the rows,
so memory grows with the rows, not with the widest id.  The engine is
deterministic: one augmenting-path search per left vertex, in ascending
order, each picking the next neighbour to try as the lowest set bit of a
mask.  The certificate is the set of left vertices that alternating paths
reach from the free ones, which is the same for every maximum matching.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .graphcore import InputError, bits, check_sequence


@dataclass(frozen=True)
class MatchingResult:
    """Either a left-saturating matching or a Hall-deficiency certificate.

    When ``status == "matched"``, ``pairs`` holds one ``(left, right)`` pair
    per left vertex, in left order.  When ``status == "deficient"``,
    ``violator`` is a left set whose combined neighborhood ``neighborhood``
    is strictly smaller than itself.  A field with nothing to report is
    empty.
    """

    status: str
    pairs: tuple[tuple[int, int], ...]
    violator: tuple[int, ...]
    neighborhood: tuple[int, ...]


def _augmenting_search(
    rows: Sequence[int], free_r: int
) -> tuple[list[int], dict[int, int]]:
    """Maximum matching; returns (match_left, match_right), -1 for a free
    left vertex and no key for a free right one.

    One search per left vertex, in ascending order (Kuhn, 1955).  The search
    keeps its path as the right vertices ``picks`` it entered; from the
    path's last left vertex it steps to the lowest free neighbour and
    augments, or else enters the lowest neighbour it has not entered yet and
    goes on to that neighbour's partner.  A left vertex with neither is a
    dead end, and the search backs up one step.  Where every left vertex has
    a free neighbour on its turn, this is the greedy pass of lowest free
    neighbours.  One search enters each right vertex at most once.  A left
    vertex whose search fails has no augmenting path then or later, so it
    stays free for good and the pass ends with a maximum matching.
    """
    match_l = [-1] * len(rows)
    match_r: dict[int, int] = {}
    for root in range(len(rows)):
        picks: list[int] = []
        entered = 0
        while True:
            row = rows[match_r[picks[-1]] if picks else root]
            free = row & free_r
            if free:
                low = free & -free
                free_r ^= low
                a = root
                for b in picks + [low.bit_length() - 1]:
                    nxt = match_r.get(b, -1)
                    match_l[a], match_r[b] = b, a
                    a = nxt
                break
            cand = row & ~entered
            if cand:
                low = cand & -cand
                entered |= low
                picks.append(low.bit_length() - 1)
            elif picks:
                picks.pop()
            else:
                break
    return match_l, match_r


def _deficiency_certificate(
    rows: Sequence[int], match_l: list[int], match_r: dict[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating-reachability certificate from the free left vertices.

    The left vertices reachable by alternating paths from any unmatched left
    vertex form a set whose neighborhood consists exactly of their matched
    partners, hence is strictly smaller.
    """
    layer = [a for a, b in enumerate(match_l) if b == -1]
    reached = list(layer)
    seen_r = 0
    while layer:
        nbrs = 0
        for a in layer:
            nbrs |= rows[a]
        new = nbrs & ~seen_r
        seen_r |= new
        layer = [match_r[b] for b in bits(new) if b in match_r]
        reached += layer
    violator = tuple(sorted(reached))
    neighborhood = tuple(bits(seen_r))
    if len(neighborhood) >= len(violator):
        raise AssertionError("deficiency certificate failed its own audit")
    return violator, neighborhood


def hall_saturating_matching(rows: Sequence[int]) -> MatchingResult:
    """Left-saturating bipartite matching or a deficient-set certificate.

    Args:
        rows: One bit row per left vertex: bit ``b`` of ``rows[a]`` is the
            edge between left ``a`` and right ``b``.

    Returns:
        ``MatchingResult`` with ``status`` ``"matched"`` (and one pair per
        left vertex) or ``"deficient"`` (and a witness set with
        ``|N(A')| < |A'|``).

    Raises:
        InputError: If ``rows`` is not a sequence or a row is not a
            non-negative plain ``int``.
    """
    check_sequence("rows", rows)
    free_r = 0
    for a, row in enumerate(rows):
        if type(row) is not int or row < 0:
            raise InputError(
                f"row of left {a} must be a non-negative int bitset, got {row!r}"
            )
        free_r |= row
    match_l, match_r = _augmenting_search(rows, free_r)
    if -1 not in match_l:
        return MatchingResult("matched", tuple(enumerate(match_l)), (), ())
    violator, neighborhood = _deficiency_certificate(rows, match_l, match_r)
    return MatchingResult("deficient", (), violator, neighborhood)
