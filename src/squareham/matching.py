"""Bipartite matching with a failure certificate, for the leftover step:
``hamiltonian.match_leftover`` is its one pipeline caller.

:func:`hall_saturating_matching` returns a matching that saturates the left
side, or a deficient left set ``A'`` with ``|N(A')| < |A'|``.  Left and right
vertices are dense integers, and the engine is deterministic: one
augmenting-path search per left vertex, in ascending order.  Each left
vertex's neighbours are one ``int`` bitset over the right side, so a search
picks the next neighbour to try as the lowest set bit of a mask, in
ascending order as a sorted list would.  The certificate is the set of left
vertices that alternating paths reach from the free ones, which is the same
for every maximum matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import InputError, bits, check_sequence, check_vertex_count


@dataclass(frozen=True)
class BipartiteInstance:
    """Bipartite adjacency as bit rows: bit ``b`` of ``adjacency[a]`` is the
    edge between left ``a`` and right ``b``, for ``0 <= b < right_count``.

    Raises:
        InputError: If the rows are not a sequence, ``right_count`` is not
            a count, or a row is not a non-negative ``int`` or holds a bit
            at or above ``right_count``.
    """

    adjacency: tuple[int, ...]
    right_count: int

    def __post_init__(self) -> None:
        check_sequence("adjacency", self.adjacency)
        nr = check_vertex_count("right_count", self.right_count)
        object.__setattr__(self, "right_count", nr)
        for a, row in enumerate(self.adjacency):
            if type(row) is not int or row < 0:
                raise InputError(
                    f"row of left {a} must be a non-negative int bitset, got {row!r}"
                )
            if row >> nr:
                raise InputError(
                    f"right vertex {row.bit_length() - 1} of left {a} out of range "
                    f"({nr} right vertices)"
                )


@dataclass(frozen=True)
class MatchingResult:
    """Either a left-saturating matching or a Hall-deficiency certificate.

    When ``status == "matched"``, ``pairs[a]`` is the partner of left ``a``.
    When ``status == "deficient"``, ``violator`` is a left set whose combined
    neighborhood ``neighborhood`` is strictly smaller than itself.
    """

    status: str
    pairs: tuple[int, ...] | None
    violator: tuple[int, ...] | None
    neighborhood: tuple[int, ...] | None


def _augmenting_search(inst: BipartiteInstance) -> tuple[list[int], list[int]]:
    """Maximum matching; returns (match_left, match_right) with -1 for free.

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
    adj = inst.adjacency
    match_l = [-1] * len(adj)
    match_r = [-1] * inst.right_count
    free_r = (1 << inst.right_count) - 1
    for root in range(len(adj)):
        picks: list[int] = []
        entered = 0
        while True:
            row = adj[match_r[picks[-1]] if picks else root]
            free = row & free_r
            if free:
                low = free & -free
                free_r ^= low
                a = root
                for b in picks + [low.bit_length() - 1]:
                    nxt = match_r[b]
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
    inst: BipartiteInstance, match_l: list[int], match_r: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating-reachability certificate from the free left vertices.

    The left vertices reachable by alternating paths from any unmatched left
    vertex form a set whose neighborhood consists exactly of their matched
    partners, hence is strictly smaller.
    """
    adj = inst.adjacency
    layer = [a for a, b in enumerate(match_l) if b == -1]
    reached = list(layer)
    seen_r = 0
    while layer:
        nbrs = 0
        for a in layer:
            nbrs |= adj[a]
        new = nbrs & ~seen_r
        seen_r |= new
        layer = [match_r[b] for b in bits(new) if match_r[b] != -1]
        reached += layer
    violator = tuple(sorted(reached))
    neighborhood = tuple(bits(seen_r))
    if len(neighborhood) >= len(violator):
        raise AssertionError("deficiency certificate failed its own audit")
    return violator, neighborhood


def hall_saturating_matching(inst: BipartiteInstance) -> MatchingResult:
    """Left-saturating bipartite matching or a deficient-set certificate.

    Returns:
        ``MatchingResult`` with ``status`` ``"matched"`` (and one partner per
        left vertex) or ``"deficient"`` (and a witness set with
        ``|N(A')| < |A'|``).
    """
    if not isinstance(inst, BipartiteInstance):
        raise InputError(f"expected a BipartiteInstance, got {type(inst).__name__}")
    match_l, match_r = _augmenting_search(inst)
    if all(b != -1 for b in match_l):
        return MatchingResult("matched", tuple(match_l), None, None)
    violator, neighborhood = _deficiency_certificate(inst, match_l, match_r)
    return MatchingResult("deficient", None, violator, neighborhood)
