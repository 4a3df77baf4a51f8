"""Bipartite matching with a failure certificate.

:func:`hall_saturating_matching` returns a matching that saturates the left
side, or a deficient left set ``A'`` with ``|N(A')| < |A'|``.  Left and right
vertices are dense integers, and the engine is deterministic.  Each left
vertex's neighbours are one ``int`` bitset over the right side, so the
search grows a layer by OR-ing rows and picks the next neighbour to try as
the lowest set bit of a mask, in ascending order as a sorted list would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphcore import InputError, bits


@dataclass(frozen=True)
class BipartiteInstance:
    """Bipartite adjacency as bit rows: bit ``b`` of ``adjacency[a]`` is the
    edge between left ``a`` and right ``b``, for ``0 <= b < right_count``.

    Raises:
        InputError: If ``right_count`` is negative or not an ``int``, or a
            row is not a non-negative ``int`` or holds a bit at or above
            ``right_count``.
    """

    adjacency: tuple[int, ...]
    right_count: int

    def __post_init__(self) -> None:
        nr = self.right_count
        if type(nr) is not int or nr < 0:
            raise InputError(f"right_count must be a non-negative int, got {nr!r}")
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

    @property
    def left_count(self) -> int:
        return len(self.adjacency)


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


def _hopcroft_karp(inst: BipartiteInstance) -> tuple[list[int], list[int]]:
    """Maximum matching; returns (match_left, match_right) with -1 for free.

    Each phase layers the left side by alternating distance from the free
    left vertices, as ``layers[d]``: the matched right vertices whose
    partner sits at distance ``d``.  Then a depth-first search from each
    free left vertex, in ascending order, steps from a vertex at distance
    ``d`` to its lowest untried neighbour that is free or in
    ``layers[d + 1]``.  A dead end drops its partner from its layer; an
    augment moves each right vertex on the path to its new partner's layer.
    """
    adj = inst.adjacency
    match_l = [-1] * inst.left_count
    match_r = [-1] * inst.right_count
    free_r = (1 << inst.right_count) - 1
    while True:
        roots = [a for a, b in enumerate(match_l) if b == -1]
        layers = [0]
        layer = roots
        seen = reach = 0
        while layer:
            nbrs = 0
            for a in layer:
                nbrs |= adj[a]
            reach |= nbrs
            new = nbrs & ~free_r & ~seen
            seen |= new
            layers.append(new)
            layer = []
            while new:
                low = new & -new
                layer.append(match_r[low.bit_length() - 1])
                new ^= low
        # The last layer is empty, so layers[d + 1] exists for every d.
        if not reach & free_r:
            return match_l, match_r
        for root in roots:
            lefts = [root]
            rems = [adj[root]]
            picks: list[int] = []
            while lefts:
                d = len(picks)
                cand = rems[d] & (free_r | layers[d + 1])
                if not cand:
                    a = lefts.pop()
                    rems.pop()
                    if picks:
                        picks.pop()
                        layers[d] &= ~(1 << match_l[a])
                    continue
                low = cand & -cand
                rems[d] ^= low
                b = low.bit_length() - 1
                picks.append(b)
                if low & free_r:
                    free_r ^= low
                    for i, (la, rb) in enumerate(zip(lefts, picks)):
                        match_l[la] = rb
                        match_r[rb] = la
                        layers[i] |= 1 << rb
                        if i < d:
                            layers[i + 1] &= ~(1 << rb)
                    break
                lefts.append(match_r[b])
                rems.append(adj[match_r[b]])


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
    match_l, match_r = _hopcroft_karp(inst)
    if all(b != -1 for b in match_l):
        return MatchingResult("matched", tuple(match_l), None, None)
    violator, neighborhood = _deficiency_certificate(inst, match_l, match_r)
    return MatchingResult("deficient", None, violator, neighborhood)
