"""Bipartite matching with a failure certificate.

:func:`hall_saturating_matching` returns a matching that saturates the left
side, or a deficient left set ``A'`` with ``|N(A')| < |A'|``.  Left and right
vertices are dense integers, and the engine is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphcore import InputError

_INF = float("inf")


@dataclass(frozen=True)
class BipartiteInstance:
    """Bipartite adjacency: ``adjacency[a]`` lists the right neighbors of ``a``."""

    adjacency: tuple[tuple[int, ...], ...]
    right_count: int

    def __post_init__(self) -> None:
        for a, row in enumerate(self.adjacency):
            for b in row:
                if not (0 <= b < self.right_count):
                    raise InputError(
                        f"right vertex {b} of left {a} out of range "
                        f"({self.right_count} right vertices)"
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
    """Maximum matching; returns (match_left, match_right) with -1 for free."""
    nl, nr = inst.left_count, inst.right_count
    match_l = [-1] * nl
    match_r = [-1] * nr
    adj = inst.adjacency
    dist = [0.0] * nl

    def bfs() -> bool:
        q: deque[int] = deque()
        for a in range(nl):
            if match_l[a] == -1:
                dist[a] = 0.0
                q.append(a)
            else:
                dist[a] = _INF
        reachable_free = False
        while q:
            a = q.popleft()
            for b in adj[a]:
                nxt = match_r[b]
                if nxt == -1:
                    reachable_free = True
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[a] + 1
                    q.append(nxt)
        return reachable_free

    # Phase DFS with an explicit stack to stay safe on large inputs.
    def dfs_iter(root: int) -> bool:
        stack: list[tuple[int, int]] = [(root, 0)]
        path: list[tuple[int, int]] = []  # (left, right) tentative pairs
        while stack:
            a, idx = stack.pop()
            row = adj[a]
            advanced = False
            while idx < len(row):
                b = row[idx]
                idx += 1
                nxt = match_r[b]
                if nxt == -1:
                    # Augment along the tentative path plus this edge.
                    match_l[a] = b
                    match_r[b] = a
                    for la, rb in reversed(path):
                        match_l[la] = rb
                        match_r[rb] = la
                    return True
                if dist[nxt] == dist[a] + 1:
                    stack.append((a, idx))
                    path.append((a, b))
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                dist[a] = _INF
                if path:
                    path.pop()
        return False

    while bfs():
        for a in range(nl):
            if match_l[a] == -1:
                dfs_iter(a)
    return match_l, match_r


def _deficiency_certificate(
    inst: BipartiteInstance, match_l: list[int], match_r: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating-reachability certificate from the free left vertices.

    The left vertices reachable by alternating paths from any unmatched left
    vertex form a set whose neighborhood consists exactly of their matched
    partners, hence is strictly smaller.
    """
    nl = inst.left_count
    seen_l = [False] * nl
    seen_r = [False] * inst.right_count
    q: deque[int] = deque()
    for a in range(nl):
        if match_l[a] == -1:
            seen_l[a] = True
            q.append(a)
    while q:
        a = q.popleft()
        for b in inst.adjacency[a]:
            if not seen_r[b]:
                seen_r[b] = True
                nxt = match_r[b]
                if nxt != -1 and not seen_l[nxt]:
                    seen_l[nxt] = True
                    q.append(nxt)
    violator = tuple(a for a in range(nl) if seen_l[a])
    neighborhood = tuple(b for b in range(inst.right_count) if seen_r[b])
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
