from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis.strategies import data, floats, integers

from squareham import (
    BipartiteInstance,
    InputError,
    hall_saturating_matching,
    rng_for,
)
from squareham.graphcore import bits


def random_instance(seed: int, max_side: int = 6) -> BipartiteInstance:
    rng = rng_for(seed, 21)
    left = int(rng.integers(0, max_side + 1))
    right = int(rng.integers(0, max_side + 1))
    adjacency = tuple(
        sum(1 << v for v in range(right) if rng.random() < 0.45)
        for _ in range(left)
    )
    return BipartiteInstance(adjacency, right)


def saturating_matching_exists(inst: BipartiteInstance) -> bool:
    """Backtracking over all left-to-right assignments."""

    def place(i: int, used: set[int]) -> bool:
        if i == len(inst.adjacency):
            return True
        return any(
            v not in used and place(i + 1, used | {v})
            for v in bits(inst.adjacency[i])
        )

    return place(0, set())


def neighborhood(inst: BipartiteInstance, subset: tuple[int, ...]) -> set[int]:
    out: set[int] = set()
    for i in subset:
        out.update(bits(inst.adjacency[i]))
    return out


def list_hopcroft_karp(
    adj: list[list[int]], nr: int
) -> tuple[list[int], list[int]]:
    """The engine over ascending neighbour lists, as a reference for the
    bit-row engine: the same phases, roots and scan order."""
    inf = float("inf")
    nl = len(adj)
    match_l = [-1] * nl
    match_r = [-1] * nr
    dist = [0.0] * nl

    def bfs() -> bool:
        q: deque[int] = deque()
        for a in range(nl):
            if match_l[a] == -1:
                dist[a] = 0.0
                q.append(a)
            else:
                dist[a] = inf
        reachable_free = False
        while q:
            a = q.popleft()
            for b in adj[a]:
                nxt = match_r[b]
                if nxt == -1:
                    reachable_free = True
                elif dist[nxt] == inf:
                    dist[nxt] = dist[a] + 1
                    q.append(nxt)
        return reachable_free

    def dfs_iter(root: int) -> bool:
        stack: list[tuple[int, int]] = [(root, 0)]
        path: list[tuple[int, int]] = []
        while stack:
            a, idx = stack.pop()
            row = adj[a]
            advanced = False
            while idx < len(row):
                b = row[idx]
                idx += 1
                nxt = match_r[b]
                if nxt == -1:
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
                dist[a] = inf
                if path:
                    path.pop()
        return False

    while bfs():
        for a in range(nl):
            if match_l[a] == -1:
                dfs_iter(a)
    return match_l, match_r


def list_deficiency_certificate(
    adj: list[list[int]], nr: int, match_l: list[int], match_r: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alternating reachability from the free left vertices, over lists."""
    nl = len(adj)
    seen_l = [False] * nl
    seen_r = [False] * nr
    q: deque[int] = deque()
    for a in range(nl):
        if match_l[a] == -1:
            seen_l[a] = True
            q.append(a)
    while q:
        a = q.popleft()
        for b in adj[a]:
            if not seen_r[b]:
                seen_r[b] = True
                nxt = match_r[b]
                if nxt != -1 and not seen_l[nxt]:
                    seen_l[nxt] = True
                    q.append(nxt)
    violator = tuple(a for a in range(nl) if seen_l[a])
    neighborhood = tuple(b for b in range(nr) if seen_r[b])
    return violator, neighborhood


@given(integers(min_value=0, max_value=2**31 - 1))
def test_matching_status_agrees_with_backtracking_existence(seed: int) -> None:
    inst = random_instance(seed)
    result = hall_saturating_matching(inst)
    assert (result.status == "matched") == saturating_matching_exists(inst)


@given(integers(min_value=0, max_value=2**31 - 1))
def test_matched_witness_is_a_saturating_matching(seed: int) -> None:
    inst = random_instance(seed)
    result = hall_saturating_matching(inst)
    if result.status != "matched":
        return
    assert len(result.pairs) == len(inst.adjacency)
    assert len(set(result.pairs)) == len(result.pairs)
    for i, v in enumerate(result.pairs):
        assert inst.adjacency[i] >> v & 1


@given(integers(min_value=0, max_value=2**31 - 1))
def test_deficient_witness_violates_the_expansion_bound(seed: int) -> None:
    inst = random_instance(seed)
    result = hall_saturating_matching(inst)
    if result.status != "deficient":
        return
    assert result.violator
    nbhd = neighborhood(inst, result.violator)
    assert set(result.neighborhood) == nbhd
    assert len(nbhd) < len(result.violator)


@settings(max_examples=300)
@given(
    integers(min_value=0, max_value=25),
    integers(min_value=0, max_value=40),
    floats(min_value=0.0, max_value=1.0),
    data(),
)
def test_bit_rows_match_exactly_as_the_list_engine_does(nl, nr, p, data) -> None:
    seed = data.draw(integers(min_value=0, max_value=2**31 - 1))
    rng = rng_for(seed, 22)
    rows = tuple(
        sum(1 << b for b in range(nr) if rng.random() < p) for _ in range(nl)
    )
    result = hall_saturating_matching(BipartiteInstance(rows, nr))
    adj = [bits(row) for row in rows]
    match_l, match_r = list_hopcroft_karp(adj, nr)
    if all(b != -1 for b in match_l):
        assert (result.status, result.pairs) == ("matched", tuple(match_l))
        return
    assert result.status == "deficient"
    assert (result.violator, result.neighborhood) == list_deficiency_certificate(
        adj, nr, match_l, match_r
    )


def test_matching_rejects_out_of_range_adjacency() -> None:
    with pytest.raises(InputError, match="right vertex 3 of left 0 out of range"):
        hall_saturating_matching(BipartiteInstance((1 << 3,), 2))


@pytest.mark.parametrize(
    "rows, right_count",
    [
        ((0,), -1),
        ((), -1),
        ((), 2.0),
        ((), True),
        ((3, -1), 4),
        (((0, 1),), 2),
        ((1.0,), 2),
        ((True,), 2),
    ],
)
def test_matching_rejects_malformed_rows_and_counts(rows, right_count) -> None:
    with pytest.raises(InputError):
        BipartiteInstance(rows, right_count)


@given(integers(min_value=0, max_value=2**31 - 1))
def test_matching_is_deterministic(seed: int) -> None:
    inst = random_instance(seed)
    first = hall_saturating_matching(inst)
    second = hall_saturating_matching(inst)
    assert first == second
