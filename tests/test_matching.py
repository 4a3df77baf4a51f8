from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis.strategies import floats, integers

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


def greedy_lowest_free(adj: list[list[int]]) -> list[int]:
    """Each left vertex in turn takes its lowest free neighbour, or -1."""
    taken: set[int] = set()
    pairs = []
    for row in adj:
        b = next((b for b in row if b not in taken), -1)
        taken.add(b)
        pairs.append(b)
    return pairs


def list_maximum_matching(
    adj: list[list[int]], nr: int
) -> tuple[list[int], list[int]]:
    """Augment from any free left vertex until none has an augmenting path,
    which by Berge's theorem leaves a maximum matching.  Left vertices and
    neighbours go in descending order, so the matching often differs from
    the engine's."""
    match_l = [-1] * len(adj)
    match_r = [-1] * nr

    def augment(a: int, seen: set[int]) -> bool:
        for b in reversed(adj[a]):
            if b not in seen:
                seen.add(b)
                if match_r[b] == -1 or augment(match_r[b], seen):
                    match_l[a], match_r[b] = b, a
                    return True
        return False

    while any(
        match_l[a] == -1 and augment(a, set()) for a in reversed(range(len(adj)))
    ):
        pass
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


def random_rows(nl: int, nr: int, p: float, seed: int) -> tuple[int, ...]:
    rng = rng_for(seed, 22)
    return tuple(
        sum(1 << b for b in range(nr) if rng.random() < p) for _ in range(nl)
    )


@settings(max_examples=300)
@given(
    integers(min_value=0, max_value=25),
    integers(min_value=0, max_value=40),
    floats(min_value=0.0, max_value=1.0),
    integers(min_value=0, max_value=2**31 - 1),
)
def test_a_saturating_greedy_pass_is_the_matching(nl, nr, p, seed) -> None:
    # Where each left vertex finds a free neighbour on its turn, every
    # search ends at its first step, so the seeded pipeline outputs rest on
    # the greedy pass alone.
    rows = random_rows(nl, nr, p, seed)
    greedy = greedy_lowest_free([bits(row) for row in rows])
    if -1 in greedy:
        return
    result = hall_saturating_matching(BipartiteInstance(rows, nr))
    assert (result.status, result.pairs) == ("matched", tuple(greedy))


@settings(max_examples=300)
@given(
    integers(min_value=0, max_value=25),
    integers(min_value=0, max_value=40),
    floats(min_value=0.0, max_value=1.0),
    integers(min_value=0, max_value=2**31 - 1),
)
def test_the_certificate_is_that_of_any_maximum_matching(nl, nr, p, seed) -> None:
    # The left vertices that alternating paths reach from the free ones are
    # the same for every maximum matching, so the violator does not depend
    # on which maximum matching the engine found.
    rows = random_rows(nl, nr, p, seed)
    result = hall_saturating_matching(BipartiteInstance(rows, nr))
    adj = [bits(row) for row in rows]
    match_l, match_r = list_maximum_matching(adj, nr)
    if -1 not in match_l:
        assert result.status == "matched"
        return
    assert result.status == "deficient"
    assert (result.violator, result.neighborhood) == list_deficiency_certificate(
        adj, nr, match_l, match_r
    )


def test_a_blocked_vertex_enters_its_lowest_neighbour_first() -> None:
    # Left 2 finds both its neighbours taken; it enters right 0 and moves
    # left 0 on to right 2, though entering right 1 would move left 1 to 3.
    result = hall_saturating_matching(BipartiteInstance((0b101, 0b1010, 0b11), 4))
    assert result.pairs == (2, 1, 0)


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
        # Rows that are not a sequence once raised TypeError on iteration.
        (5, 2),
        (None, 2),
        ({1, 2}, 4),
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
