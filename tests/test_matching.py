import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import floats, integers

from squareham import InputError, hall_saturating_matching, rng_for
from squareham.graphcore import bits


def random_instance(seed: int, max_side: int = 6) -> tuple[int, ...]:
    rng = rng_for(seed, 21)
    left = int(rng.integers(0, max_side + 1))
    right = int(rng.integers(0, max_side + 1))
    return tuple(
        sum(1 << v for v in range(right) if rng.random() < 0.45)
        for _ in range(left)
    )


def saturating_matching_exists(rows: tuple[int, ...]) -> bool:
    """Backtracking over all left-to-right assignments."""

    def place(i: int, used: set[int]) -> bool:
        if i == len(rows):
            return True
        return any(
            v not in used and place(i + 1, used | {v}) for v in bits(rows[i])
        )

    return place(0, set())


def neighborhood(rows: tuple[int, ...], subset: tuple[int, ...]) -> set[int]:
    out: set[int] = set()
    for i in subset:
        out.update(bits(rows[i]))
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
    rows = random_instance(seed)
    result = hall_saturating_matching(rows)
    assert (result.status == "matched") == saturating_matching_exists(rows)


@given(integers(min_value=0, max_value=2**31 - 1))
def test_matched_witness_is_a_saturating_matching(seed: int) -> None:
    rows = random_instance(seed)
    result = hall_saturating_matching(rows)
    if result.status != "matched":
        assert result.pairs == ()
        return
    assert [a for a, _ in result.pairs] == list(range(len(rows)))
    assert len({v for _, v in result.pairs}) == len(result.pairs)
    for i, v in result.pairs:
        assert rows[i] >> v & 1
    assert result.violator == result.neighborhood == ()


@given(integers(min_value=0, max_value=2**31 - 1))
def test_deficient_witness_violates_the_expansion_bound(seed: int) -> None:
    rows = random_instance(seed)
    result = hall_saturating_matching(rows)
    if result.status != "deficient":
        return
    assert result.violator
    assert result.pairs == ()
    nbhd = neighborhood(rows, result.violator)
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
    result = hall_saturating_matching(rows)
    assert (result.status, result.pairs) == ("matched", tuple(enumerate(greedy)))


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
    result = hall_saturating_matching(rows)
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
    result = hall_saturating_matching((0b101, 0b1010, 0b11))
    assert result.pairs == ((0, 2), (1, 1), (2, 0))


def test_memory_grows_with_the_rows_not_with_the_widest_id() -> None:
    # A right side sized by its widest id once took a list and a mask of
    # 10**6 entries for this one edge.
    row = 1 << 10**6
    tracemalloc.start()
    try:
        result = hall_saturating_matching((row,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.pairs == ((0, 10**6),)
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    "rows",
    [
        (3, -1),
        ((0, 1),),
        (1.0,),
        (True,),
        (np.int64(1),),
        # Rows that are not a sequence once raised TypeError on iteration.
        5,
        None,
        {1, 2},
    ],
    ids=["negative", "tuple", "float", "bool", "numpy", "int", "None", "set"],
)
def test_matching_rejects_malformed_rows(rows) -> None:
    with pytest.raises(InputError):
        hall_saturating_matching(rows)


@given(integers(min_value=0, max_value=2**31 - 1))
def test_matching_is_deterministic(seed: int) -> None:
    rows = random_instance(seed)
    first = hall_saturating_matching(rows)
    second = hall_saturating_matching(rows)
    assert first == second
