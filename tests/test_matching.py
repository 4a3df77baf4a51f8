import pytest
from hypothesis import given
from hypothesis.strategies import integers

from squareham import (
    BipartiteInstance,
    InputError,
    hall_saturating_matching,
    rng_for,
)


def random_instance(seed: int, max_side: int = 6) -> BipartiteInstance:
    rng = rng_for(seed, 21)
    left = int(rng.integers(0, max_side + 1))
    right = int(rng.integers(0, max_side + 1))
    adjacency = tuple(
        tuple(sorted(int(v) for v in range(right) if rng.random() < 0.45))
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
            for v in inst.adjacency[i]
        )

    return place(0, set())


def neighborhood(inst: BipartiteInstance, subset: tuple[int, ...]) -> set[int]:
    out: set[int] = set()
    for i in subset:
        out.update(inst.adjacency[i])
    return out


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
        assert v in inst.adjacency[i]


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


def test_matching_rejects_out_of_range_adjacency() -> None:
    with pytest.raises(InputError):
        hall_saturating_matching(BipartiteInstance(((3,),), 2))


@given(integers(min_value=0, max_value=2**31 - 1))
def test_matching_is_deterministic(seed: int) -> None:
    inst = random_instance(seed)
    first = hall_saturating_matching(inst)
    second = hall_saturating_matching(inst)
    assert first == second
