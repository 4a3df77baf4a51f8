import numpy as np
import pytest
from hypothesis import given
from hypothesis.strategies import (
    booleans,
    data,
    integers,
    permutations,
    sampled_from,
)

from squareham import (
    Certificate,
    Graph,
    InputError,
    complete_graph,
    is_square_path,
    validate_embedding,
    verify_certificate,
)
from squareham.graphcore import rng_for

from oracles import (
    looped_is_square_path,
    looped_validate_embedding,
    looped_verify_certificate,
    square_path_edge_oracle,
    square_path_pairs,
)
from strategies import gnp_graphs, seeds


@given(integers(min_value=2, max_value=40))
def test_square_path_edge_set_matches_distance_two_oracle(length: int) -> None:
    # The check needs exactly the oracle's pairs: all of them pass, and
    # each one missing is named.
    edges = square_path_edge_oracle(length)
    assert len(edges) == 2 * length - 3
    assert is_square_path(Graph(length, sorted(edges)), range(length))
    for u, v in edges:
        g = Graph(length, sorted(edges - {(u, v)}))
        assert is_square_path(g, range(length)).reason == f"missing edge ({u}, {v})"


@given(permutations(list(range(7))))
def test_any_order_is_a_square_path_of_a_complete_graph(order: list[int]) -> None:
    g = complete_graph(7)
    assert is_square_path(g, order)


def test_square_path_membership_on_a_sparse_witness() -> None:
    length = 6
    edges = sorted(square_path_edge_oracle(length))
    g = Graph(length, edges)
    assert is_square_path(g, range(length))
    assert is_square_path(g, range(length - 1, -1, -1))
    assert not is_square_path(g, [0, 2, 1, 3, 4, 5])
    # The path does not close into the square of a cycle.
    assert not verify_certificate(g, Certificate(tuple(range(length)))).ok


@given(integers(min_value=4, max_value=12))
def test_square_path_pairs_lists_every_close_pair(length: int) -> None:
    seq = tuple(range(100, 100 + length))
    pairs = square_path_pairs(seq)
    expected = {
        (seq[i], seq[j]) for i, j in square_path_edge_oracle(length)
    }
    assert {tuple(sorted(p)) for p in pairs} == {
        tuple(sorted(p)) for p in expected
    }


@given(gnp_graphs(min_n=1, max_n=12, min_p=0.5), seeds())
def test_square_path_check_names_the_first_missing_close_pair(g, seed: int) -> None:
    seq = [int(v) for v in rng_for(seed, 2).permutation(g.n)]
    missing = [p for p in square_path_pairs(seq) if not g.has_edge(*p)]
    res = is_square_path(g, seq)
    assert res.ok == (not missing)
    if missing:
        assert res.reason == f"missing edge ({missing[0][0]}, {missing[0][1]})"


@given(gnp_graphs(min_n=1, max_n=14), seeds(), integers(min_value=0, max_value=14))
def test_square_path_check_matches_the_looped_check(g, seed: int, size: int) -> None:
    # Every length, the empty and one-vertex sequences included.
    seq = tuple(int(v) for v in rng_for(seed, 3).permutation(g.n)[:size])
    assert is_square_path(g, seq) == looped_is_square_path(g, seq)


def test_square_path_check_reports_a_far_pair_before_a_later_near_pair() -> None:
    # Missing: (0, 2) at distance 2 from position 0, and (1, 2) at
    # distance 1 from position 1; the pairs are read position by position.
    seq = (0, 1, 2, 3)
    g = Graph(4, [(0, 1), (1, 3), (2, 3)])
    assert is_square_path(g, seq).reason == "missing edge (0, 2)"
    # With (0, 2) present the near pair is the first fault.
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert is_square_path(g, seq).reason == "missing edge (1, 2)"
    # The last pair has no distance-2 partner; it is read last.
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    assert is_square_path(g, seq).reason == "missing edge (2, 3)"


@given(gnp_graphs(min_n=3, max_n=12, min_p=0.6), seeds())
def test_certificate_check_matches_the_looped_check(g, seed: int) -> None:
    cert = Certificate(tuple(int(v) for v in rng_for(seed, 4).permutation(g.n)))
    assert verify_certificate(g, cert) == looped_verify_certificate(g, cert)


def test_certificate_check_reports_the_first_gap_that_wraps_around() -> None:
    # Order 3, 0, 4, 1, 5, 2 on K_6 less the pairs (5, 3) and (2, 3): both
    # wrap around the end, at positions 4 (distance 2) and 5 (distance 1).
    order = (3, 0, 4, 1, 5, 2)
    g = complete_graph(6).remove_edges([(3, 5), (2, 3)])
    check = verify_certificate(g, Certificate(order))
    assert (check.ok, check.position, check.distance, check.missing) == (
        False, 4, 2, (3, 5)
    )
    assert check == looped_verify_certificate(g, Certificate(order))


@given(data())
def test_embedding_check_matches_the_looped_check(draw) -> None:
    g = draw.draw(gnp_graphs(min_n=4, max_n=14, min_p=0.4))
    length = draw.draw(sampled_from([2, 4, 5, 8, 12]))
    # Vertices of the host, sometimes with one repeat; each port the
    # path's own or the pair from its other end.
    verts = draw.draw(permutations(range(g.n)))[:length]
    if draw.draw(booleans()):
        verts[draw.draw(integers(0, len(verts) - 1))] = verts[0]
    ports = [
        draw.draw(sampled_from([tuple(verts[:2]), tuple(verts[-2:])]))
        for _ in range(2)
    ]
    assert validate_embedding(g, verts, *ports) == looped_validate_embedding(
        g, verts, *ports
    )


def test_embedding_check_reports_a_repeat_before_a_missing_edge() -> None:
    # The host lacks only (0, 3); positions 0 and 2 land on it in both
    # paths, and the first also repeats vertex 0.
    host = Graph(4, sorted(square_path_edge_oracle(4)))
    res = validate_embedding(host, (0, 1, 3, 0), (0, 1), (3, 0))
    assert res.reason == "sequence repeats a vertex"
    res = validate_embedding(host, (0, 1, 3, 2), (0, 1), (3, 2))
    assert res.reason == "missing edge (0, 3)"


def test_validate_embedding_accepts_exact_image_and_flags_gaps() -> None:
    host = Graph(5, sorted(square_path_edge_oracle(5)))
    good = validate_embedding(host, (0, 1, 2, 3, 4), (0, 1), (3, 4))
    assert good.ok
    bad = validate_embedding(host, (0, 2, 1, 3, 4), (0, 2), (3, 4))
    assert not bad.ok
    assert bad.reason
    dup = validate_embedding(host, (0, 1, 2, 3, 0), (0, 1), (3, 0))
    assert not dup.ok
    with pytest.raises(InputError):
        validate_embedding(host, (0, 1, 2, 3, 5), (0, 1), (3, 5))


def test_validate_embedding_checks_port_images() -> None:
    host = complete_graph(8)
    path = (2, 3, 4, 5)
    assert validate_embedding(host, path, (2, 3), (4, 5)).ok
    wrong_entry = validate_embedding(host, path, (3, 2), (4, 5))
    assert wrong_entry.reason == "entry port is (2, 3), expected (3, 2)"
    wrong_exit = validate_embedding(host, path, (2, 3), (5, 4))
    assert wrong_exit.reason == "exit port is (4, 5), expected (5, 4)"


def test_numpy_integer_vertices_are_read_as_ints() -> None:
    # 1 << np.int64(70) is 0, and a row AND an int64 overflows: each of
    # these once raised OverflowError.
    g = complete_graph(100)
    assert verify_certificate(g, Certificate(tuple(np.arange(100)))).ok
    cut = g.remove_edges([(70, 71)])
    check = verify_certificate(cut, Certificate(tuple(np.arange(100))))
    assert (check.position, check.distance, check.missing) == (70, 1, (70, 71))
    assert is_square_path(g, tuple(np.arange(60, 75)))
    check = is_square_path(cut, tuple(np.arange(60, 75)))
    assert check.reason == "missing edge (70, 71)"
    assert validate_embedding(g, np.arange(60, 75), (60, 61), (73, 74)).ok


@pytest.mark.parametrize(
    "check",
    [
        lambda g: is_square_path(g, [0, 1.5, 2]),
        lambda g: is_square_path(g, 5),
        lambda g: is_square_path(g, "abc"),
        lambda g: is_square_path(g, [[0], [1]]),
        lambda g: is_square_path(g, np.array([0, 1, 100])),
        lambda g: validate_embedding(g, (0, 1, 2), 5, (1, 2)),
        lambda g: validate_embedding(g, (0, 1, 2), (0, 1), 2.5),
    ],
    ids=["float", "int", "str", "lists", "array", "int-port", "float-port"],
)
def test_a_sequence_of_non_vertices_is_rejected_with_input_error(check) -> None:
    # Each once raised TypeError, the array ValueError.
    with pytest.raises(InputError):
        check(complete_graph(100))
