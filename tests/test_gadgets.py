import numpy as np
import pytest
from hypothesis import given
from hypothesis.strategies import (
    booleans,
    data,
    integers,
    one_of,
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
from squareham import gadgets
from squareham.graphcore import rng_for

from oracles import (
    looped_is_square_path,
    looped_validate_embedding,
    looped_verify_certificate,
    square_path_edge_oracle,
    square_path_pairs,
)
from strategies import gnp_graphs, host_holding, seeds


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


def _repeat(draw, seq: list[int]) -> None:
    """Now and then make ``seq`` repeat a vertex."""
    if draw.draw(booleans()):
        seq[draw.draw(integers(0, len(seq) - 1))] = draw.draw(sampled_from(seq))


def _out_of_range(draw, seq: list[int], n: int) -> None:
    """Now and then make ``seq`` name an id that is no vertex."""
    if draw.draw(integers(0, 3)) == 0:
        j = draw.draw(integers(0, len(seq) - 1))
        seq[j] = draw.draw(sampled_from([n, n + 7, -1]))


def _same_outcome(check, looped) -> None:
    """``check()`` returns what ``looped()`` returns, or both raise InputError."""
    try:
        expected = looped()
    except InputError:
        with pytest.raises(InputError):
            check()
        return
    assert check() == expected


@given(data())
def test_bulk_path_checks_match_the_looped_checks_under_faults(draw) -> None:
    # Paths of 2 to 200 vertices, on both sides of the bulk crossover, on
    # hosts missing up to three close pairs, some with a repeat or an id
    # out of range; the bulk pass must give the loop's verdict and reason.
    assert 2 < gadgets.BULK_PATH_LEN < 200
    k = draw.draw(one_of(integers(2, 200), integers(gadgets.BULK_PATH_LEN, 200)))
    n = k + draw.draw(integers(0, 20))
    seq = [int(v) for v in rng_for(draw.draw(seeds()), 6).permutation(n)[:k]]
    # A repeat before the host is drawn, so the host may hold every pair
    # of distinct vertices around it.
    _repeat(draw, seq)
    g = host_holding(draw, n, square_path_pairs(seq))
    _out_of_range(draw, seq, n)
    # Each port the path's own pair from either end, or one that misses
    # in its first or its second vertex.
    a, b, c, d = seq[0], seq[1], seq[-2], seq[-1]
    ports = [
        draw.draw(sampled_from([(a, b), (c, d), (b, a), (c, a), (a, d)]))
        for _ in range(2)
    ]
    path = draw.draw(sampled_from([seq, tuple(seq)]))
    _same_outcome(
        lambda: is_square_path(g, path), lambda: looped_is_square_path(g, path)
    )
    _same_outcome(
        lambda: validate_embedding(g, path, *ports),
        lambda: looped_validate_embedding(g, path, *ports),
    )


@given(data())
def test_bulk_certificate_check_matches_the_looped_check_under_faults(draw) -> None:
    n = draw.draw(integers(3, 200))
    order = [int(v) for v in rng_for(draw.draw(seeds()), 7).permutation(n)]
    cyclic = [
        (order[i], order[(i + d) % n]) for i in range(n) for d in (1, 2)
    ]
    g = host_holding(draw, n, cyclic)
    _repeat(draw, order)
    _out_of_range(draw, order, n)
    cert = Certificate(tuple(order))
    if sorted(order) != list(range(n)):
        with pytest.raises(InputError, match="permutation"):
            verify_certificate(g, cert)
    else:
        assert verify_certificate(g, cert) == looped_verify_certificate(g, cert)


@pytest.mark.parametrize("length", [2, 3, 6, gadgets.BULK_PATH_LEN])
def test_embedding_check_reads_every_port_vertex(length: int) -> None:
    # A port that misses in any one of its vertices, on a path that is
    # otherwise fine, on both sides of the one-pass length.
    g = complete_graph(length + 2)
    path = tuple(range(length))
    a, b, c, d, x = path[0], path[1], path[-2], path[-1], length
    for frm in ((a, b), (b, a), (x, b), (a, x)):
        for to in ((c, d), (d, c), (x, d), (c, x)):
            assert validate_embedding(g, path, frm, to) == looped_validate_embedding(
                g, path, frm, to
            )


@pytest.mark.parametrize(
    "fault", ["none", "near", "far", "far-then-near", "repeat", "range"]
)
@pytest.mark.parametrize("at", [0, 80, -3])
def test_the_bulk_path_check_names_what_the_loop_names(fault, at) -> None:
    # A long path on a complete host less at most two close pairs: only the
    # repeat, range and pair checks of the bulk pass can fail.
    k = gadgets.BULK_PATH_LEN + 10
    seq = [int(v) for v in rng_for(4, 12).permutation(k)]
    g = complete_graph(k)
    if fault == "near":
        g = g.remove_edges([(seq[at], seq[at + 1])])
    elif fault == "far":
        g = g.remove_edges([(seq[at], seq[at + 2])])
    elif fault == "far-then-near":
        # The far pair comes first in position order, the near pair first
        # in the order the gather lists the pairs.
        g = g.remove_edges([(seq[at - 4], seq[at - 2]), (seq[at + 1], seq[at + 2])])
    elif fault == "repeat":
        seq[at] = seq[at + 5 if at >= 0 else at - 5]
    elif fault == "range":
        seq[at] = k
    _same_outcome(lambda: is_square_path(g, seq), lambda: looped_is_square_path(g, seq))
