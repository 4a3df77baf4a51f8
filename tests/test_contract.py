"""The input contract of the checks the bulk passes serve.

Malformed input of any kind raises :class:`InputError` and nothing else,
and numpy integers give the answer their plain-int values give.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis.strategies import (
    SearchStrategy,
    booleans,
    builds,
    data,
    floats,
    integers,
    just,
    none,
    one_of,
    sampled_from,
    text,
)

from squareham import (
    Absorber,
    Certificate,
    InputError,
    PipelineConfig,
    chain_absorbers,
    complete_graph,
    connect_one,
    find_square_ham,
    gnp_generate,
    is_square_path,
    validate_embedding,
    verify_absorber,
    verify_certificate,
)
from squareham.adversary import prune_triangle_poor_edges
from squareham.connector import direct_arc
from squareham.gadgets import BULK_PATH_LEN
from squareham.graphcore import mask_of, rng_for
from squareham.hamiltonian import almost_spanning_square_path, cover_with_square_paths

from strategies import seeds

N = 200
HOST = gnp_generate(N, 0.95, 1)
# Lengths on both sides of the bulk passes.
LENGTHS = [5, 8, 90, BULK_PATH_LEN, N]
# A host whose rows fit an int64, so a numpy vertex may shift in numpy.
SMALL_N = 63


def malformed() -> SearchStrategy:
    """Floats, NaN, bools, strings, None, ints beyond 64 bits or below 0,
    and objects of no number type."""
    return one_of(
        floats(allow_nan=True, allow_infinity=True),
        just(float("nan")),
        booleans(),
        text(max_size=4),
        none(),
        integers(min_value=2**64),
        integers(max_value=-1),
        builds(object),
    )


def _only_input_error(call) -> None:
    try:
        call()
    except InputError:
        pass


@given(data())
def test_the_checks_raise_only_input_error_on_malformed_input(draw) -> None:
    bad = draw.draw(malformed())
    k = draw.draw(sampled_from(LENGTHS))
    path = list(range(k))
    j = draw.draw(integers(0, k - 1))
    spoiled = path[:j] + [bad] + path[j + 1 :]
    arg = draw.draw(sampled_from([bad, spoiled, tuple(spoiled), [bad] * 3]))
    ends = ((0, 1), (k - 2, k - 1))
    calls = [
        lambda: is_square_path(HOST, arg),
        lambda: validate_embedding(HOST, arg, *ends),
        lambda: validate_embedding(HOST, path, arg, ends[1]),
        lambda: validate_embedding(HOST, path, ends[0], arg),
        lambda: validate_embedding(HOST, path, (0, bad), ends[1]),
        lambda: verify_certificate(HOST, arg),
        lambda: verify_certificate(HOST, Certificate(arg)),
        lambda: verify_absorber(HOST, arg),
        lambda: verify_absorber(HOST, Absorber(arg, (2,))),
        lambda: verify_absorber(HOST, Absorber(tuple(path), arg)),
        lambda: mask_of(arg),
    ]
    for call in calls:
        _only_input_error(call)


@given(data())
def test_numpy_integers_give_the_plain_int_answer(draw) -> None:
    # Hosts a little sparser than complete, so some checks fail and their
    # reasons are compared too.
    n = draw.draw(sampled_from([N, SMALL_N]))
    g = gnp_generate(n, draw.draw(floats(0.85, 1)), draw.draw(seeds()))
    kind = draw.draw(sampled_from([np.int64, np.int32, np.uint16, np.uint64]))
    order = [int(v) for v in rng_for(draw.draw(seeds()), 10).permutation(n)]
    k = draw.draw(sampled_from([k for k in LENGTHS if k < n] + [n]))
    path = order[:k]
    ends = [
        draw.draw(sampled_from([tuple(path[:2]), tuple(path[-2:]), tuple(path[1::-1])]))
        for _ in range(2)
    ]
    xs = path[2 : k - 2 : draw.draw(integers(3, 9))]

    def numpy(seq):
        return tuple(kind(v) for v in seq)

    assert is_square_path(g, numpy(path)) == is_square_path(g, path)
    assert is_square_path(g, np.array(path, kind)) == is_square_path(g, path)
    assert validate_embedding(g, numpy(path), *map(numpy, ends)) == validate_embedding(
        g, path, *ends
    )
    assert verify_certificate(g, Certificate(numpy(order))) == verify_certificate(
        g, Certificate(tuple(order))
    )
    assert verify_absorber(g, Absorber(numpy(path), numpy(xs))) == verify_absorber(
        g, Absorber(tuple(path), tuple(xs))
    )
    assert mask_of(numpy(path)) == mask_of(path)
    assert mask_of(iter(numpy(path))) == mask_of(path)


def test_numpy_seeds_give_the_plain_int_answer() -> None:
    # Each seed is read as an int where it is checked; a numpy one once
    # overflowed in the SplitMix64 draws.
    everything = (1 << N) - 1
    plain = PipelineConfig(seed=3)
    for seed in (np.int64(3), np.uint32(3), np.int16(3)):
        config = PipelineConfig(seed=seed)
        assert config == plain and type(config.seed) is int
        assert find_square_ham(HOST, config=config) == find_square_ham(
            HOST, config=plain
        )
        assert almost_spanning_square_path(HOST, seed) == almost_spanning_square_path(
            HOST, 3
        )
        covered = cover_with_square_paths(HOST, everything, seed)
        assert covered == cover_with_square_paths(HOST, everything, 3)
        units = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
        pool = everything & ~1023
        assert chain_absorbers(HOST, units, pool, seed) == chain_absorbers(
            HOST, units, pool, 3
        )
        assert connect_one(HOST, (0, 1), (5, 6), pool, 8, seed) == connect_one(
            HOST, (0, 1), (5, 6), pool, 8, 3
        )


G = gnp_generate(N, 0.9, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: G.has_edge(0.5, 1),
        lambda: G.has_edge(None, 1),
        lambda: G.has_edge(1, "a"),
        lambda: G.row(1.5),
        lambda: G.neighbors("a"),
        lambda: G.degree(None),
        lambda: direct_arc(G, (0.5, 1), (2, 3)),
        lambda: direct_arc(G, (None, 1), (2, 3)),
        lambda: direct_arc(G, (0, 1), (2, "a")),
    ],
    ids=[
        "has_edge-float",
        "has_edge-None",
        "has_edge-str",
        "row-float",
        "neighbors-str",
        "degree-None",
        "direct_arc-float",
        "direct_arc-None",
        "direct_arc-str",
    ],
)
def test_vertex_checks_raise_only_input_error(call) -> None:
    # Each once raised TypeError.
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: G.remove_edges([(0.5, 1)]),
        lambda: G.remove_edges([(0, None)]),
        lambda: G.remove_edges([(0, 1, 2)]),
        lambda: G.remove_edges(5),
        lambda: prune_triangle_poor_edges(G, "a"),
        lambda: prune_triangle_poor_edges(G, 1.5),
        lambda: prune_triangle_poor_edges(None, 3),
        lambda: find_square_ham(None),
        lambda: find_square_ham(G, gamma_host=5),
        lambda: find_square_ham(G, config=5),
        lambda: find_square_ham(G, config=None),
        lambda: verify_certificate(None, Certificate(tuple(range(N)))),
    ],
    ids=[
        "remove_edges-float",
        "remove_edges-None",
        "remove_edges-triple",
        "remove_edges-int",
        "prune-str",
        "prune-float",
        "prune-graph-None",
        "find-graph-None",
        "find-gamma_host-int",
        "find-config-int",
        "find-config-None",
        "verify_certificate-graph-None",
    ],
)
def test_entry_checks_raise_only_input_error(call) -> None:
    # Each once raised TypeError or AttributeError.
    with pytest.raises(InputError):
        call()


def test_removed_edges_read_numpy_integers_as_ints() -> None:
    # A numpy end once shifted as an int64, which overflows from bit 63.
    pairs = [(0, 1), (3, 150), (199, 64)]
    for kind in (np.int64, np.uint16):
        typed = [(kind(u), kind(v)) for u, v in pairs]
        assert G.remove_edges(typed) == G.remove_edges(pairs)
    assert G.remove_edges(pairs).edge_count < G.edge_count


def test_vertex_checks_read_numpy_integers_as_ints() -> None:
    for kind in (np.int64, np.int32, np.uint16, np.uint64):
        u, v = kind(0), kind(1)
        assert G.has_edge(u, v) == G.has_edge(0, 1)
        assert G.has_edge(kind(3), kind(150)) == G.has_edge(3, 150)
        assert G.row(u) == G.row(0)
        assert G.neighbors(v) == G.neighbors(1)
        assert G.degree(v) == G.degree(1)
    # A direct arc on numpy ports once overflowed.
    for frm, to in (((0, 1), (2, 3)), ((10, 20), (30, 40)), ((5, 6), (5, 7))):
        for kind in (np.int64, np.uint16):
            ported = tuple(map(kind, frm)), tuple(map(kind, to))
            assert direct_arc(G, *ported) is direct_arc(G, frm, to)


def test_a_unit_that_is_no_star_core_is_rejected_with_input_error() -> None:
    # The audit of the chained absorber fails on the bad unit's own pairs;
    # the units are checked only then, so the pipeline pays nothing.
    g = complete_graph(12).remove_edges([(0, 2)])
    units = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
    with pytest.raises(InputError, match=r"unit \(0, 1, 2, 3, 4\)"):
        chain_absorbers(g, units, (1 << 12) - 1, 1)
    # Its bridge pair u1 v1 missing: the unit with x is a square path, the
    # one without it is not.
    g = complete_graph(12).remove_edges([(5, 8)])
    with pytest.raises(InputError, match=r"unit \(5, 6, 7, 8, 9\)"):
        chain_absorbers(g, units, (1 << 12) - 1, 1)
    absorber, fail = chain_absorbers(complete_graph(12), units, (1 << 12) - 1, 1)
    assert fail is None and verify_absorber(complete_graph(12), absorber).ok
