import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis.strategies import (
    data,
    floats,
    integers,
    just,
    lists,
    sets,
    tuples,
)

from squareham import (
    Graph,
    InputError,
    complete_graph,
    gnp_generate,
    rng_for,
)
from squareham import graphcore
from squareham.graphcore import (
    FamilyParams,
    bits,
    check_family_membership,
    codegrees,
    edges_within,
    mask_of,
    packed_rows,
    pick_bit,
    splitmix64,
    triangle_profile,
)
from squareham.cli import (
    graph_from_edgelist_text,
    graph_from_json_obj,
    graph_to_edgelist_text,
    graph_to_json_obj,
    read_graph,
)
from squareham.absorber import Absorber, build_single_absorbers
from squareham.adversary import k3_attack
from squareham.connector import connect_one
from squareham.hamiltonian import (
    Certificate,
    InfeasibilityWitness,
    cover_with_square_paths,
    find_infeasibility_witness,
    find_square_ham,
    match_leftover,
    verify_witness,
)

from oracles import scalar_splitmix64
from strategies import gnp_graphs, seeds


def brute_triangles_at(g: Graph, v: int) -> int:
    return sum(
        1
        for a, b in itertools.combinations(sorted(g.neighbors(v)), 2)
        if g.has_edge(a, b)
    )


@given(seeds(), integers(min_value=1, max_value=40))
def test_gnp_same_seed_reproduces_edge_set(seed: int, n: int) -> None:
    g1 = gnp_generate(n, 0.4, seed)
    g2 = gnp_generate(n, 0.4, seed)
    assert g1.edges() == g2.edges()


# sha256 of json.dumps(gnp_generate(n, p, 11).edges()), computed when rows
# were still frozensets; the bitset generator must reproduce every graph.
_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
GNP_PINS = {
    (0, 0.0): _EMPTY, (0, 0.35): _EMPTY, (0, 1.0): _EMPTY,
    (1, 0.0): _EMPTY, (1, 0.35): _EMPTY, (1, 1.0): _EMPTY,
    (2, 0.0): _EMPTY, (2, 0.35): _EMPTY,
    (2, 1.0): "4b206b21939b457eb85499fb9142a2b2ff32d29b25b2a70733887616d179d748",
    (57, 0.0): _EMPTY,
    (57, 0.35): "0733ef60cfb8f4333723d577b9a1a18648f5819e4b4065baf9d79f2a050dd09a",
    (57, 1.0): "bdcda9c0753511aa1e70514f0e5de8e32be557365deae99d2dcf61e1f6c7b4e9",
    (300, 0.0): _EMPTY,
    (300, 0.35): "f1abad90f134f75f0acd516a1acb257b6ba8552fce6937158e92da729f2b53da",
    (300, 1.0): "907671c5de6a0099a013f6d1a1e8a61d2e58784129a528ed34b38eaab66b3a2a",
}


@pytest.mark.parametrize("n, p", sorted(GNP_PINS))
def test_gnp_edges_are_pinned(n: int, p: float) -> None:
    edges = gnp_generate(n, p, 11).edges()
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == GNP_PINS[n, p]


# The same digests for hosts whose uniforms span more than one draw block
# (n = 400 needs 79,800 uniforms, n = 1000 needs 499,500); computed when
# every row was drawn on its own.
GNP_BLOCK_PINS = {
    (400, 0.35): "0aa29117bb3bf7355a462889cb6e003ea5486cfa00d56e733d55cd39b088fd82",
    (1000, 0.35): "b017c297e295b1720ed6fba0b08e6f3f461b1077b899b0c10458adc91e504ffa",
    (1000, 0.5): "db59eeb2138633a73957c4e40d439ea85de62a3623eb86d8ae9f4c219c6163d7",
}


@pytest.mark.parametrize("n, p", sorted(GNP_BLOCK_PINS))
def test_gnp_edges_are_pinned_across_draw_blocks(n: int, p: float) -> None:
    assert n * (n - 1) // 2 > graphcore._GNP_DRAW_CAP
    edges = gnp_generate(n, p, 11).edges()
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == GNP_BLOCK_PINS[n, p]


def _gnp_row_by_row(n: int, p: float, seed: int) -> Graph:
    rng = rng_for(seed, 0)
    return Graph(
        n,
        [
            (u, u + 1 + int(i))
            for u in range(n - 1)
            for i in np.flatnonzero(rng.random(n - 1 - u) < p)
        ],
    )


@pytest.mark.parametrize("cap", [1, 5, 17, 64])
@given(seeds(), integers(min_value=0, max_value=24))
def test_gnp_draw_blocks_replay_the_row_by_row_stream(cap: int, seed: int, n: int) -> None:
    # Small caps put block boundaries everywhere, rows longer than the cap
    # included.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphcore, "_GNP_DRAW_CAP", cap)
        assert gnp_generate(n, 0.5, seed) == _gnp_row_by_row(n, 0.5, seed)


@pytest.mark.parametrize("rows, cap", [(8, 5), (8, 64), (16, 17), (16, 1 << 13)])
@given(seeds(), integers(min_value=0, max_value=70))
@example(0, 61)
def test_gnp_row_blocks_replay_the_row_by_row_stream(
    rows: int, cap: int, seed: int, n: int
) -> None:
    # Blocks of 8 or 16 rows end mid-graph, and a last block cut short by
    # an n that is no multiple of 8 ends mid-byte.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphcore, "_GNP_BLOCK_ROWS", rows)
        mp.setattr(graphcore, "_GNP_DRAW_CAP", cap)
        assert gnp_generate(n, 0.4, seed) == _gnp_row_by_row(n, 0.4, seed)


def test_gnp_peak_memory_is_a_fraction_of_a_byte_per_pair() -> None:
    # One byte per pair, as an n x n boolean matrix, would be n**2; the
    # packed rows and the graph's int rows are about n**2 / 8 each.
    n = 1024
    tracemalloc.start()
    try:
        for seed in (1, 2):
            tracemalloc.reset_peak()
            gnp_generate(n, 0.5, seed)
            assert tracemalloc.get_traced_memory()[1] < n * n // 2
    finally:
        tracemalloc.stop()


@given(seeds(), integers(min_value=1, max_value=30))
def test_gnp_extreme_probabilities(seed: int, n: int) -> None:
    assert gnp_generate(n, 0.0, seed).edge_count == 0
    assert gnp_generate(n, 1.0, seed).edge_count == n * (n - 1) // 2


def test_gnp_rejects_bad_probability() -> None:
    with pytest.raises(InputError):
        gnp_generate(5, 1.5, 0)
    with pytest.raises(InputError):
        gnp_generate(5, -0.1, 0)
    with pytest.raises(InputError):
        gnp_generate(-1, 0.5, 0)
    for n, p in ((5.5, 0.5), ("5", 0.5), (True, 0.5), (5, "0.5"), (5, True)):
        with pytest.raises(InputError, match="must be"):
            gnp_generate(n, p, 1)


def test_vertex_counts_that_are_not_integers_are_input_errors() -> None:
    for make in (
        lambda: Graph(5.5, []),
        lambda: Graph("5", []),
        lambda: Graph(True, []),
        lambda: complete_graph(5.5),
    ):
        with pytest.raises(InputError, match="vertex count must be an integer"):
            make()
    assert Graph(np.int64(3), [(0, 2)]).edges() == ((0, 2),)


def test_negative_seeds_and_salts_are_input_errors() -> None:
    with pytest.raises(InputError):
        rng_for(-1)
    with pytest.raises(InputError):
        rng_for(0, 3, -1)
    with pytest.raises(InputError):
        gnp_generate(5, 0.5, -1)
    # Seeds and salts that are not integers.
    with pytest.raises(InputError, match="integer"):
        gnp_generate(5, 0.5, 1.5)
    for seed, salt in ((1.5, ()), (True, ()), (1, (2.0,))):
        with pytest.raises(InputError, match="integer"):
            rng_for(seed, *salt)
    # numpy integers are integers.
    assert gnp_generate(np.int64(9), 0.5, np.int64(3)) == gnp_generate(9, 0.5, 3)


def test_splitmix64_gives_the_reference_outputs() -> None:
    # The first outputs of the reference SplitMix64 for seed 0; seeds are
    # taken modulo 2^64.
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for seed in (0, 2**64):
        assert list(itertools.islice(splitmix64(seed), 3)) == expected


#: Draws the block stream is checked over, and the seeds: small ones, the
#: middle and the top of the 64-bit range, one above it, and the cover's
#: ``64 * seed + 47``.
STREAM_DRAWS = 20_000
STREAM_SEEDS = (0, 1, 47, 2**63, 2**64 - 1, 2**64 + 5, 64 * 10**12 + 47)


def test_splitmix64_blocks_replay_the_scalar_stream() -> None:
    # The scalar draws, then blocks doubling up to the cap: the draws
    # checked cross every boundary, the cap's included, more than once.
    ends, size = [graphcore._SCALAR_DRAWS], graphcore._FIRST_BLOCK
    while ends[-1] + size <= STREAM_DRAWS:
        ends.append(ends[-1] + size)
        size = min(2 * size, graphcore._BLOCK_CAP)
    assert ends[-1] - ends[-3] == 2 * graphcore._BLOCK_CAP
    for seed in STREAM_SEEDS:
        got = list(itertools.islice(splitmix64(seed), STREAM_DRAWS))
        assert got == list(itertools.islice(scalar_splitmix64(seed), STREAM_DRAWS))
        assert {type(d) for d in got} == {int}


@given(integers(min_value=1, max_value=50))
def test_complete_graph_has_all_pairs(n: int) -> None:
    g = complete_graph(n)
    assert g.edge_count == n * (n - 1) // 2
    assert all(g.degree(v) == n - 1 for v in range(n))


@given(gnp_graphs(max_n=14))
def test_triangle_profile_matches_per_vertex_enumeration(g: Graph) -> None:
    profile = triangle_profile(g)
    assert list(profile) == [brute_triangles_at(g, v) for v in range(g.n)]


def _int64_codegrees(g: Graph) -> np.ndarray:
    a = g.matrix.astype(np.int64)
    return a @ a


@given(gnp_graphs(max_n=60))
def test_float32_products_equal_an_int64_reference(g: Graph) -> None:
    ref = _int64_codegrees(g)
    c = codegrees(g)
    assert c.dtype == np.int64 and (c == ref).all()
    rows = g.rows
    per_vertex = [
        sum((rows[u] & rows[v]).bit_count() for u in bits(rows[v])) // 2
        for v in range(g.n)
    ]
    t = triangle_profile(g)
    assert t.dtype == np.int64 and t.tolist() == per_vertex
    assert t.tolist() == ((ref * g.matrix).sum(axis=1) // 2).tolist()


def test_float32_products_are_exact_on_k2000() -> None:
    n = 2000
    k = gnp_generate(n, 1.0, 0)
    assert k.edge_count == n * (n - 1) // 2
    c = codegrees(k)
    assert (c.diagonal() == n - 1).all()
    assert (c[~np.eye(n, dtype=bool)] == n - 2).all()
    assert (triangle_profile(k) == math.comb(n - 1, 2)).all()


@given(gnp_graphs(max_n=14))
def test_codegrees_count_common_neighbors_of_every_pair(g: Graph) -> None:
    c = codegrees(g)
    assert c.dtype == "int64" and c.shape == (g.n, g.n)
    for u in range(g.n):
        for v in range(g.n):
            assert c[u, v] == len(g.neighbors(u) & g.neighbors(v))


@given(gnp_graphs(min_n=2, max_n=14), seeds())
def test_edges_within_counts_induced_pairs(g: Graph, seed: int) -> None:
    rng = rng_for(seed, 1)
    size = int(rng.integers(0, g.n + 1))
    sub = [int(v) for v in rng.choice(g.n, size=size, replace=False)]
    expected = sum(
        1 for a, b in itertools.combinations(sorted(sub), 2) if g.has_edge(a, b)
    )
    assert edges_within(g, mask_of(sub)) == expected


@given(gnp_graphs(min_n=0, max_n=30), data())
def test_packed_rows_are_the_matrix_rows_packed(g, draw) -> None:
    picked = draw.draw(lists(integers(0, max(g.n - 1, 0)))) if g.n else []
    expected = np.packbits(g.matrix[picked], axis=1, bitorder="little")
    packed = packed_rows([g.rows[u] for u in picked], g.n)
    assert packed.dtype == np.uint8 and packed.shape == expected.shape
    assert (packed == expected).all()


ENTRY_POINTS = {
    "edges_within": edges_within,
    "cover_with_square_paths": cover_with_square_paths,
    "match_leftover": lambda g, s: match_leftover(g, s, 0),
    "build_single_absorbers": lambda g, s: build_single_absorbers(g, s, 0),
    "connect_one": lambda g, s: connect_one(g, (0, 1), (2, 3), s, 5, 0),
}


@pytest.mark.parametrize("vertices", [[4, 5], {4, 5}], ids=["list", "set"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bitset_entry_points_reject_vertex_collections(entry, vertices) -> None:
    with pytest.raises(InputError, match="must be an int bitset, got "):
        ENTRY_POINTS[entry](complete_graph(10), vertices)


def test_mask_checks_reject_bits_outside_the_graph() -> None:
    g = complete_graph(4)
    for mask in (0, 1, 0b1111):
        g.check_mask(mask)
        assert edges_within(g, mask) == math.comb(mask.bit_count(), 2)
    for mask in (-1, 1 << 4, 0b10001, 1 << 10**6):
        with pytest.raises(InputError):
            g.check_mask(mask)
        with pytest.raises(InputError):
            edges_within(g, mask)


@given(gnp_graphs(max_n=16))
def test_subgraph_relation_is_reflexive_and_detects_extras(g: Graph) -> None:
    ok, offending = g.is_subgraph_of(g)
    assert ok and offending is None
    full = complete_graph(g.n)
    ok, offending = g.is_subgraph_of(full)
    assert ok
    if g.edge_count < full.edge_count:
        ok, offending = full.is_subgraph_of(g)
        assert not ok
        assert offending is not None and not g.has_edge(*offending)


@given(gnp_graphs(min_n=2, max_n=16), gnp_graphs(min_n=2, max_n=16))
def test_subgraph_check_names_the_first_missing_edge(g: Graph, h: Graph) -> None:
    if g.n != h.n:
        with pytest.raises(InputError, match=f"on {g.n} vertices .* one on {h.n}$"):
            g.is_subgraph_of(h)
        return
    missing = [e for e in g.edges() if not h.has_edge(*e)]
    expected = (False, missing[0]) if missing else (True, None)
    assert g.is_subgraph_of(h) == expected


@pytest.mark.parametrize("rows_per_block", [1, 2, 3])
@pytest.mark.parametrize(
    "extra",
    [[(33, 35), (30, 40), (36, 37)], [(31, 39), (4, 9), (5, 6)], [(39, 40)]],
    ids=["late-block", "two-blocks", "last-row"],
)
def test_subgraph_check_names_the_first_missing_edge_across_blocks(
    monkeypatch, rows_per_block, extra
) -> None:
    # Blocks of a few rows, so the passes after the first block run; the
    # last block of 41 rows is short for two and three rows a block.
    g = complete_graph(41)
    monkeypatch.setattr(
        graphcore, "_SUBGRAPH_BLOCK_BYTES", rows_per_block * g.packed.shape[1]
    )
    h = g.remove_edges(extra)
    assert g.is_subgraph_of(h) == (False, min(extra))
    assert h.is_subgraph_of(g) == (True, None)
    sparse = Graph(41, extra)
    assert sparse.is_subgraph_of(h) == (False, min(extra))
    assert sparse.is_subgraph_of(g) == (True, None)


def test_the_packed_gather_returns_one_flag_per_pair() -> None:
    g = gnp_generate(50, 0.5, 2)
    us = np.array([[0, 1, 2], [3, 4, 5]])
    vs = np.array([[9, 20, 49], [10, 30, 40]])
    found = g.has_edges(us, vs)
    assert found.shape == us.shape
    expected = [
        [g.has_edge(int(u), int(v)) for u, v in zip(row_u, row_v)]
        for row_u, row_v in zip(us, vs)
    ]
    assert (found != 0).tolist() == expected


def test_remove_edges_ignores_pairs_that_are_not_edges() -> None:
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.remove_edges([(0, 2), (3, 3), (1, 4), (-1, 3), (5, -2), (2, 1)])
    assert h.edges() == ((0, 1), (2, 3))
    assert h.edge_count == 2 and h.n == 4
    assert g.remove_edges([(0, 3), (2, 2), (0, 9), (-1, 0)]) == g
    assert g.edges() == ((0, 1), (1, 2), (2, 3))


@given(gnp_graphs(max_n=40), seeds())
def test_remove_edges_within_equals_removing_the_inside_pairs(g: Graph, seed: int) -> None:
    rng = rng_for(seed, 5)
    size = int(rng.integers(0, g.n + 1))
    picks = [
        [],
        [int(rng.integers(g.n))],
        list(range(g.n)),
        sorted(int(v) for v in rng.choice(g.n, size=size, replace=False)),
    ]
    for vs in picks:
        inside = set(vs)
        h = g.remove_edges_within(vs)
        assert h == g.remove_edges(itertools.combinations(vs, 2))
        assert h.edge_count == g.edge_count - edges_within(g, mask_of(vs))
        assert all(h.rows[u] is g.rows[u] for u in range(g.n) if u not in inside)


@given(gnp_graphs(max_n=40), seeds())
def test_square_less_within_equals_squaring_the_graph_less_the_inside(
    g: Graph, seed: int
) -> None:
    rng = rng_for(seed, 6)
    size = int(rng.integers(0, g.n + 1))
    picks = [
        [],
        [int(rng.integers(g.n))],
        list(range(g.n)),
        [int(v) for v in rng.choice(g.n, size=size, replace=False)],
    ]
    for vs in picks:
        sq = graphcore._square(g)
        graphcore._square_less_within(g, sq, vs)
        assert np.array_equal(sq, graphcore._square(g.remove_edges_within(vs)))


def test_square_less_within_rejects_vertices_outside_the_graph() -> None:
    g = complete_graph(4)
    for vs in ([4], [-1, 2]):
        with pytest.raises(InputError):
            graphcore._square_less_within(g, graphcore._square(g), vs)


def test_remove_edges_within_rejects_vertices_outside_the_graph() -> None:
    g = complete_graph(4)
    assert g.remove_edges_within([]) == g
    assert g.remove_edges_within([0, 3]).edges() == ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    for vs in ([4], [-1, 2]):
        with pytest.raises(InputError):
            g.remove_edges_within(vs)


@given(gnp_graphs(min_n=2, max_n=16), seeds())
def test_remove_edges_drops_exactly_the_named_pairs(g: Graph, seed: int) -> None:
    edges = sorted(g.edges())
    rng = rng_for(seed, 4)
    take = int(rng.integers(0, len(edges) + 1)) if edges else 0
    doomed = [edges[int(i)] for i in rng.choice(len(edges), size=take, replace=False)] if take else []
    h = g.remove_edges(doomed)
    assert h.n == g.n
    assert set(h.edges()) == set(g.edges()) - {tuple(sorted(e)) for e in doomed}


@given(gnp_graphs())
def test_edgelist_text_round_trip(g: Graph) -> None:
    text = graph_to_edgelist_text(g)
    h = graph_from_edgelist_text(text)
    assert h.n == g.n and h.edges() == g.edges()


@given(gnp_graphs())
def test_json_obj_round_trip(g: Graph) -> None:
    h = graph_from_json_obj(graph_to_json_obj(g))
    assert h.n == g.n and h.edges() == g.edges()


MALFORMED_GRAPH_JSON = [
    {"n": "x", "edges": []},
    {"n": 3.0, "edges": []},
    {"n": True, "edges": []},
    {"n": None, "edges": []},
    {"n": 3, "edges": 5},
    {"n": 3, "edges": None},
    {"n": 3, "edges": [[0, None]]},
    {"n": 3, "edges": [[None, 1]]},
    {"n": 3, "edges": [[0, 1.5]]},
    {"n": 3, "edges": [[0, True]]},
    {"n": 3, "edges": [["0", 1]]},
    {"n": 3, "edges": [[0, 1, 2]]},
]


@pytest.mark.parametrize("obj", MALFORMED_GRAPH_JSON, ids=json.dumps)
def test_json_obj_accepts_only_integer_counts_and_endpoints(obj) -> None:
    with pytest.raises(InputError):
        graph_from_json_obj(obj)


@given(gnp_graphs())
def test_file_round_trip(tmp_path_factory, g: Graph) -> None:
    # read_graph tells the two formats the CLI writes apart by their text.
    folder = tmp_path_factory.mktemp("graphs")
    for name, text in (
        ("g.edg", graph_to_edgelist_text(g)),
        ("g.json", json.dumps(graph_to_json_obj(g))),
    ):
        path = folder / name
        path.write_text(text, encoding="utf-8")
        h = read_graph(str(path))
        assert h.n == g.n and h.edges() == g.edges()


def test_edgelist_text_rejects_malformed_input() -> None:
    with pytest.raises(InputError):
        graph_from_edgelist_text("")
    with pytest.raises(InputError):
        graph_from_edgelist_text("3 1\n0 0\n")
    with pytest.raises(InputError):
        graph_from_edgelist_text("3 1\n0 5\n")
    with pytest.raises(InputError):
        graph_from_edgelist_text("3 2\n0 1\n")
    # The header counts edges, and a repeated one counts once.
    with pytest.raises(InputError, match="edge 0 1 repeats"):
        graph_from_edgelist_text("3 2\n0 1\n1 0\n")


def edge_lists(max_n: int = 12):
    """A vertex count and a list of loop-free pairs on it."""
    return integers(min_value=1, max_value=max_n).flatmap(
        lambda n: tuples(
            just(n),
            lists(
                tuples(integers(0, n - 1), integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ),
        )
    )


def reference_rows(n: int, edges) -> list[frozenset[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return [frozenset(s) for s in adj]


@given(edge_lists(), data())
def test_bitset_rows_agree_with_a_frozenset_model(case, draw) -> None:
    n, edges = case
    g = Graph(n, edges)
    ref = reference_rows(n, edges)
    assert g.rows == tuple(mask_of(r) for r in ref)
    for u in range(n):
        assert g.neighbors(u) == ref[u]
        assert g.degree(u) == len(ref[u])
        assert bits(g.row(u)) == sorted(ref[u])
        for v in range(n):
            assert g.has_edge(u, v) == (v in ref[u])
    pairs = sorted({(min(e), max(e)) for e in edges})
    assert g.edges() == tuple(pairs)
    assert g.edge_count == len(pairs)
    expected = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        expected[u, v] = expected[v, u] = True
    assert g.matrix.dtype == bool and (g.matrix == expected).all()

    # Missing, self, out-of-range and negative pairs are all ignored.
    doomed = draw.draw(
        lists(tuples(integers(-2, n + 1), integers(-2, n + 1)), max_size=2 * n)
    )
    h = g.remove_edges(doomed)
    kept = [
        (u, v)
        for u, v in pairs
        if (u, v) not in doomed and (v, u) not in doomed
    ]
    assert h.edges() == tuple(kept)
    assert h == Graph(n, kept) and hash(h) == hash(Graph(n, kept))
    assert h.is_subgraph_of(g) == (True, None)
    extra = [e for e in pairs if e not in kept]
    assert g.is_subgraph_of(h) == ((False, extra[0]) if extra else (True, None))
    assert (g == h) == (not extra)
    assert g != Graph(n + 1, edges)


def test_bits_and_masks_invert_each_other() -> None:
    assert bits(0) == [] and mask_of([]) == 0
    for vs in ([3], [0, 5, 64, 65], list(range(0, 300, 7)), list(range(40))):
        assert bits(mask_of(vs)) == vs
        assert mask_of(reversed(vs)) == mask_of(vs)


# Vertex sets on both sides of bits' small-mask cutoff, over narrow and
# multi-word widths.
small_and_large_sets = integers(min_value=1, max_value=3000).flatmap(
    lambda width: sets(integers(min_value=0, max_value=width - 1), max_size=60)
)


@given(small_and_large_sets)
def test_bits_lists_the_same_vertices_on_both_paths(vs: set[int]) -> None:
    mask = mask_of(vs)
    assert bits(mask) == sorted(vs)
    # Force each path in turn: the lowest-bit loop and the numpy unpacking.
    cutoff = graphcore._SMALL_MASK_BITS
    try:
        for forced in (-1, 10**6):
            graphcore._SMALL_MASK_BITS = forced
            assert bits(mask) == sorted(vs)
    finally:
        graphcore._SMALL_MASK_BITS = cutoff


@given(small_and_large_sets, integers(min_value=0, max_value=2**64 - 1))
def test_pick_bit_is_the_lowest_listed_bit_at_or_above_the_offset(
    vs: set[int], draw: int
) -> None:
    assume(vs)
    mask = mask_of(vs)
    listed = bits(mask)
    width = listed[-1] + 1
    offset = draw % width
    assert pick_bit(mask, draw) == min(v for v in listed if v >= offset)
    # Over one period of offsets, each bit is picked once per offset in the
    # gap above the next lower bit.
    counts = Counter(pick_bit(mask, d) for d in range(draw, draw + width))
    assert counts == {v: v - prev for prev, v in zip([-1, *listed], listed)}


def test_masks_reject_negative_vertices() -> None:
    with pytest.raises(InputError):
        mask_of([3, -1])
    with pytest.raises(InputError):
        bits(-1)
    for mask in (-5, 0):
        with pytest.raises(InputError, match="positive"):
            pick_bit(mask, 0)


@given(gnp_graphs(max_n=40), seeds())
def test_remove_marked_edges_equals_removing_the_marked_pairs(g: Graph, seed: int) -> None:
    upper = np.triu(rng_for(seed, 6).random((g.n, g.n)) < 0.3, 1)
    marked = upper | upper.T
    h = g.remove_marked_edges(marked)
    assert h == g.remove_edges(np.argwhere(upper).tolist())
    assert all(h.rows[u] is g.rows[u] for u in range(g.n) if not marked[u].any())


@pytest.mark.parametrize("v", [-1, 5, 99])
def test_vertex_views_reject_vertices_outside_the_graph(v: int) -> None:
    g = complete_graph(5)
    with pytest.raises(InputError):
        g.has_edge(0, v)
    with pytest.raises(InputError):
        g.has_edge(v, 0)
    with pytest.raises(InputError):
        g.neighbors(v)
    with pytest.raises(InputError):
        g.row(v)
    with pytest.raises(InputError):
        g.degree(v)


def test_graph_collapses_duplicates_and_rejects_loops() -> None:
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1
    with pytest.raises(InputError):
        Graph(3, [(2, 2)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_graph_rejects_edges_that_are_not_integer_pairs() -> None:
    for edge in ((0, 1.5), (0, "1"), (0,), (0, 1, 2), (0, True), 7, None):
        with pytest.raises(InputError):
            Graph(3, [edge])
    assert Graph(3, [(np.int64(0), np.int32(2))]).has_edge(0, 2)


@given(integers(min_value=6, max_value=30), floats(min_value=0.02, max_value=0.15))
def test_family_membership_holds_for_the_graph_itself(n: int, alpha: float) -> None:
    gamma = complete_graph(n)
    params = FamilyParams(alpha=alpha, p=1.0)
    report = check_family_membership(gamma, gamma, params)
    assert report.ok
    assert report.min_degree == n - 1
    assert report.min_codegree == n - 2


@given(gnp_graphs(min_n=1, max_n=16), floats(min_value=0.01, max_value=0.5))
def test_family_membership_names_the_first_minimizers(g: Graph, alpha: float) -> None:
    report = check_family_membership(g, g, FamilyParams(alpha=alpha, p=0.5))
    degrees = [g.degree(v) for v in range(g.n)]
    assert report.min_degree == min(degrees)
    assert report.min_degree_vertex == degrees.index(min(degrees))
    shared = [len(g.neighbors(u) & g.neighbors(v)) for u, v in g.edges()]
    if shared:
        assert report.min_codegree == min(shared)
        assert report.min_codegree_edge == g.edges()[shared.index(min(shared))]
    else:
        assert report.min_codegree is None and report.min_codegree_edge is None


def test_family_membership_flags_a_starved_vertex() -> None:
    n = 12
    gamma = complete_graph(n)
    g = gamma.remove_edges([(0, v) for v in range(1, n - 1)])
    params = FamilyParams(alpha=0.1, p=1.0)
    report = check_family_membership(gamma, g, params)
    assert not report.ok
    assert report.min_degree_vertex == 0


@pytest.mark.parametrize("n", [10, 100])
def test_family_membership_floors_follow_the_graph(n: int) -> None:
    # The floors scale with the graph checked: (2/3 + .05) * 100 * .5 = 35.8
    # for G(100, .5), not the 3.58 a stated n of 10 gave.
    g = gnp_generate(n, 0.5, 1)
    report = check_family_membership(g, g, FamilyParams(alpha=0.05, p=0.5))
    assert report.degree_threshold == pytest.approx((2 / 3 + 0.05) * n * 0.5)
    assert report.codegree_threshold == pytest.approx(0.05 * n * 0.25)


@pytest.mark.parametrize(
    "alpha, p, message",
    [
        # A NaN alpha once passed and made every floor NaN.
        (float("nan"), 0.5, "^alpha must be a finite positive real"),
        (float("inf"), 0.5, "^alpha must be a finite positive real"),
        (0.0, 0.5, "^alpha must be a finite positive real"),
        ("x", 0.5, "^alpha must be a finite positive real"),
        (True, 0.5, "^alpha must be a finite positive real"),
        (0.1, float("nan"), r"^p must lie in \[0, 1\]"),
        (0.1, 1.5, r"^p must lie in \[0, 1\]"),
        # A string p once raised TypeError in the comparison.
        (0.1, "x", "^p must be a real number"),
        (0.1, 0.0, "^p must be positive"),
    ],
)
def test_family_params_reject_what_no_floor_can_use(alpha, p, message) -> None:
    with pytest.raises(InputError, match=message):
        FamilyParams(alpha, p)
    assert FamilyParams(np.float64(0.1), 1).p == 1


@given(seeds())
def test_rng_streams_differ_by_salt(seed: int) -> None:
    a = rng_for(seed, 1).integers(0, 2**30, size=8)
    b = rng_for(seed, 2).integers(0, 2**30, size=8)
    c = rng_for(seed, 1).integers(0, 2**30, size=8)
    assert list(a) == list(c)
    assert list(a) != list(b)


def _derived_graphs(g: Graph, seed: int) -> list[Graph]:
    """``g`` less some pairs, by each way of deleting edges."""
    n = g.n
    rng = rng_for(seed, 9)
    pairs = [tuple(int(v) for v in rng.integers(0, max(n, 1), 2)) for _ in range(n)]
    inside = [int(v) for v in rng.permutation(n)[: n // 3]]
    marked = np.zeros((n, n), bool)
    for u, v in pairs:
        marked[u, v] = marked[v, u] = u != v
    return [
        g.remove_edges(pairs),
        g.remove_edges_within(inside),
        g.remove_marked_edges(marked),
    ]


@given(integers(0, 40), floats(0, 1), integers(0, 2**31 - 1))
def test_the_packed_view_is_the_rows_packed_on_every_graph(n, p, seed) -> None:
    generated = gnp_generate(n, p, seed)
    built = Graph(n, generated.edges())
    for g in [generated, built, *_derived_graphs(generated, seed)]:
        assert g.packed.dtype == np.uint8 and not g.packed.flags.writeable
        assert (g.packed == packed_rows(g.rows, g.n)).all()
        unpacked = np.unpackbits(g.packed, axis=1, count=g.n, bitorder="little")
        assert (g.matrix == unpacked.view(bool)).all()


@given(integers(0, 40), floats(0, 1), integers(0, 2**31 - 1))
def test_degrees_are_the_row_popcounts_on_every_graph(n, p, seed) -> None:
    generated = gnp_generate(n, p, seed)
    built = Graph(n, generated.edges())
    attacked = k3_attack(generated, 0.1, seed).attacked
    for g in [generated, built, attacked, *_derived_graphs(generated, seed)]:
        assert g.degrees.dtype == np.intp
        assert g.degrees.tolist() == [r.bit_count() for r in g.rows]
        assert g.edge_count == len(g.edges())
        with pytest.raises(ValueError, match="read-only"):
            g.degrees[:] = 0
        with pytest.raises(AttributeError):
            g.degrees = np.zeros(n, np.intp)


@pytest.mark.parametrize("n, p, seed", [(120, 0.3, 2), (300, 0.5, 3)])
def test_the_witness_search_leaves_the_degree_vector_as_it_was(n, p, seed) -> None:
    # The search counts the alive degrees down in its own copy.
    host = gnp_generate(n, p, seed)
    for g in (host, k3_attack(host, 0.1, 5).attacked):
        before = g.degrees.tolist()
        find_infeasibility_witness(g)
        assert g.degrees.tolist() == before


def test_a_generated_graph_holds_its_packed_view_from_birth(monkeypatch) -> None:
    # gnp_generate builds the packed rows anyway, so it hands them over;
    # nothing packs the rows of a generated graph again.
    g = gnp_generate(300, 0.5, 1)
    monkeypatch.setattr(graphcore, "packed_rows", None)
    assert g._packed is not None and g.packed is g.packed
    assert g.matrix.shape == (300, 300)
    # Any other graph packs its rows once, on first use.
    monkeypatch.undo()
    built = Graph(300, g.edges())
    assert built._packed is None
    first = built.packed
    assert built.packed is first and (first == g.packed).all()


def test_a_solve_on_a_generated_host_builds_no_matrix() -> None:
    # Every bulk pass of a solve reads the packed view; the boolean matrix
    # is for BLAS only.
    g = gnp_generate(200, 0.5, 3)
    assert isinstance(find_square_ham(g), Certificate)
    assert g._matrix is None


def test_masks_read_numpy_integers_as_ints() -> None:
    # Each once shifted a numpy integer as an int64: the body came out
    # negative, and the other two raised OverflowError.
    assert Absorber(tuple(np.arange(60, 75)), (62,)).body() == mask_of(range(60, 75))
    g = complete_graph(100)
    numpy_witness = InfeasibilityWitness("independent-set", tuple(np.arange(64, 99)))
    plain_witness = InfeasibilityWitness("independent-set", tuple(range(64, 99)))
    assert verify_witness(g, numpy_witness) == verify_witness(g, plain_witness)
    assert mask_of([np.int64(3), 70]) == 1 << 3 | 1 << 70
