import itertools
import math

import pytest
from hypothesis import given
from hypothesis.strategies import floats, integers, lists

from squareham import (
    Graph,
    InputError,
    complete_graph,
    gnp_generate,
    read_graph,
    rng_for,
    write_graph,
)
from squareham.graphcore import (
    FamilyParams,
    check_family_membership,
    codegrees,
    edges_within,
    graph_from_edgelist_text,
    graph_from_json_obj,
    graph_to_edgelist_text,
    graph_to_json_obj,
    random_partition,
    triangle_profile,
)

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


def test_negative_seeds_and_salts_are_input_errors() -> None:
    with pytest.raises(InputError):
        rng_for(-1)
    with pytest.raises(InputError):
        rng_for(0, 3, -1)
    with pytest.raises(InputError):
        gnp_generate(5, 0.5, -1)


@given(integers(min_value=1, max_value=50))
def test_complete_graph_has_all_pairs(n: int) -> None:
    g = complete_graph(n)
    assert g.edge_count == n * (n - 1) // 2
    assert all(g.degree(v) == n - 1 for v in range(n))


@given(gnp_graphs(max_n=14))
def test_triangle_profile_matches_per_vertex_enumeration(g: Graph) -> None:
    profile = triangle_profile(g)
    assert list(profile) == [brute_triangles_at(g, v) for v in range(g.n)]


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
    assert edges_within(g, sub) == expected


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
        assert g.is_subgraph_of(h) == (False, None)
        return
    missing = [e for e in g.edges() if not h.has_edge(*e)]
    expected = (False, missing[0]) if missing else (True, None)
    assert g.is_subgraph_of(h) == expected


def test_remove_edges_ignores_pairs_that_are_not_edges() -> None:
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.remove_edges([(0, 2), (3, 3), (1, 4), (-1, 3), (5, -2), (2, 1)])
    assert h.edges() == ((0, 1), (2, 3))
    assert h.edge_count == 2 and h.n == 4
    assert g.remove_edges([(0, 3), (2, 2), (0, 9), (-1, 0)]) == g
    assert g.edges() == ((0, 1), (1, 2), (2, 3))


@given(gnp_graphs(min_n=2, max_n=16), seeds())
def test_remove_edges_drops_exactly_the_named_pairs(g: Graph, seed: int) -> None:
    edges = sorted(g.edges())
    rng = rng_for(seed, 4)
    take = int(rng.integers(0, len(edges) + 1)) if edges else 0
    doomed = [edges[int(i)] for i in rng.choice(len(edges), size=take, replace=False)] if take else []
    h = g.remove_edges(doomed)
    assert h.n == g.n
    assert set(h.edges()) == set(g.edges()) - {tuple(sorted(e)) for e in doomed}


@given(seeds(), integers(min_value=0, max_value=30))
def test_random_partition_classes_are_disjoint_and_sized(seed: int, n: int) -> None:
    sizes = [n // 3, n // 4]
    part = random_partition(range(n), sizes, rng_for(seed, 5))
    seen: set[int] = set()
    for cls, want in zip(part.classes, sizes):
        assert len(cls) == want
        assert not seen & set(cls)
        seen |= set(cls)
    assert seen | set(part.residue) == set(range(n))
    assert len(seen) + len(part.residue) == n


@given(seeds())
def test_random_partition_is_deterministic(seed: int) -> None:
    a = random_partition(range(20), [5, 5, 5], rng_for(seed, 6))
    b = random_partition(range(20), [5, 5, 5], rng_for(seed, 6))
    assert a.classes == b.classes
    assert a.residue == b.residue


def test_random_partition_rejects_oversized_request() -> None:
    with pytest.raises(InputError):
        random_partition(range(4), [3, 3], rng_for(0, 7))


@given(gnp_graphs())
def test_edgelist_text_round_trip(g: Graph) -> None:
    text = graph_to_edgelist_text(g)
    h = graph_from_edgelist_text(text)
    assert h.n == g.n and h.edges() == g.edges()


@given(gnp_graphs())
def test_json_obj_round_trip(g: Graph) -> None:
    h = graph_from_json_obj(graph_to_json_obj(g))
    assert h.n == g.n and h.edges() == g.edges()


@given(gnp_graphs())
def test_file_round_trip(tmp_path_factory, g: Graph) -> None:
    path = tmp_path_factory.mktemp("graphs") / "g.edg"
    write_graph(g, path)
    h = read_graph(path)
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


def test_graph_collapses_duplicates_and_rejects_loops() -> None:
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edge_count == 1
    with pytest.raises(InputError):
        Graph(3, [(2, 2)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


@given(integers(min_value=6, max_value=30), floats(min_value=0.02, max_value=0.15))
def test_family_membership_holds_for_the_graph_itself(n: int, alpha: float) -> None:
    gamma = complete_graph(n)
    params = FamilyParams(alpha=alpha, p=1.0, n=n)
    report = check_family_membership(gamma, gamma, params)
    assert report.ok
    assert report.min_degree == n - 1
    assert report.min_codegree == n - 2


@given(gnp_graphs(min_n=1, max_n=16), floats(min_value=0.01, max_value=0.5))
def test_family_membership_names_the_first_minimizers(g: Graph, alpha: float) -> None:
    report = check_family_membership(g, g, FamilyParams(alpha=alpha, p=0.5, n=g.n))
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
    params = FamilyParams(alpha=0.1, p=1.0, n=n)
    report = check_family_membership(gamma, g, params)
    assert not report.ok
    assert report.min_degree_vertex == 0


@given(seeds())
def test_rng_streams_differ_by_salt(seed: int) -> None:
    a = rng_for(seed, 1).integers(0, 2**30, size=8)
    b = rng_for(seed, 2).integers(0, 2**30, size=8)
    c = rng_for(seed, 1).integers(0, 2**30, size=8)
    assert list(a) == list(c)
    assert list(a) != list(b)
