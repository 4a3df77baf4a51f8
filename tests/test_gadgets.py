import itertools

import pytest
from hypothesis import given
from hypothesis.strategies import integers, lists, permutations

from squareham import (
    Certificate,
    Embedding,
    Graph,
    InputError,
    build_gadget,
    complete_graph,
    is_square_path,
    validate_embedding,
    verify_certificate,
)
from squareham.gadgets import (
    absorber_traversal,
    backbone_label,
    square_path_pairs,
)
from squareham.graphcore import rng_for

from strategies import gnp_graphs, seeds


def square_path_edge_oracle(length: int) -> set[tuple[int, int]]:
    """All label pairs at distance one or two along a path."""
    return {
        (i, j)
        for i in range(length)
        for j in range(i + 1, min(i + 3, length))
    }


@given(integers(min_value=2, max_value=40))
def test_square_path_edge_set_matches_distance_two_oracle(length: int) -> None:
    gadget = build_gadget("square-path", length=length)
    assert set(gadget.edges) == square_path_edge_oracle(length)
    assert len(gadget.edges) == 2 * length - 3
    assert gadget.port_from == (0, 1)
    assert gadget.port_to == (length - 2, length - 1)


@given(integers(min_value=2, max_value=8))
def test_backbone_edge_count_and_ports(blocks: int) -> None:
    gadget = build_gadget("backbone", blocks=blocks)
    assert gadget.labels == 4 * blocks
    assert len(gadget.edges) == 8 * blocks - 3
    assert gadget.port_from == (1, 0)
    assert gadget.port_to == (3, 2)


@given(integers(min_value=2, max_value=8))
def test_backbone_label_is_a_bijection(blocks: int) -> None:
    seen = {
        backbone_label(i, j, blocks)
        for i in range(1, blocks + 1)
        for j in range(1, 5)
    }
    assert seen == set(range(4 * blocks))


def test_build_gadget_rejects_bad_parameters() -> None:
    with pytest.raises(InputError):
        build_gadget("no-such-kind", length=4)
    with pytest.raises(InputError):
        build_gadget("square-path", length=1)
    with pytest.raises(InputError):
        build_gadget("backbone", blocks=1)
    with pytest.raises(InputError):
        build_gadget("square-path")


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


def test_validate_embedding_accepts_exact_image_and_flags_gaps() -> None:
    gadget = build_gadget("square-path", length=5)
    host = Graph(5, sorted(square_path_edge_oracle(5)))
    good = validate_embedding(host, Embedding(gadget, (0, 1, 2, 3, 4)))
    assert good.ok
    bad = validate_embedding(host, Embedding(gadget, (0, 2, 1, 3, 4)))
    assert not bad.ok
    assert bad.reason
    dup = validate_embedding(host, Embedding(gadget, (0, 1, 2, 3, 0)))
    assert not dup.ok


def test_validate_embedding_checks_port_images() -> None:
    gadget = build_gadget("square-path", length=4)
    host = complete_graph(8)
    emb = Embedding(gadget, (2, 3, 4, 5))
    assert validate_embedding(host, emb, connect_from=(2, 3), connect_to=(4, 5)).ok
    wrong_entry = validate_embedding(host, emb, connect_from=(3, 2))
    assert not wrong_entry.ok and "entry port" in wrong_entry.reason
    wrong_exit = validate_embedding(host, emb, connect_to=(5, 4))
    assert not wrong_exit.ok and "exit port" in wrong_exit.reason


# -- absorber traversals ------------------------------------------------------


def synthetic_unit_host(blocks: int, connector_length: int):
    """A host carrying exactly one absorber unit's guaranteed edges.

    Vertices: star core ``u1, u2, x, v1, v2`` occupies the first block's
    slots plus the absorbee; remaining backbone slots and connector
    interiors get fresh vertices.  Returns the host graph, the backbone
    vertex assignment, the connector interiors, and the absorbee.
    """
    interiors_per = connector_length - 4
    backbone = build_gadget("backbone", blocks=blocks)
    x = 0
    u1, u2, v1, v2 = 1, 2, 3, 4
    verts = [0] * (4 * blocks)
    verts[0], verts[1], verts[2], verts[3] = u1, u2, v1, v2
    nxt = 5
    for label in range(4, 4 * blocks):
        verts[label] = nxt
        nxt += 1
    interiors = []
    for _ in range(blocks - 1):
        interiors.append(tuple(range(nxt, nxt + interiors_per)))
        nxt += interiors_per
    edges: set[tuple[int, int]] = set()
    core = (u1, u2, x, v1, v2)
    for i, j in square_path_edge_oracle(5):
        edges.add(tuple(sorted((core[i], core[j]))))
    for a, b in backbone.edges:
        edges.add(tuple(sorted((verts[a], verts[b]))))
    conn = build_gadget("square-path", length=connector_length)
    for i in range(1, blocks):
        tail = (
            verts[backbone_label(i, 3, blocks)],
            verts[backbone_label(i, 4, blocks)],
        )
        head = (
            verts[backbone_label(i + 1, 1, blocks)],
            verts[backbone_label(i + 1, 2, blocks)],
        )
        image = tail + interiors[i - 1] + head
        for a, b in conn.edges:
            edges.add(tuple(sorted((image[a], image[b]))))
    host = Graph(nxt, sorted(edges))
    return host, tuple(verts), tuple(interiors), x


@pytest.mark.parametrize("blocks", [2, 3, 4])
@pytest.mark.parametrize("connector_length", [4, 8])
def test_both_traversals_are_square_paths_on_the_unit_edges(
    blocks: int, connector_length: int
) -> None:
    host, verts, interiors, x = synthetic_unit_host(blocks, connector_length)
    everything = set(verts) | {x} | {v for i in interiors for v in i}
    entry = (verts[0], verts[1])
    exit_ = (
        verts[backbone_label(blocks, 3, blocks)],
        verts[backbone_label(blocks, 4, blocks)],
    )
    for mode, covered in (
        ("include", everything),
        ("exclude", everything - {x}),
    ):
        walk = absorber_traversal(verts, interiors, x, mode)
        assert set(walk) == covered
        assert len(walk) == len(covered)
        assert is_square_path(host, walk)
        assert walk[:2] == entry
        assert walk[-2:] == exit_


def test_traversal_rejects_bad_arguments() -> None:
    with pytest.raises(InputError):
        absorber_traversal(tuple(range(4)), (), 9, "include")
    with pytest.raises(InputError):
        absorber_traversal(tuple(range(10)), ((),), 9, "include")
    with pytest.raises(InputError):
        absorber_traversal(tuple(range(12)), ((),), 9, "include")
    with pytest.raises(InputError):
        absorber_traversal(tuple(range(8)), ((),), 9, "sideways")
