import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers

from squareham import (
    ConnectionRequest,
    InputError,
    build_projection_graph,
    complete_graph,
    connect_all,
    connect_one,
    extract_pseudo_path,
    gnp_generate,
    rng_for,
    validate_embedding,
)
from squareham.connector import split_step
from squareham.graphcore import random_partition


def host_and_jobs(n: int, p: float, seed: int, jobs: int = 1):
    """A random host, disjoint port edges, and the remaining reservoir."""
    g = gnp_generate(n, p, seed)
    rng = rng_for(seed, 31)
    taken: set[int] = set()
    pairs = []
    for _ in range(jobs):
        found = None
        for _ in range(2000):
            u = int(rng.integers(n))
            if u in taken:
                continue
            nbrs = sorted(g.neighbors(u) - taken)
            if not nbrs:
                continue
            v = nbrs[int(rng.integers(len(nbrs)))]
            found = (u, v)
            break
        if found is None:
            return None
        frm = found
        to = None
        for _ in range(2000):
            u = int(rng.integers(n))
            if u in taken | set(frm):
                continue
            nbrs = sorted(g.neighbors(u) - taken - set(frm))
            if not nbrs:
                continue
            v = nbrs[int(rng.integers(len(nbrs)))]
            to = (u, v)
            break
        if to is None:
            return None
        pairs.append((frm, to))
        taken |= {*frm, *to}
    w = tuple(v for v in range(n) if v not in taken)
    return g, tuple(pairs), w


@given(integers(min_value=4, max_value=8), integers(min_value=0, max_value=200))
def test_short_connections_on_a_complete_graph_always_land(
    length: int, seed: int
) -> None:
    g = complete_graph(24)
    req = ConnectionRequest(
        pairs=(((0, 1), (2, 3)),), w=tuple(range(4, 24)), b=1, length=length
    )
    res = connect_one(g, req, (), seed=seed)
    assert res.ok
    emb = res.embedding
    assert validate_embedding(g, emb, connect_from=(0, 1), connect_to=(2, 3)).ok
    assert len(emb.vertices) == length
    assert set(emb.vertices[2:-2]) <= set(req.w)


@given(integers(min_value=0, max_value=100))
def test_interiors_avoid_the_exclusion_set(seed: int) -> None:
    bundle = host_and_jobs(60, 0.6, seed)
    if bundle is None:
        return
    g, pairs, w = bundle
    x = set(w[::3])
    req = ConnectionRequest(pairs=pairs, w=w, b=1, length=6)
    res = connect_one(g, req, x, seed=seed)
    if not res.ok:
        return
    interior = set(res.embedding.vertices[2:-2])
    assert not interior & x
    assert interior <= set(w)


@given(integers(min_value=0, max_value=100))
def test_connection_is_deterministic_per_seed(seed: int) -> None:
    bundle = host_and_jobs(50, 0.5, seed)
    if bundle is None:
        return
    g, pairs, w = bundle
    req = ConnectionRequest(pairs=pairs, w=w, b=1, length=6)
    first = connect_one(g, req, (), seed=seed)
    second = connect_one(g, req, (), seed=seed)
    assert first.ok == second.ok
    if first.ok:
        assert first.embedding == second.embedding
        assert first.seed_index == second.seed_index


@settings(max_examples=10)
@given(integers(min_value=0, max_value=50))
def test_two_sided_growth_produces_valid_long_paths(seed: int) -> None:
    bundle = host_and_jobs(300, 0.5, seed)
    if bundle is None:
        return
    g, pairs, w = bundle
    req = ConnectionRequest(pairs=pairs, w=w, b=1, length=12)
    res = connect_one(g, req, (), seed=seed, route="projection")
    if not res.ok:
        return
    (frm, to) = pairs[res.seed_index]
    assert validate_embedding(g, res.embedding, connect_from=frm, connect_to=to).ok
    assert len(res.embedding.vertices) == 12


@settings(max_examples=10)
@given(integers(min_value=0, max_value=50))
def test_width_two_connections_form_backbones(seed: int) -> None:
    bundle = host_and_jobs(300, 0.5, seed)
    if bundle is None:
        return
    g, pairs, w = bundle
    req = ConnectionRequest(pairs=pairs, w=w, b=2, length=8)
    res = connect_one(g, req, (), seed=seed)
    if not res.ok:
        return
    assert res.embedding.gadget.kind == "backbone"
    (frm, to) = pairs[res.seed_index]
    assert validate_embedding(g, res.embedding, connect_from=frm, connect_to=to).ok


def test_request_validation_rejects_malformed_jobs() -> None:
    g = complete_graph(10)
    with pytest.raises(InputError):
        connect_one(
            g,
            ConnectionRequest(pairs=(((0, 1), (0, 2)),), w=(5, 6), length=4),
            (),
            seed=0,
        )
    with pytest.raises(InputError):
        connect_one(
            g,
            ConnectionRequest(pairs=(((0, 1), (2, 3)),), w=(5, 6), length=3, b=2),
            (),
            seed=0,
        )
    sparse = gnp_generate(10, 0.0, 0)
    with pytest.raises(InputError):
        connect_one(
            sparse,
            ConnectionRequest(pairs=(((0, 1), (2, 3)),), w=(5, 6), length=4),
            (),
            seed=0,
        )
    with pytest.raises(InputError):
        connect_one(
            g,
            ConnectionRequest(pairs=(((0, 1), (2, 3)),), w=(5, 6), length=4),
            (),
            seed=0,
            route="sideways",
        )


def test_direct_route_refuses_long_targets() -> None:
    g = complete_graph(30)
    req = ConnectionRequest(
        pairs=(((0, 1), (2, 3)),), w=tuple(range(4, 30)), b=1, length=12
    )
    with pytest.raises(InputError):
        connect_one(g, req, (), seed=0, route="direct")


@given(integers(min_value=0, max_value=60))
def test_connect_all_keeps_job_interiors_disjoint(seed: int) -> None:
    bundle = host_and_jobs(120, 0.6, seed, jobs=3)
    if bundle is None:
        return
    g, pairs, w = bundle
    req = ConnectionRequest(pairs=pairs, w=w, b=1, length=6, retries=3)
    res = connect_all(g, req, seed=seed)
    if not res.ok:
        return
    assert len(res.embeddings) == len(pairs)
    seen: set[int] = set()
    for emb, (frm, to) in zip(res.embeddings, pairs):
        assert validate_embedding(g, emb, connect_from=frm, connect_to=to).ok
        interior = set(emb.vertices[2:-2])
        assert not interior & seen
        seen |= interior


def test_projection_layers_grow_one_class_per_step() -> None:
    g = gnp_generate(200, 0.5, 7)
    edges = sorted(g.edges())
    seed_edge = edges[0]
    pool = [v for v in range(g.n) if v not in seed_edge]
    m = 6
    part = random_partition(pool, [28] * m, rng_for(7, 32))
    f = build_projection_graph(
        g, (seed_edge,), tuple(range(1, m + 1)), part.classes, (), b=1, depth=m
    )
    assert len(f.layers) == m + 1
    for t in range(1, m + 1):
        cls = set(f.step_class(t))
        for edge in f.layers[t]:
            assert edge.new in cls


def test_extracted_pseudo_paths_use_one_vertex_per_class() -> None:
    g = gnp_generate(200, 0.5, 9)
    edges = sorted(g.edges())
    seed_edge = edges[0]
    excluded = tuple(
        v for v in sorted(g.neighbors(seed_edge[0])) if v not in seed_edge
    )[:5]
    pool = [v for v in range(g.n) if v not in seed_edge and v not in excluded]
    m = 6
    part = random_partition(pool, [25] * m, rng_for(9, 33))
    f = build_projection_graph(
        g,
        (seed_edge,),
        tuple(range(1, m + 1)),
        part.classes,
        excluded,
        b=1,
        depth=m,
    )
    for j in (1, 2, 3):
        t = 2 * j
        layer = [e for e in f.layers[t] if e.flavor == "consecutive"]
        for edge in layer[:10]:
            emb, seed_idx = extract_pseudo_path(f, j, (edge.old, edge.new))
            assert seed_idx == 0
            assert emb.vertices[:2] == seed_edge
            assert not set(emb.vertices[2:]) & set(excluded)
            per_class = [
                len(set(emb.vertices[2:]) & set(cls)) for cls in part.classes
            ]
            assert all(c <= 1 for c in per_class)
            assert sum(per_class) == t


def test_extract_rejects_pairs_missing_from_the_layer() -> None:
    g = complete_graph(30)
    pool = list(range(2, 30))
    part = random_partition(pool, [9, 9, 9], rng_for(1, 34))
    f = build_projection_graph(
        g, ((0, 1),), (1, 2), part.classes[:2], (), b=1, depth=2
    )
    with pytest.raises(InputError):
        extract_pseudo_path(f, 1, (998, 999))
    with pytest.raises(InputError):
        extract_pseudo_path(f, 5, (0, 1))


@given(integers(min_value=3, max_value=12), integers(min_value=1, max_value=2))
def test_split_step_lands_in_the_interior(m: int, b: int) -> None:
    if b == 2 and m % 4 != 0:
        return
    s = split_step(m, b)
    assert 1 <= s <= m
