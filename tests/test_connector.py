import pytest
from hypothesis import given, settings
from hypothesis.strategies import integers, sampled_from

from squareham import (
    ConnectionRequest,
    InputError,
    build_gadget,
    complete_graph,
    connect_all,
    connect_one,
    connector,
    gnp_generate,
    rng_for,
    validate_embedding,
)
from squareham.graphcore import bits, mask_of


def host_and_jobs(n: int, p: float, seed: int, jobs: int = 1):
    """A random host, disjoint port edges, and the remaining reservoir mask."""
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
    w = mask_of(v for v in range(n) if v not in taken)
    return g, tuple(pairs), w


@given(integers(min_value=4, max_value=16), integers(min_value=0, max_value=200))
def test_short_connections_on_a_complete_graph_always_land(
    length: int, seed: int
) -> None:
    g = complete_graph(24)
    req = ConnectionRequest((0, 1), (2, 3), mask_of(range(4, 24)), b=1, length=length)
    res = connect_one(g, req, seed=seed)
    assert res.ok
    emb = res.embedding
    assert validate_embedding(g, emb, connect_from=(0, 1), connect_to=(2, 3)).ok
    assert len(emb.vertices) == length
    assert mask_of(emb.vertices[2:-2]) & ~req.w == 0


@given(integers(min_value=0, max_value=100))
def test_interiors_avoid_the_exclusion_set(seed: int) -> None:
    bundle = host_and_jobs(60, 0.6, seed)
    if bundle is None:
        return
    g, ((frm, to),), w = bundle
    x = mask_of(bits(w)[::3])
    req = ConnectionRequest(frm, to, w, b=1, length=6)
    res = connect_all(g, [req], seed=seed, x=x)
    if not res.ok:
        return
    interior = mask_of(res.embeddings[0].vertices[2:-2])
    assert not interior & x
    assert interior & ~w == 0


@given(integers(min_value=0, max_value=100))
def test_connection_is_deterministic_per_seed(seed: int) -> None:
    bundle = host_and_jobs(50, 0.5, seed)
    if bundle is None:
        return
    g, ((frm, to),), w = bundle
    req = ConnectionRequest(frm, to, w, b=1, length=6)
    first = connect_one(g, req, seed=seed)
    second = connect_one(g, req, seed=seed)
    assert first.ok == second.ok
    if first.ok:
        assert first.embedding == second.embedding


@settings(max_examples=10)
@given(integers(min_value=0, max_value=50))
def test_long_direct_connections_produce_valid_square_paths(seed: int) -> None:
    bundle = host_and_jobs(300, 0.5, seed)
    if bundle is None:
        return
    g, ((frm, to),), w = bundle
    req = ConnectionRequest(frm, to, w, b=1, length=12)
    res = connect_one(g, req, seed=seed)
    assert res.ok
    assert validate_embedding(g, res.embedding, connect_from=frm, connect_to=to).ok
    assert len(res.embedding.vertices) == 12


@settings(max_examples=10)
@given(integers(min_value=0, max_value=50), sampled_from((8, 12, 16)))
def test_width_two_connections_form_backbones(seed: int, length: int) -> None:
    bundle = host_and_jobs(300, 0.5, seed)
    if bundle is None:
        return
    g, ((frm, to),), w = bundle
    req = ConnectionRequest(frm, to, w, b=2, length=length)
    res = connect_one(g, req, seed=seed)
    assert res.ok
    assert res.embedding.gadget.kind == "backbone"
    assert validate_embedding(g, res.embedding, connect_from=frm, connect_to=to).ok


def test_request_validation_rejects_malformed_jobs() -> None:
    g = complete_graph(10)
    with pytest.raises(InputError):
        connect_one(g, ConnectionRequest((0, 1), (0, 2), 0b1100000, length=4), seed=0)
    with pytest.raises(InputError):
        connect_one(
            g, ConnectionRequest((0, 1), (2, 3), 0b1100000, length=3, b=2), seed=0
        )
    sparse = gnp_generate(10, 0.0, 0)
    with pytest.raises(InputError):
        connect_one(
            sparse, ConnectionRequest((0, 1), (2, 3), 0b1100000, length=4), seed=0
        )
    req = ConnectionRequest((0, 1), (2, 3), 0b1100000, length=4)
    for retries in (0, -4):
        with pytest.raises(InputError):
            connect_all(g, [req], seed=0, retries=retries)


@pytest.mark.parametrize("bad", [-1, 10])
def test_reservoir_vertices_outside_the_host_are_rejected(bad: int) -> None:
    # With seed 0 the search lands on vertex 8 or 7 before it would reach
    # the bad one; the reservoir is checked before any search starts.  A
    # negative vertex has no bit, so it is rejected as the mask is formed.
    g = complete_graph(10)
    with pytest.raises(InputError):
        w = mask_of((4, 5, 6, 7, 8, 9, bad))
        req = ConnectionRequest((0, 1), (2, 3), w, length=5)
        connect_one(g, req, seed=0)


def test_reservoir_masks_outside_the_host_are_rejected() -> None:
    g = complete_graph(10)
    for w in (mask_of((4, 5, 10)), -1):
        with pytest.raises(InputError):
            connect_one(g, ConnectionRequest((0, 1), (2, 3), w, length=5), seed=0)
    # A vertex outside the host is fine once it is excluded.
    req = ConnectionRequest((0, 1), (2, 3), mask_of((4, 5, 6, 10)), length=5)
    with pytest.raises(InputError):
        connect_one(g, req, seed=0)
    assert connect_all(g, [req], seed=0, x=1 << 10).ok
    # A negative exclusion mask would silently exclude every vertex.
    with pytest.raises(InputError):
        connect_all(g, [req], seed=0, x=-1 << 10)


def test_connection_templates_are_built_once_per_shape(monkeypatch) -> None:
    built = []

    def counting(*args, **kwargs):
        built.append((args, kwargs))
        return build_gadget(*args, **kwargs)

    monkeypatch.setattr(connector, "build_gadget", counting)
    connector._template.cache_clear()
    g = complete_graph(30)
    for seed in range(3):
        for b, length in ((1, 6), (2, 8)):
            req = ConnectionRequest((0, 1), (2, 3), mask_of(range(4, 30)), b, length)
            assert connect_one(g, req, seed).ok
    assert len(built) == 2
    connector._template.cache_clear()


@given(integers(min_value=0, max_value=60))
def test_connect_all_keeps_job_interiors_disjoint(seed: int) -> None:
    bundle = host_and_jobs(120, 0.6, seed, jobs=3)
    if bundle is None:
        return
    g, pairs, w = bundle
    reqs = [ConnectionRequest(frm, to, w, b=1, length=6) for frm, to in pairs]
    res = connect_all(g, reqs, seed=seed, retries=3)
    if not res.ok:
        return
    assert len(res.embeddings) == len(pairs)
    seen = 0
    for emb, (frm, to) in zip(res.embeddings, pairs):
        assert validate_embedding(g, emb, connect_from=frm, connect_to=to).ok
        interior = mask_of(emb.vertices[2:-2])
        assert not interior & seen
        seen |= interior


def test_reservoir_order_is_drawn_once_and_only_when_needed(monkeypatch) -> None:
    draws = []
    rng_for = connector.rng_for

    def counting(*args):
        draws.append(args)
        return rng_for(*args)

    monkeypatch.setattr(connector, "rng_for", counting)
    connector._reservoir_order.cache_clear()
    g = complete_graph(12).remove_edges([(1, 2)])
    w = mask_of(range(6, 12))
    # Length 5 needs the port edge 1-2, so no job gets to a free label.
    blocked = ConnectionRequest((0, 1), (2, 3), w, length=5)
    res = connect_one(g, blocked, seed=4)
    assert not res.ok and res.diagnostics["nodes"] == 0
    assert draws == []
    # A sweep over lengths with one seed and one pool draws one shuffle.
    for length in (6, 7, 8):
        req = ConnectionRequest((0, 3), (4, 5), w, length=length)
        assert connect_one(g, req, seed=4).ok
    assert len(draws) == 1
    connector._reservoir_order.cache_clear()
    with pytest.raises(InputError):
        connect_one(g, blocked, seed=-1)


def test_reservoir_order_is_the_pool_indexed_by_a_seeded_permutation() -> None:
    pool = tuple(range(3, 3000, 2))
    for seed in range(50):
        perm = rng_for(seed, 13).permutation(len(pool))
        expected = tuple(pool[i] for i in perm)
        assert connector._reservoir_order(seed, pool) == expected


def test_connect_all_names_the_stalled_jobs_and_the_last_search() -> None:
    # Vertex 9 fits neither job, so job 0 takes vertex 8 and job 1 is left
    # with a pool of one vertex that it cannot use.
    g = complete_graph(12).remove_edges([(9, 0), (9, 4)])
    w = mask_of((8, 9))
    reqs = [
        ConnectionRequest((0, 1), (2, 3), w, length=5),
        ConnectionRequest((4, 5), (6, 7), w, length=5),
    ]
    res = connect_all(g, reqs, seed=2, retries=3)
    assert not res.ok
    assert res.embeddings[0].vertices == (0, 1, 8, 2, 3)
    assert res.embeddings[1] is None
    # The last search is job 1's third attempt in round 1.
    last_seed = 2 * 1_000_003 + 101 + 2
    assert res.diagnostics == {
        "stalled_jobs": [1],
        "last_failure": {
            "config": {"b": 1, "length": 5, "pool": 1, "seed": last_seed},
            "nodes": 1,
        },
    }


def test_connect_all_rejects_overlapping_ports_and_empty_batches() -> None:
    g = complete_graph(10)
    w = mask_of(range(8, 10))
    for frm, to, side in (((1, 4), (5, 6), "from"), ((4, 5), (3, 6), "to")):
        reqs = [
            ConnectionRequest((0, 1), (2, 3), w),
            ConnectionRequest(frm, to, w),
        ]
        with pytest.raises(InputError, match=f"^{side}-pairs"):
            connect_all(g, reqs, seed=0)
    with pytest.raises(InputError):
        connect_all(g, [], seed=0)
