import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis.strategies import booleans, data, integers, lists, sampled_from

from squareham import (
    ConnectResult,
    Graph,
    InputError,
    complete_graph,
    connect_one,
    connector,
    gnp_generate,
    is_square_path,
    rng_for,
    validate_embedding,
)
from squareham.graphcore import bits, mask_of

from oracles import square_path_edge_oracle
from strategies import gnp_graphs


def host_and_job(n: int, p: float, seed: int):
    """A random host, two disjoint port edges, and the rest as the
    reservoir mask."""
    g = gnp_generate(n, p, seed)
    rng = rng_for(seed, 31)
    ports = []
    for _ in range(2):
        taken = {v for edge in ports for v in edge}
        found = None
        for _ in range(2000):
            u = int(rng.integers(n))
            if u in taken:
                continue
            nbrs = sorted(g.neighbors(u) - taken)
            if not nbrs:
                continue
            found = (u, nbrs[int(rng.integers(len(nbrs)))])
            break
        if found is None:
            return None
        ports.append(found)
    frm, to = ports
    return g, frm, to, ((1 << n) - 1) & ~mask_of((*frm, *to))


def search(g, frm, to, w, length: int, seed: int):
    """The one search ``connect_one`` runs per length, at exactly
    ``length`` and with nothing skipped."""
    pool = connector._Pool(w & ~mask_of((*frm, *to)))
    return connector._direct_connect(g, (frm, to), pool, length, seed)


def admitted(g, frm, to, w, longest: int) -> list[int]:
    """The lengths ``4 .. longest`` the ports leave the job over ``w``.

    Length 4 if the direct arc holds, and then the lengths ``connect_one``
    tries when every search fails.  Only the direct arc needs the
    edge ``frm[0] to[0]``, so without it the job goes on past length 4, and
    isolated vertices pad the host to ``longest``.
    """
    tried = [4] if is_square_path(g, (*frm, *to)).ok else []

    def failing(g, ends, pool, length, seed):
        tried.append(length)
        return ConnectResult(False, None, {"nodes": 0})

    cut = [e for e in g.edges() if set(e) != {frm[0], to[0]}]
    host = Graph(max(g.n, longest), cut)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(connector, "_direct_connect", failing)
        connect_one(host, frm, to, w, longest, 0)
    return tried


@given(integers(min_value=4, max_value=16), integers(min_value=0, max_value=200))
def test_short_connections_on_a_complete_graph_always_land(
    length: int, seed: int
) -> None:
    g = complete_graph(24)
    w = mask_of(range(4, 24))
    res = search(g, (0, 1), (2, 3), w, length, seed)
    assert res.ok
    path = res.path
    assert validate_embedding(g, path, (0, 1), (2, 3)).ok
    assert len(path) == length
    assert mask_of(path[2:-2]) & ~w == 0


@given(integers(min_value=0, max_value=100))
def test_interiors_avoid_the_exclusion_set(seed: int) -> None:
    # Callers exclude vertices by taking them out of the reservoir.
    bundle = host_and_job(60, 0.6, seed)
    if bundle is None:
        return
    g, frm, to, w = bundle
    x = mask_of(bits(w)[::3])
    res = connect_one(g, frm, to, w & ~x, 6, seed)
    if not res.ok:
        return
    interior = mask_of(res.path[2:-2])
    assert not interior & x
    assert interior & ~w == 0


@given(integers(min_value=0, max_value=100))
def test_connection_is_deterministic_per_seed(seed: int) -> None:
    bundle = host_and_job(50, 0.5, seed)
    if bundle is None:
        return
    g, frm, to, w = bundle
    first = connect_one(g, frm, to, w, 6, seed)
    second = connect_one(g, frm, to, w, 6, seed)
    assert first.ok == second.ok
    if first.ok:
        assert first.path == second.path


@settings(max_examples=10)
@given(integers(min_value=0, max_value=50))
def test_long_direct_connections_produce_valid_square_paths(seed: int) -> None:
    bundle = host_and_job(300, 0.5, seed)
    if bundle is None:
        return
    g, frm, to, w = bundle
    res = search(g, frm, to, w, 12, seed)
    assert res.ok
    assert validate_embedding(g, res.path, frm, to).ok
    assert len(res.path) == 12


def test_request_validation_rejects_malformed_jobs() -> None:
    g = complete_graph(10)
    with pytest.raises(InputError):
        connect_one(g, (0, 1), (0, 2), 0b1100000, 4, 0)
    with pytest.raises(InputError):
        connect_one(g, (0, 1), (2, 3), 0b1100000, 3, 0)
    sparse = gnp_generate(10, 0.0, 0)
    with pytest.raises(InputError):
        connect_one(sparse, (0, 1), (2, 3), 0b1100000, 4, 0)


def kept_id(i: int, frm, to, length: int, message: str):
    """A case under the id it had when requests also carried a skip width.

    The width sat between ``to`` and ``length`` and was 1 in these cases.
    """
    return pytest.param(
        frm, to, length, message, id=f"frm{i}-to{i}-1-{length}-{message}"
    )


@pytest.mark.parametrize(
    "frm, to, length, message",
    [
        ((0, 1), (2, 3), 3, "^connections need length >= 4, got 3$"),
        kept_id(3, (0, 1), (1, 3), 4, r"^job ports overlap: \(0, 1\) -> \(1, 3\)$"),
        kept_id(4, (0, 1), (2, 10), 4, "^vertex 10 out of range for n=10$"),
        kept_id(5, (-1, 1), (2, 3), 4, "^vertex -1 out of range for n=10$"),
        kept_id(6, (0, 1), (2, 3, 4), 4, "^job ports must be two ordered pairs"),
        kept_id(7, (0, 1), (2, 3), 4, r"^job ports must be host edges: \(0, 1\) -> "),
        # Lengths and ports that are not integers once raised TypeError.
        *(
            pytest.param(frm, to, length, message, id=f"not-an-integer-{length!r}-{frm}-{to}")
            for frm, to, length, message in (
                ((0, 1), (2, 3), 5.0, "^length must be an integer, got 5.0$"),
                ((0, 1), (2, 3), "6", "^length must be an integer, got '6'$"),
                ((0, 1), (2, 3), None, "^length must be an integer, got None$"),
                ((0, 1), (2, 3), True, "^length must be an integer, got True$"),
                ((0, 1.0), (2, 3), 5, "^a port vertex must be an integer, got 1.0$"),
                ((0, 1), ("2", 3), 5, "^a port vertex must be an integer, got '2'$"),
            )
        ),
    ],
)
def test_each_malformed_job_gets_its_own_message(frm, to, length, message) -> None:
    # Every check before the host-edge one fires whatever the edges.
    g = complete_graph(10).remove_edges([(0, 1)])
    with pytest.raises(InputError, match=message):
        connect_one(g, frm, to, mask_of(range(5, 10)), length, 0)


def test_numpy_integer_ports_are_read_as_ints() -> None:
    # 1 << np.int64(70) is 0, and a row shifted by one overflows: this job
    # once raised OverflowError.
    g = complete_graph(100)
    w = (1 << 100) - 1
    res = connect_one(g, (np.int64(70), np.int64(71)), (2, 3), w, 6, 1)
    assert res == connect_one(g, (70, 71), (2, 3), w, 6, 1)
    assert res.ok and all(type(v) is int for v in res.path)
    # A port vertex that is no integer is still rejected, numpy or not.
    with pytest.raises(InputError, match="^a port vertex must be an integer"):
        connect_one(g, (np.int64(70), 71.0), (2, 3), w, 6, 1)


@pytest.mark.parametrize("w", [1.5, frozenset({5, 6}), None])
def test_a_reservoir_that_is_not_an_int_is_rejected(w) -> None:
    g = complete_graph(10)
    with pytest.raises(InputError, match="^a reservoir must be an int bitset"):
        connect_one(g, (0, 1), (2, 3), w, 5, 0)


@pytest.mark.parametrize("bad", [-1, 10])
def test_reservoir_vertices_outside_the_host_are_rejected(bad: int) -> None:
    # With seed 0 the search lands on vertex 8 or 7 before it would reach
    # the bad one; the reservoir is checked before any search starts.  A
    # negative vertex has no bit, so it is rejected as the mask is formed.
    g = complete_graph(10)
    with pytest.raises(InputError):
        w = mask_of((4, 5, 6, 7, 8, 9, bad))
        connect_one(g, (0, 1), (2, 3), w, 5, 0)


def test_reservoir_masks_outside_the_host_are_rejected() -> None:
    g = complete_graph(10)
    for w in (mask_of((4, 5, 10)), -1):
        with pytest.raises(InputError):
            connect_one(g, (0, 1), (2, 3), w, 5, 0)


def test_a_length_above_the_vertex_count_is_rejected_at_once() -> None:
    # A square path's vertices are distinct, so the host bounds its length;
    # nothing the size of the length is built before the check.
    g = complete_graph(10)
    w = mask_of(range(4, 10))
    for length in (11, 10**12):
        with pytest.raises(InputError, match=f"^length {length} exceeds the host's 10"):
            connect_one(g, (0, 1), (2, 3), w, length, 0)
    assert connect_one(g, (0, 1), (2, 3), w, 10, 0).ok


def shuffled_scan(
    g, frm, to, w, length: int, seed: int, budget: int = 100_000
) -> tuple[bool, int]:
    """The search as a scan, at every state, of one seeded shuffle of the
    whole pool; returns whether it lands and the nodes it spent.

    The reference for ``connect_one``: positions ``2 .. length - 3`` are
    filled in ascending order, each needing an edge to every vertex already
    placed at distance one or two (by ``square_path_edge_oracle``), a pick
    is the first fitting vertex of a uniformly random order, and a node is
    one unplaced pool vertex looked at.  The search picks by a seeded
    offset (``graphcore.pick_bit``), not from a shuffle, so the two agree
    on whether a job lands and, on a failure, on the nodes spent, which
    depend on no order; the paths they find differ.
    """
    edges = square_path_edge_oracle(length)
    ports = {0: frm[0], 1: frm[1], length - 2: to[0], length - 1: to[1]}
    rows = g.rows
    if not all(rows[ports[i]] >> ports[j] & 1 for i, j in edges if {i, j} <= set(ports)):
        return False, 0
    image = dict(ports)
    free = [k for k in range(length) if k not in ports]
    pool = bits(w & ~mask_of(ports.values()))
    order = rng_for(seed, 13).permutation(pool).tolist() if pool else []
    taken: set[int] = set()
    nodes = 0

    def fill(i: int) -> bool:
        nonlocal nodes
        if i == len(free):
            return True
        k = free[i]
        fits = -1
        for a, c in edges:
            if k in (a, c) and (other := a + c - k) in image:
                fits &= rows[image[other]]
        for v in order:
            if v in taken:
                continue
            nodes += 1
            if nodes > budget:
                return False
            if fits >> v & 1:
                image[k] = v
                taken.add(v)
                if fill(i + 1):
                    return True
                taken.discard(v)
                del image[k]
            if nodes > budget:
                return False
        return False

    return fill(0), nodes


LENGTHS = (4, 5, 6, 7, 8, 12)


@settings(max_examples=40, deadline=None)
@given(gnp_graphs(min_n=8, max_n=22, min_p=0.3, max_p=0.95), data())
def test_search_lands_and_fails_exactly_where_the_shuffled_scan_does(g, data) -> None:
    arcs = [*g.edges(), *((v, u) for u, v in g.edges())]
    assume(arcs)
    frm = data.draw(sampled_from(arcs))
    outs = [e for e in arcs if not set(e) & set(frm)]
    assume(outs)
    to = data.draw(sampled_from(outs))
    w = data.draw(integers(min_value=0, max_value=(1 << g.n) - 1))
    for length in LENGTHS:
        job = (frm, to, w, length)
        if length > g.n:
            # No square path that long fits in the host.
            assert not shuffled_scan(g, *job, 0)[0]
            with pytest.raises(InputError):
                connect_one(g, *job, 0)
            continue
        for seed in range(4):
            res = search(g, *job, seed)
            ok, nodes = shuffled_scan(g, *job, seed)
            assert res.ok == ok
            if not ok:
                assert res.diagnostics["nodes"] == nodes


@settings(max_examples=60, deadline=None)
@given(gnp_graphs(min_n=6, max_n=14, min_p=0.3, max_p=0.95), data())
def test_a_job_the_ports_rule_out_fails_for_every_seed(g, data) -> None:
    arcs = [*g.edges(), *((v, u) for u, v in g.edges())]
    assume(arcs)
    frm = data.draw(sampled_from(arcs))
    outs = [e for e in arcs if not set(e) & set(frm)]
    assume(outs)
    to = data.draw(sampled_from(outs))
    w = data.draw(integers(min_value=0, max_value=(1 << g.n) - 1))
    lengths = admitted(g, frm, to, w, g.n)
    for length in range(4, g.n + 1):
        if length not in lengths:
            for seed in range(5):
                res = search(g, frm, to, w, length, seed)
                assert not res.ok
                assert res.diagnostics["nodes"] <= connector.NODE_BUDGET


def port_rule_oracle(g, frm, to, pool, length) -> bool:
    """The port rule from ``square_path_edge_oracle``: every edge between
    two port labels holds, and every free label's port neighbours have a
    common neighbour in the pool less the ports."""
    ports = {0: frm[0], 1: frm[1], length - 2: to[0], length - 1: to[1]}
    edges = square_path_edge_oracle(length)
    if not all(g.has_edge(ports[i], ports[j]) for i, j in edges if {i, j} <= set(ports)):
        return False
    pool &= ~mask_of(ports.values())
    for k in range(2, length - 2):
        cands = pool
        for i, j in edges:
            if k in (i, j) and (other := i + j - k) in ports:
                cands &= g.rows[ports[other]]
        if not cands:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(gnp_graphs(min_n=8, max_n=14, min_p=0.3, max_p=0.95), data())
def test_the_port_rule_sees_each_free_label_and_the_fixed_edges(g, data) -> None:
    arcs = [*g.edges(), *((v, u) for u, v in g.edges())]
    assume(arcs)
    frm = data.draw(sampled_from(arcs))
    outs = [e for e in arcs if not set(e) & set(frm)]
    assume(outs)
    to = data.draw(sampled_from(outs))
    w = data.draw(integers(min_value=0, max_value=(1 << g.n) - 1))
    # From length 8 on, every length meets the same rule.
    assert admitted(g, frm, to, w, 12) == [
        length for length in range(4, 13) if port_rule_oracle(g, frm, to, w, length)
    ]


def test_the_port_rule_rules_out_exactly_what_it_names() -> None:
    # K_8 less one edge per rule: each rules out exactly what it names.
    def lengths(g, pool=mask_of(range(4, 8))):
        return admitted(g, (0, 1), (2, 3), pool, 8)

    g = complete_graph(8)
    assert lengths(g) == [4, 5, 6, 7, 8]
    # The direct arc needs the edges 1-2, 0-2 and 1-3; length 5 needs 1-2.
    assert lengths(g.remove_edges([(0, 2)])) == [5, 6, 7, 8]
    assert lengths(g.remove_edges([(1, 2)])) == [6, 7, 8]
    # No pool vertex sees both entry ports.
    assert lengths(g.remove_edges([(0, v) for v in range(4, 8)])) == [4]
    # The ports never count as their own candidates.
    assert lengths(g, 0b1111) == [4]


# (n, p, host seed): the digests of the thin pool (every third vertex)
# and the wide one (every vertex), ports excluded.
PINNED_CONNECTIONS = {
    (40, 0.5, 11): (
        "350292d2c2eada369b1baad0af920421a4a7469b5d16806057291b0fbe98baec",
        "a428f7e9628b12932b8440506b148802a47d051d958d80bb68d52ba719d37dc6",
    ),
    (60, 0.3, 12): (
        "4ca6943378e8c2058a3c3b627dfbbc96a444318a603af48b01d8281ddfe6c53b",
        "1afb16216e1f3226cac394175dc0d5f207e36027004960f747f74e0ab6f53261",
    ),
    (30, 0.7, 13): (
        "a301ad5be01c2a02f85525c5f1f29197910eac6fa51df6d7a161e60aee871e36",
        "6089a39a757c5a9c21f0e2593f60810c5e81c542b781ef96259cef95d4797af7",
    ),
    (80, 0.2, 14): (
        "15158f690a43164480ddddcead7e8074a22c8f5bab1464cf8dd172172df1dedd",
        "c4ec8702e07e49e5b52595b409a4ce5fae0091e50dcf9081e75ca694dd099b70",
    ),
    (160, 0.14, 21): (
        "6bf837a7f98ef7a15b72c834894581269a4bde4c6e117495662c8e03c96fc6e4",
        "935d0f5b9ff330c86cdc7307fbef3509125a177af18d55c5ba414e518e391b5e",
    ),
}


@pytest.mark.parametrize("host", PINNED_CONNECTIONS, ids=str)
def test_connection_results_are_pinned(host) -> None:
    # Lengths 4..12 and seeds 0..5 on each pool: the whole path of each
    # success and the diagnostics of each failure must not move.
    n, p, host_seed = host
    g = gnp_generate(n, p, host_seed)
    edges = g.edges()
    frm = edges[0]
    to = next(e for e in edges if not set(e) & set(frm))
    rest = ((1 << n) - 1) & ~mask_of((*frm, *to))
    digests = []
    for pool in (mask_of(range(0, n, 3)) & rest, rest):
        h = hashlib.sha256()
        for length in range(4, 13):
            for seed in range(6):
                res = search(g, frm, to, pool, length, seed)
                h.update(repr(res.path if res.ok else res.diagnostics).encode())
        digests.append(h.hexdigest())
    assert tuple(digests) == PINNED_CONNECTIONS[host]


def test_a_pick_takes_each_fitting_vertex_by_its_gap_below(monkeypatch) -> None:
    # Vertex 11 misses port 0, so the one free label of a length-5 path has
    # the candidates 4, 6 and 9 out of a pool of four, a mask 10 bits wide.
    # Ports 0 and 2 are not adjacent, so the job has no direct arc.
    g = complete_graph(12).remove_edges([(11, 0), (0, 2)])
    job = ((0, 1), (2, 3), mask_of((4, 6, 9, 11)), 5)
    # Each seed's stream starts with the seed itself, so seeds 0..9 are one
    # draw at each offset: a candidate is picked once per offset in the gap
    # between it and the next lower candidate.
    monkeypatch.setattr(connector, "splitmix64", itertools.count)
    gaps = {4: 5, 6: 2, 9: 3}
    assert Counter(search(g, *job, seed).path[2] for seed in range(10)) == gaps
    # connect_one serves a length-5 job by the same search, so by the same rule.
    picks = Counter(connect_one(g, *job, seed).path[2] for seed in range(10))
    assert picks == gaps


def test_same_seed_same_embedding() -> None:
    g = complete_graph(20)
    w = mask_of(range(4, 20))
    for length in LENGTHS:
        job = ((0, 1), (2, 3), w, length)
        found = set()
        for seed in range(6):
            first = search(g, *job, seed)
            assert first.ok and search(g, *job, seed) == first
            found.add(first.path)
        # Every shape but the direct arc has a choice to make.
        assert (len(found) == 1) == (length == 4)
        # The draws take the seed modulo 2**64.
        assert search(g, *job, 5 + 2**64) == first


def test_a_search_past_its_budget_reports_budget_plus_one(monkeypatch) -> None:
    # Vertex 2 (the exit port's first vertex) misses the whole pool, so the
    # last two free labels never fit and the search runs every state above.
    pool = range(4, 20)
    g = complete_graph(20).remove_edges([(2, v) for v in pool])
    job = ((0, 1), (2, 3), mask_of(pool), 8)
    res = search(g, *job, 5)
    assert not res.ok
    spent = res.diagnostics["nodes"]
    assert spent == shuffled_scan(g, *job, 5)[1] and spent > 51
    for budget in (0, 15, 50):
        # The search reads its budget at call time.
        monkeypatch.setattr(connector, "NODE_BUDGET", budget)
        res = search(g, *job, 5)
        assert not res.ok and res.diagnostics["nodes"] == budget + 1
        assert shuffled_scan(g, *job, 5, budget) == (False, budget + 1)


def test_a_search_draws_once_per_pick_and_never_before_a_free_label(
    monkeypatch,
) -> None:
    draws = []
    splitmix = connector.splitmix64

    def counting(seed):
        for draw in splitmix(seed):
            draws.append(draw)
            yield draw

    monkeypatch.setattr(connector, "splitmix64", counting)
    g = complete_graph(12).remove_edges([(1, 2)])
    w = mask_of(range(6, 12))
    # Length 5 needs the port edge 1-2, so no job gets to a free label.
    blocked = ((0, 1), (2, 3), w, 5)
    res = search(g, *blocked, 4)
    assert not res.ok and res.diagnostics["nodes"] == 0
    # The direct arc has no free label, whatever the longest length.
    assert connect_one(g, (0, 3), (4, 5), w, 7, 4).ok
    assert draws == []
    # On a complete pool every pick fits, so a length-7 search picks three times.
    assert search(g, (0, 3), (4, 5), w, 7, 4).ok
    assert len(draws) == 3
    for seed in (-1, 1.5):
        with pytest.raises(InputError):
            connect_one(g, *blocked, seed)


def plain_sweep(g, frm, to, w, longest: int, seed: int):
    """``connect_one`` with nothing skipped: the search at every length
    from 4 to ``longest``, in order; returns the first path that lands."""
    for length in range(4, longest + 1):
        res = search(g, frm, to, w, length, seed)
        if res.ok:
            return res.path
    return None


@settings(max_examples=40, deadline=None)
@given(gnp_graphs(min_n=8, max_n=16, min_p=0.3, max_p=0.95), data())
def test_the_pruned_sweep_returns_what_the_plain_sweep_returns(g, data) -> None:
    # Skipping the lengths the ports rule out changes no job's outcome.
    arcs = [*g.edges(), *((v, u) for u, v in g.edges())]
    assume(arcs)
    frm = data.draw(sampled_from(arcs))
    outs = [e for e in arcs if not set(e) & set(frm)]
    assume(outs)
    tos = data.draw(lists(sampled_from(outs), min_size=1, max_size=3))
    pairs = [(frm, to) for to in tos]
    pools = {}
    for _ in range(8):
        frm, to = data.draw(sampled_from(pairs))
        mask = data.draw(integers(min_value=0, max_value=(1 << g.n) - 1))
        # Half the jobs shrink the pair's last pool, as the threading does.
        pool = pools.get((frm, to), mask) & mask if data.draw(booleans()) else mask
        pools[frm, to] = pool
        job = (frm, to, pool, min(8, g.n))
        seed = data.draw(integers(min_value=0, max_value=1000))
        assert connect_one(g, *job, seed).path == plain_sweep(g, *job, seed)


@settings(max_examples=40, deadline=None)
@given(gnp_graphs(min_n=6, max_n=14, min_p=0.3, max_p=0.95), data())
def test_a_job_is_served_at_its_shortest_length_that_lands(g, data) -> None:
    # Each search is one length: the lengths come in ascending order, none
    # of them is one the ports rule out, every one the ports leave below
    # the last is searched and fails, and a path comes from the last.
    arcs = [*g.edges(), *((v, u) for u, v in g.edges())]
    assume(arcs)
    frm = data.draw(sampled_from(arcs))
    outs = [e for e in arcs if not set(e) & set(frm)]
    assume(outs)
    to = data.draw(sampled_from(outs))
    w = data.draw(integers(min_value=0, max_value=(1 << g.n) - 1))
    longest = data.draw(integers(min_value=4, max_value=g.n))
    seed = data.draw(integers(min_value=0, max_value=1000))
    searched = []

    def recording(fn):
        def spy(g, ends, pool, length, seed):
            res = fn(g, ends, pool, length, seed)
            searched.append((length, res))
            return res

        return spy

    with pytest.MonkeyPatch.context() as m:
        m.setattr(connector, "_direct_connect", recording(connector._direct_connect))
        res = connect_one(g, frm, to, w, longest, seed)
    lengths = [length for length, _ in searched]
    ruled_in = [
        length
        for length in range(4, longest + 1)
        if port_rule_oracle(g, frm, to, w, length)
    ]
    if ruled_in[:1] == [4]:
        # The direct arc is read off the port rows, with no search.
        assert res == ConnectResult(True, (*frm, *to), None) and searched == []
        return
    assert lengths == ruled_in[: len(lengths)]
    assert all(not r.ok for _, r in searched[:-1])
    if res.ok:
        assert searched[-1][1] == res and len(res.path) == lengths[-1]
    else:
        assert lengths == ruled_in
        pool = (w & ~mask_of((*frm, *to))).bit_count()
        assert res.diagnostics == {
            "config": {"length": longest, "pool": pool, "seed": seed},
            "nodes": sum(r.diagnostics["nodes"] for _, r in searched),
        }


def swept(g, frm, to, w, longest: int, seed: int):
    """``connect_one`` as a sweep of searches: the search at each length
    ``4 .. longest`` that ``port_rule_oracle`` leaves, in turn; the first
    that lands, or else the job's failure with the nodes summed."""
    nodes = 0
    for length in range(4, longest + 1):
        if port_rule_oracle(g, frm, to, w, length):
            res = search(g, frm, to, w, length, seed)
            if res.ok:
                return res
            nodes += res.diagnostics["nodes"]
    pool = (w & ~mask_of((*frm, *to))).bit_count()
    cfg = {"length": longest, "pool": pool, "seed": seed}
    return ConnectResult(False, None, {"config": cfg, "nodes": nodes})


@settings(max_examples=150, deadline=None)
@given(gnp_graphs(min_n=8, max_n=16, min_p=0.3, max_p=0.95), data())
def test_connect_one_returns_what_the_sweep_of_searches_returns(g, data) -> None:
    # connect_one runs one search per length past the direct arc, so every
    # result, failures included, is the one the sweep of searches gives.
    arcs = [*g.edges(), *((v, u) for u, v in g.edges())]
    assume(arcs)
    frm = data.draw(sampled_from(arcs))
    outs = [e for e in arcs if not set(e) & set(frm)]
    assume(outs)
    to = data.draw(sampled_from(outs))
    w = data.draw(integers(min_value=0, max_value=(1 << g.n) - 1))
    longest = data.draw(integers(min_value=4, max_value=8))
    seed = data.draw(integers(min_value=0, max_value=2**65))
    job = (frm, to, w, longest)
    assert connect_one(g, *job, seed) == swept(g, *job, seed)


def test_a_length_six_job_past_the_budget_counts_as_the_search_does() -> None:
    # Vertices 5..104 see 0, 1 and 2 and vertex 4 sees 1, 2 and 3, so each
    # of the length-6 search's 100 first picks has no second, and the
    # 1,296-vertex pool runs that search past the node budget; lengths 7 and
    # 8 search past it too.
    n = 1300
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4), (3, 4)]
    edges += [(u, v) for v in range(5, 105) for u in (0, 1, 2)]
    g = Graph(n, edges)
    for longest, nodes in ((6, 100_001), (8, 300_003)):
        job = ((0, 1), (2, 3), (1 << n) - 1, longest)
        res = connect_one(g, *job, 3)
        assert res == swept(g, *job, 3)
        assert not res.ok and res.diagnostics["nodes"] == nodes


def test_a_pool_of_exactly_the_budget_is_still_picked_from() -> None:
    # Entering the first position costs the whole pool; the search goes on
    # at NODE_BUDGET nodes and stops past it.  Vertex 4 sees all four ports
    # and the edge 0-2 is missing, so the job goes to length 5.
    n = 4 + connector.NODE_BUDGET + 1
    g = Graph(n, [(0, 1), (1, 2), (2, 3), (1, 3), *((4, u) for u in range(4))])
    for size, ok in ((connector.NODE_BUDGET, True), (connector.NODE_BUDGET + 1, False)):
        job = ((0, 1), (2, 3), mask_of(range(4, 4 + size)), 6)
        res = connect_one(g, *job, 5)
        assert res == swept(g, *job, 5) and res.ok == ok
        assert res.ok or res.diagnostics["nodes"] == 2 * connector.NODE_BUDGET + 2


def test_the_missing_port_edge_alone_rules_out_length_five(monkeypatch) -> None:
    # On K_10 every pool vertex sees all four ports; without the edge 1-2
    # neither the direct arc nor length 5 is left, and length 6 lands.
    searched = []
    direct = connector._direct_connect

    def recording(g, ends, pool, length, seed):
        searched.append(length)
        return direct(g, ends, pool, length, seed)

    monkeypatch.setattr(connector, "_direct_connect", recording)
    w = mask_of(range(4, 10))
    for g, length in ((complete_graph(10).remove_edges([(0, 2)]), 5),
                      (complete_graph(10).remove_edges([(1, 2)]), 6)):
        job = ((0, 1), (2, 3), w, 8)
        want = swept(g, *job, 11)
        # Only connect_one's own searches count, not the sweep's.
        searched.clear()
        res = connect_one(g, *job, 11)
        assert res == want
        assert len(res.path) == length and searched == [length]
