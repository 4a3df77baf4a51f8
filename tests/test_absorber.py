import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import (
    booleans,
    data,
    integers,
    just,
    one_of,
    permutations,
    sampled_from,
)

from squareham import (
    Absorber,
    Graph,
    InputError,
    absorb,
    build_single_absorbers,
    chain_absorbers,
    complete_absorbers,
    complete_graph,
    gnp_generate,
    is_square_path,
    rng_for,
    verify_absorber,
)
from squareham import absorber as absorber_module
from squareham import connector, hamiltonian
from squareham.cli import _read_record
from squareham.gadgets import BULK_PATH_LEN
from squareham.graphcore import bits, mask_of, rng_for
from squareham.hamiltonian import jsonable

from oracles import looped_verify_absorber, square_path_pairs
from strategies import host_holding, seeds


def build_full_absorber(n: int, p: float, seed: int, x_count: int = 3):
    """Drive all three construction stages on one random host."""
    g = gnp_generate(n, p, seed)
    rng = rng_for(seed, 41)
    order = [int(v) for v in rng.permutation(n)]
    star_size = 7 * x_count + 28
    xs = mask_of(order[:x_count])
    star = mask_of(order[x_count : x_count + star_size])
    link_pool = mask_of(order[x_count + star_size :])
    units, fail = build_single_absorbers(g, xs, star)
    if fail is not None:
        return g, None, fail
    built, fail = chain_absorbers(g, units, link_pool | star, seed)
    return g, built, fail


def units_of(a):
    """The five-vertex unit walks around the absorbees of a built absorber."""
    return [a.walk[i - 2 : i + 3] for i in map(a.walk.index, a.absorbees)]


def subset_walk_is_valid(g, a, dropped) -> bool:
    walk = absorb(a, mask_of(dropped))
    return (
        is_square_path(g, walk).ok
        and mask_of(walk) == a.body() & ~mask_of(dropped)
        and walk[:2] == a.entry
        and walk[-2:] == a.exit
    )


def every_subset_walk_is_valid(g, a) -> bool:
    """Reference audit: walk the traversal for every subset of absorbees."""
    xs = a.absorbees
    return all(
        subset_walk_is_valid(g, a, dropped)
        for k in range(len(xs) + 1)
        for dropped in itertools.combinations(xs, k)
    )


@settings(max_examples=8)
@given(integers(min_value=0, max_value=60))
def test_built_absorbers_pass_exhaustive_verification(seed: int) -> None:
    g, absorber, fail = build_full_absorber(150, 0.55, seed)
    if absorber is None:
        assert fail
        return
    report = verify_absorber(g, absorber)
    assert report.ok
    assert every_subset_walk_is_valid(g, absorber)


def test_unit_views_sit_outside_the_compared_fields() -> None:
    # The absorber's ports and body are views of its walk.
    g, a, fail = next(
        bundle
        for seed in range(20)
        if (bundle := build_full_absorber(150, 0.55, seed))[1] is not None
    )
    assert a.entry == a.walk[:2] and a.exit == a.walk[-2:]
    assert a.body() == mask_of(a.walk)
    fresh = replace(a)
    # The views leave equality, hash and repr alone.
    assert fresh == a and hash(fresh) == hash(a)
    assert repr(fresh) == repr(a) and "entry" not in repr(a)


# The unit u1 u2 x v1 v2 = 1 2 0 3 4 on exactly the edges it needs: the
# square path of the include walk, and u1 v1 and u2 v2 of the exclude walk.
# That is K5 less the edge u1 v2.
UNIT_EDGES = (
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (3, 4), (1, 3)
)


def test_both_traversals_are_square_paths_on_the_unit_edges() -> None:
    unit = Absorber((1, 2, 0, 3, 4), (0,))
    host = Graph(5, UNIT_EDGES)
    walks = (absorb(unit, 0), absorb(unit, 1 << 0))
    assert walks == ((1, 2, 0, 3, 4), (1, 2, 3, 4))
    for walk in walks:
        assert is_square_path(host, walk)
        assert (walk[:2], walk[-2:]) == (unit.entry, unit.exit)
    assert verify_absorber(host, unit).ok
    # Every edge is needed by one of the walks, and the audit misses none.
    for edge in UNIT_EDGES:
        cut = Graph(5, [e for e in UNIT_EDGES if e != edge])
        assert not all(is_square_path(cut, walk) for walk in walks)
        assert not verify_absorber(cut, unit).ok


@settings(max_examples=300, deadline=None)
@given(data())
def test_compositional_check_matches_subset_enumeration(draws) -> None:
    # A random walk of at most 12 vertices on a host that holds all but at
    # most one of its square-path pairs and some of its pairs three places
    # apart, the bridge edges.
    walk = tuple(draws.draw(permutations(range(12)))[: draws.draw(integers(1, 12))])
    edges = set(square_path_pairs(walk))
    for u, v in zip(walk, walk[3:]):
        if draws.draw(booleans()):
            edges.add((min(u, v), max(u, v)))
    if edges and draws.draw(booleans()):
        edges.discard(draws.draw(sampled_from(sorted(edges))))
    host = Graph(12, sorted(edges))
    # Absorbee places in walk order, 1 to 5 apart.
    places = []
    i = draws.draw(integers(0, 3))
    while i < len(walk) and (not places or draws.draw(booleans())):
        places.append(i)
        i += draws.draw(integers(1, 5))
    a = Absorber(walk, tuple(walk[i] for i in places))
    report = verify_absorber(host, a)
    if any(j - i < 3 for i, j in zip(places, places[1:])):
        # Closer absorbees are a structure the library never builds.
        assert not report.ok
        return
    assert report.ok == every_subset_walk_is_valid(host, a)
    if report.ok:
        assert report.subsets_checked == len(a.absorbees) + 1
    else:
        assert not subset_walk_is_valid(host, a, report.failure["subset"])


# The walk 0..9 on a complete host of 13 less the edge ``cut``; the
# absorbee at index ``k`` of ``absorbees`` is the first the audit rejects.
@pytest.mark.parametrize(
    "absorbees, cut, k, reason",
    [
        ((4, 12), None, 1, "not on the walk"),
        ((1,), None, 0, "end pair"),
        ((4, 8), None, 1, "end pair"),
        ((2, 4), None, 1, "fewer than 3 places"),
        ((6, 2), None, 1, "out of walk order"),
        ((4, 4), None, 1, "repeated"),
        ((4,), (2, 5), 0, "missing bridge edge (2, 5)"),
        ((2, 6), (5, 8), 1, "missing bridge edge (5, 8)"),
        # A bridge is checked on the walk less the absorbees before the
        # first that fails a place or spacing check, so these name the
        # first fault in absorbee order too.
        ((4, 5), (2, 5), 0, "missing bridge edge (2, 5)"),
        ((1, 5), (3, 6), 0, "end pair"),
        ((3, 6), (4, 7), 1, "missing bridge edge (4, 7)"),
    ],
    ids=["off-walk", "at-the-entry", "at-the-exit", "too-close", "out-of-order",
         "repeated", "bridge", "second-bridge", "bridge-then-too-close",
         "end-then-bridge", "three-apart-bridge"],
)
def test_the_audit_names_each_rejection(absorbees, cut, k, reason) -> None:
    host = complete_graph(13)
    if cut is not None:
        host = host.remove_edges([cut])
    report = verify_absorber(host, Absorber(tuple(range(10)), absorbees))
    assert not report.ok
    assert report.failure["subset"] == (absorbees[k],)
    assert reason in report.failure["reason"]
    assert report.subsets_checked == k + 2


def test_verification_runs_past_63_absorbees() -> None:
    g, absorber, fail = build_full_absorber(1000, 0.5, 1, x_count=64)
    assert fail is None
    report = verify_absorber(g, absorber)
    assert report.ok
    assert report.subsets_checked == 65


@settings(max_examples=6)
@given(integers(min_value=0, max_value=60))
def test_absorbed_walks_span_the_body_minus_the_dropped_set(seed: int) -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, seed)
    if absorber is None:
        return
    body = absorber.body()
    xs = absorber.absorbees
    for k in range(len(xs) + 1):
        for dropped in itertools.combinations(xs, k):
            walk = absorb(absorber, mask_of(dropped))
            assert mask_of(walk) == body & ~mask_of(dropped)
            assert len(walk) == len(set(walk))
            assert is_square_path(g, walk).ok
            assert (walk[0], walk[1]) == absorber.entry
            assert (walk[-2], walk[-1]) == absorber.exit


def test_absorb_rejects_vertices_outside_the_absorbee_set() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 3)
    assert absorber is not None
    for x_prime in (1 << 10**6, -1):
        with pytest.raises(InputError):
            absorb(absorber, x_prime)


@settings(max_examples=6)
@given(integers(min_value=0, max_value=60))
def test_construction_is_deterministic(seed: int) -> None:
    _, first, fail1 = build_full_absorber(150, 0.55, seed)
    _, second, fail2 = build_full_absorber(150, 0.55, seed)
    assert first == second
    assert (fail1 is None) == (fail2 is None)


def test_verification_detects_a_corrupted_unit() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 5)
    assert absorber is not None
    # Re-route the first unit's v2 to a vertex outside the body that is not
    # adjacent to its v1, so the unit's exit port is no host edge.  (A
    # vertex that only misses some other core vertex may still fit every
    # edge v2 needs, leaving a valid absorber.)
    walk = absorber.walk
    outside = next(
        v
        for v in range(g.n)
        if not absorber.body() >> v & 1 and not g.has_edge(v, walk[3])
    )
    bad = replace(absorber, walk=walk[:4] + (outside,) + walk[5:])
    report = verify_absorber(g, bad)
    assert not report.ok
    assert report.failure


def test_the_link_sweep_tests_the_direct_arc_before_any_search(
    monkeypatch,
) -> None:
    # Where a unit's v1 v2 and the next one's u1 u2 form the direct arc,
    # chaining appends the next unit with no call.  Any other link is one
    # connect_one job of up to eight vertices, served shortest first, with
    # the seed of its place in the chain.
    asked, served, searched = [], [], []
    connect = absorber_module.connect_one

    def recording(g, frm, to, w, length, seed):
        asked.append((frm, to, w, length, seed))
        res = connect(g, frm, to, w, length, seed)
        served.append(len(res.path) if res.ok else None)
        return res

    def searching(fn):
        def spy(g, ends, pool, length, seed):
            searched.append(length)
            return fn(g, ends, pool, length, seed)

        return spy

    monkeypatch.setattr(absorber_module, "connect_one", recording)
    monkeypatch.setattr(connector, "_direct_connect", searching(connector._direct_connect))
    units = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9), (10, 11, 12, 13, 14)]
    pool = mask_of(range(15, 24))
    g = complete_graph(24)
    built, fail = chain_absorbers(g, units, pool, 3)
    assert fail is None and built.walk == tuple(range(15))
    assert asked == [] and searched == []
    # Without the edge 3-5 there is no arc into the second unit: its link
    # is the one call, and one interior vertex closes it.
    cut = g.remove_edges([(3, 5)])
    built, fail = chain_absorbers(cut, units, pool, 3)
    assert fail is None and len(built.walk) == 16
    assert verify_absorber(cut, built).ok
    assert asked == [((3, 4), (5, 6), pool, 8, 3 * 9_176 * 31)]
    assert served == [5] and searched == [5]
    # Each link's seed follows its place: without 8-10 the second link is
    # a call too, through the pool less the first link's vertex.
    asked.clear()
    built, fail = chain_absorbers(g.remove_edges([(3, 5), (8, 10)]), units, pool, 3)
    assert fail is None and len(built.walk) == 17
    assert [job[-1] for job in asked] == [3 * 9_176 * 31, (3 * 9_176 + 13) * 31]
    assert asked[1][2] == pool & ~(1 << built.walk[5])
    # With an empty pool the ports rule out every longer length, so the
    # link fails without a search.
    searched.clear()
    assert chain_absorbers(cut, units, 0, 3) == (None, {
        "phase": "link",
        "link": (2, 7),
        "connect": {"config": {"length": 8, "pool": 0, "seed": 3 * 9_176 * 31},
                    "nodes": 0},
    })
    assert searched == []


def test_absorber_json_round_trip() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 11)
    assert absorber is not None
    stored = jsonable(absorber)
    assert stored == {"walk": list(absorber.walk),
                      "absorbees": list(absorber.absorbees)}
    assert _read_record(Absorber, stored) == absorber
    for bad in ({"nonsense": True}, {"walk": [1, 2, 0, 3, 4], "absorbees": []},
                {"walk": [1, 2, "x"], "absorbees": [0]}):
        with pytest.raises(InputError):
            _read_record(Absorber, bad)


# The absorbee 0 and a star pool of eight vertices, as bitsets.
STAR_CLASSES = (1 << 0, 0b111111110)


def test_an_absorbee_with_no_pool_neighbour_finds_no_core() -> None:
    g = gnp_generate(40, 0.0, 0)
    cores, fail = build_single_absorbers(g, *STAR_CLASSES)
    assert cores is None
    assert fail == {"absorbee": 0, "pool_degree": 0, "free": 8, "nodes": 0}


def test_a_failing_search_reports_the_free_pool_it_ran_on() -> None:
    # Three absorbees on a complete host, served in id order: the first two
    # take the eight pool vertices, lowest first, and leave the third none.
    g = complete_graph(20)
    xs = 0b111 << 10
    cores, fail = build_single_absorbers(g, xs, mask_of(range(8)))
    assert cores is None
    assert fail == {"absorbee": 12, "pool_degree": 8, "free": 0, "nodes": 0}
    units, fail = build_single_absorbers(g, xs, mask_of(range(13, 20)) | 0b11111)
    assert fail is None
    assert units == ((0, 1, 10, 2, 3), (4, 13, 11, 14, 15), (16, 17, 12, 18, 19))


def test_the_fewest_pool_neighbours_go_first() -> None:
    # Absorbee 1 sees only 2..5 of the pool, absorbee 0 all of it; served
    # in id order, 0 would take 2..5 and leave 1 no core.  The units come
    # in the order they were found, which is walk order.
    g = complete_graph(10).remove_edges([(1, v) for v in range(6, 10)])
    units, fail = build_single_absorbers(g, 0b11, mask_of(range(2, 10)))
    assert fail is None
    assert units == ((2, 3, 1, 4, 5), (6, 7, 0, 8, 9))


def test_round_three_needs_v1_adjacent_to_u1() -> None:
    # x = 0 sees the whole pool 1..4, which is the path 1 2 3 4.  Any u1, u2
    # are two neighbours on the path, and a v1 must be a common neighbour of
    # both: the path has no triangle, so no core exists.  The search tries
    # each u1 and each u2 once, 10 nodes, and no v1.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    cores, fail = build_single_absorbers(g, 1 << 0, 0b11110)
    assert cores is None
    assert fail == {"absorbee": 0, "pool_degree": 4, "free": 4, "nodes": 10}
    # Without v1 ~ u1 the core 1 2 x 3 4 would do: the walk with x is a
    # square path, and only the one without x lacks an edge, the bridge 1-3.
    unit = Absorber((1, 2, 0, 3, 4), (0,))
    assert is_square_path(g, absorb(unit, 0))
    assert not is_square_path(g, absorb(unit, 1 << 0))
    assert verify_absorber(g, unit).failure == {
        "subset": (0,), "reason": "missing bridge edge (1, 3)"
    }


def first_core(g: Graph, x: int, pool: int, enter1: int = -1, enter2: int = -1):
    """The least ``(u1, u2, v1, v2)`` in ``pool`` that makes ``x`` a star
    core, with ``u1`` in ``enter1`` and ``u2`` in ``enter2``, by brute
    force, or ``None``."""
    for u1, u2, v1, v2 in itertools.permutations(bits(pool), 4):
        if (
            enter1 >> u1 & enter2 >> u2 & 1
            and is_square_path(g, (u1, u2, x, v1, v2))
            and is_square_path(g, (u1, u2, v1, v2))
        ):
            return u1, u2, v1, v2
    return None


def cores_within(g: Graph, xs: int, pool: int, budget: int):
    """:func:`build_single_absorbers` with ``_CORE_BUDGET`` set to ``budget``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(absorber_module, "_CORE_BUDGET", budget)
        return build_single_absorbers(g, xs, pool)


@settings(max_examples=100, deadline=None)
@given(n=integers(6, 14), p=sampled_from([0.5, 0.7, 0.9, 1.0]), seed=seeds(),
       k=integers(1, 3), draw=data())
def test_every_core_found_is_a_disjoint_star_core_in_the_pool(
    n, p, seed, k, draw
) -> None:
    g = gnp_generate(n, p, seed)
    order = draw.draw(permutations(range(n)))
    xs = mask_of(order[:k])
    pool = mask_of(order[k : draw.draw(integers(k, n))])
    units, fail = build_single_absorbers(g, xs, pool)
    if fail is not None:
        assert fail["pool_degree"] == (g.rows[fail["absorbee"]] & pool).bit_count()
        return
    assert sorted(unit[2] for unit in units) == bits(xs)
    for u1, u2, x, v1, v2 in units:
        assert is_square_path(g, (u1, u2, x, v1, v2))
        assert is_square_path(g, (u1, u2, v1, v2))
    used = [v for u1, u2, _, v1, v2 in units for v in (u1, u2, v1, v2)]
    assert len(set(used)) == len(used) and mask_of(used) & ~pool == 0


@settings(max_examples=200, deadline=None)
@given(n=integers(5, 10), p=sampled_from([0.4, 0.6, 0.8]), seed=seeds(),
       budget=integers(0, 12), draw=data())
def test_a_search_finds_the_least_core_or_proves_there_is_none(
    n, p, seed, budget, draw
) -> None:
    # Inside its budget the search is exact; a search that spends it all
    # may have missed a core.  The entry masks, which u1 and u2 must lie
    # in, are everything, as for the first absorbee, or any set.
    g = gnp_generate(n, p, seed)
    pool = ((1 << n) - 1) & ~1
    masks = one_of(just(-1), integers(0, (1 << n) - 1))
    enter1, enter2 = draw.draw(masks), draw.draw(masks)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(absorber_module, "_CORE_BUDGET", budget)
        core, nodes = absorber_module._core_search(
            g.rows, g.rows[0] & pool, enter1, enter2
        )
    best = first_core(g, 0, pool, enter1, enter2)
    if core is not None:
        assert core == best and nodes <= budget
    else:
        assert nodes <= budget
        assert nodes == budget or best is None
    if enter1 == enter2 == -1:
        # An absorbee with no unit before it searches with no entry masks.
        units, fail = cores_within(g, 1, pool, budget)
        if core is None:
            assert units is None and fail["nodes"] == nodes
        else:
            u1, u2, v1, v2 = core
            assert units == ((u1, u2, 0, v1, v2),) and fail is None


def test_a_search_stops_at_its_budget() -> None:
    # The path host of the test above takes 10 nodes to exhaust.
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
    for budget, nodes in ((0, 0), (3, 3), (9, 9), (10, 10), (11, 10)):
        assert cores_within(g, 1, 0b11110, budget)[1]["nodes"] == nodes
    # On a complete host the first u1, u2 and v1 make a core, in 3 nodes.
    g = complete_graph(12)
    assert cores_within(g, 1, ((1 << 12) - 1) & ~1, 2)[1] == {
        "absorbee": 0, "pool_degree": 11, "free": 11, "nodes": 2,
    }
    assert cores_within(g, 1, ((1 << 12) - 1) & ~1, 3) == (((1, 2, 0, 3, 4),), None)


@pytest.mark.parametrize("n, p", [(200, 0.5), (400, 0.35), (800, 0.7)])
def test_consecutive_units_meet_in_the_direct_arc(n: int, p: float) -> None:
    # On a dense host every core is chained onto the one before: the unit
    # before's v1 v2 and the next one's u1 u2 form the direct arc.
    for seed in range(3):
        g = gnp_generate(n, p, seed)
        xs = mask_of(range(0, n, 9))
        units, fail = build_single_absorbers(g, xs, ((1 << n) - 1) & ~xs)
        assert fail is None and len(units) == xs.bit_count()
        for a, b in zip(units, units[1:]):
            assert is_square_path(g, (*a[-2:], *b[:2])).ok


# Absorbee 0 sees only 2..5 of the pool 2..11 and absorbee 1 only 6..9, so
# 0 goes first, by id, with the unit 2 3 0 4 5.  Vertex 5 sees 6 but not
# 7, 8 or 9, so no core of 1 enters from 4 5.
NO_CHAINED_CORE = complete_graph(12).remove_edges(
    [(0, v) for v in range(6, 12)]
    + [(1, v) for v in (2, 3, 4, 5, 10, 11)]
    + [(5, v) for v in (7, 8, 9)]
)


def test_an_absorbee_with_no_chained_core_takes_a_plain_core_and_a_link(
    monkeypatch,
) -> None:
    g = NO_CHAINED_CORE
    units, fail = build_single_absorbers(g, 0b11, mask_of(range(2, 12)))
    assert fail is None and units == ((2, 3, 0, 4, 5), (6, 7, 1, 8, 9))
    asked = []
    connect = absorber_module.connect_one

    def recording(g, *job):
        asked.append(job)
        return connect(g, *job)

    monkeypatch.setattr(absorber_module, "connect_one", recording)
    built, fail = hamiltonian.build_absorber(g, 0b11, 2)
    # The link is the connect_one job of the first place, with its seed,
    # through the two pool vertices the units leave.
    assert asked == [((4, 5), (6, 7), 1 << 10 | 1 << 11, 8, 2 * 9_176 * 31)]
    assert fail is None and built.walk == (2, 3, 0, 4, 5, 10, 6, 7, 1, 8, 9)
    assert verify_absorber(g, built).ok
    # With 6-7 and 8-9 gone absorbee 1 has no core at all, and its failure
    # counts the nodes of both searches: 1 chained and 12 plain.
    cut = g.remove_edges([(6, 7), (8, 9)])
    rows, nx = cut.rows, cut.rows[1] & mask_of(range(6, 12))
    search = absorber_module._core_search
    assert search(rows, nx, rows[4] & rows[5], rows[5]) == (None, 1)
    assert search(rows, nx) == (None, 12)
    assert build_single_absorbers(cut, 0b11, mask_of(range(2, 12))) == (None, {
        "absorbee": 1, "pool_degree": 4, "free": 6, "nodes": 13,
    })


def test_star_stage_rejects_overlapping_classes() -> None:
    g = complete_graph(20)
    xs, star = STAR_CLASSES
    assert build_single_absorbers(g, xs, star)[1] is None
    for bad in (
        (xs, star | xs),  # the star pool holds the absorbee
        (xs, star | 1 << 20),  # vertex 20 is not one of g
        (xs, -1),  # a negative mask is no vertex set
        (-1, star),
    ):
        with pytest.raises(InputError):
            build_single_absorbers(g, *bad)


def test_completion_pairs_each_absorbee_with_its_core() -> None:
    g = complete_graph(30)
    xs = 1 << 3 | 1 << 0
    cores = [(10, 11, 12, 13), (14, 15, 16, 17)]
    units = complete_absorbers(xs, cores)
    assert [u[2] for u in units] == [0, 3]
    assert [u[:2] + u[3:] for u in units] == cores
    # They are the units the core search finds, in ascending order.
    built, fail = build_single_absorbers(g, xs, mask_of(range(10, 30)))
    assert fail is None
    assert complete_absorbers(xs, [u[:2] + u[3:] for u in built]) == built


def test_built_units_are_square_paths_with_and_without_their_absorbee() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 11)
    assert absorber is not None
    units = units_of(absorber)
    assert [u[2] for u in units] == list(absorber.absorbees)
    for u1, u2, x, v1, v2 in units:
        assert is_square_path(g, (u1, u2, x, v1, v2)).ok
        assert is_square_path(g, (u1, u2, v1, v2)).ok


def test_chaining_audits_what_it_returns(monkeypatch) -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 5)
    assert absorber is not None
    free = ((1 << g.n) - 1) & ~absorber.body()
    units = units_of(absorber)
    again, fail = chain_absorbers(g, units, free, 5)
    assert fail is None and verify_absorber(g, again).ok
    # The first unit's absorbee moves to a vertex outside the body that
    # misses one of its core; the link ports stay as they were.  The audit
    # fails, and the unit, no star core, is named as bad input.
    u1, u2, _, v1, v2 = units[0]
    x = next(
        v for v in bits(free)
        if not all(g.has_edge(v, u) for u in (u1, u2, v1, v2))
    )
    pool = free & ~(1 << x)
    with pytest.raises(InputError, match=rf"unit \({u1}, {u2}, {x}, {v1}, {v2}\)"):
        chain_absorbers(g, [(u1, u2, x, v1, v2), *units[1:]], pool, 5)
    # A link that is no square path fails the audit with every unit a star
    # core: that is the library's fault, not the input's.  Two units that
    # do not meet in the direct arc need a link.
    first, second = next(
        (a, b) for a in units for b in units
        if a != b and not is_square_path(g, (*a[-2:], *b[:2])).ok
    )
    a, b = first[-2:], second[:2]
    stray = next(v for v in bits(free) if not g.has_edge(v, a[0]))
    bad = connector.ConnectResult(True, (*a, stray, *b), None)
    monkeypatch.setattr(absorber_module, "connect_one", lambda *args: bad)
    with pytest.raises(AssertionError, match="failed verification"):
        chain_absorbers(g, [first, second], free, 5)


def test_chaining_reads_numpy_integer_units_as_ints() -> None:
    # 1 << np.int64(70) is 0, so the units' mask was no int, and the pool
    # less it overflowed.
    g = complete_graph(100)
    pool = (1 << 100) - 1
    units = [tuple(np.arange(70, 75)), tuple(np.arange(80, 85))]
    built, fail = chain_absorbers(g, units, pool, 0)
    plain = [tuple(range(70, 75)), tuple(range(80, 85))]
    assert fail is None and (built, fail) == chain_absorbers(g, plain, pool, 0)
    assert all(type(v) is int for v in built.walk + built.absorbees)
    with pytest.raises(InputError, match=r"^a unit vertex must be an integer, got 82\.0$"):
        chain_absorbers(g, [units[0], (80, 81, 82.0, 83, 84)], pool, 0)


def test_the_audit_reads_a_numpy_integer_walk_as_ints() -> None:
    # Graph.has_edge once shifted a row by a numpy integer and overflowed.
    g = complete_graph(100)
    walk = tuple(np.arange(60, 75))
    report = verify_absorber(g, Absorber(walk, (62, 67)))
    assert report == verify_absorber(g, Absorber(tuple(range(60, 75)), (62, 67)))
    assert report.ok and report.subsets_checked == 3
    cut = g.remove_edges([(60, 63)])
    report = verify_absorber(cut, Absorber(walk, (62, 67)))
    assert report.failure == {"subset": (62,), "reason": "missing bridge edge (60, 63)"}


def test_the_audit_checks_the_walk_range_first() -> None:
    # On both sides of the bulk length, a walk naming no vertex is reported
    # before a bad absorbee, and before any pair is tested.
    for k in (20, BULK_PATH_LEN + 10):
        g = complete_graph(k).remove_edges([(0, 1)])
        for bad in (-1, k, 2**70):
            walk = (*range(k - 1), bad)
            for xs in ((5,), (k + 3,), (0.5,)):
                with pytest.raises(InputError, match=f"^vertex {bad} out of range"):
                    verify_absorber(g, Absorber(walk, xs))


def test_chaining_rejects_empty_and_overlapping_units() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 11)
    assert absorber is not None
    with pytest.raises(InputError):
        chain_absorbers(g, (), 0, 0)
    with pytest.raises(InputError, match="disjoint"):
        chain_absorbers(g, units_of(absorber)[:1] * 2, 0, 0)
    with pytest.raises(InputError, match="five vertices"):
        chain_absorbers(g, [absorber.walk[:3]], 0, 0)


@pytest.mark.parametrize("seed", [-1], ids=["seed"])
def test_absorber_stages_reject_out_of_range_arguments(seed: int) -> None:
    g = complete_graph(30)
    xs, star = STAR_CLASSES
    units, fail = build_single_absorbers(g, xs, star)
    assert fail is None
    with pytest.raises(InputError, match="seed"):
        chain_absorbers(g, units, 0, seed)


ABSORBER_CALLS_ON_MALFORMED_INPUT = {
    # Each once raised something other than InputError.
    "absorb-float-mask": lambda g: absorb(Absorber((0, 1, 2, 3, 4), (2,)), 1.5),
    "absorb-negative-mask": lambda g: absorb(Absorber((0, 1, 2, 3, 4), (2,)), -1),
    "verify-float-vertex": lambda g: verify_absorber(
        g, Absorber((0, 1, 2.5, 3, 4), (2,))
    ),
    "chain-string-unit": lambda g: chain_absorbers(g, ["abcde"], 0, 0),
    "chain-float-unit": lambda g: chain_absorbers(g, [(0, 1, 2.5, 3, 4)], 0, 0),
    "chain-huge-vertex": lambda g: chain_absorbers(g, [(0, 1, 2, 3, 10**30)], 0, 0),
    "complete-short-core": lambda g: complete_absorbers(3, [(1, 2)]),
    "complete-missing-core": lambda g: complete_absorbers(3, [(4, 5, 6, 7)]),
    "complete-float-set": lambda g: complete_absorbers(1.5, []),
}


@pytest.mark.parametrize("call", ABSORBER_CALLS_ON_MALFORMED_INPUT.values(),
                         ids=ABSORBER_CALLS_ON_MALFORMED_INPUT)
def test_the_absorber_api_rejects_malformed_input_with_input_error(call) -> None:
    with pytest.raises(InputError):
        call(complete_graph(30))


@given(data())
def test_bulk_audit_matches_the_looped_audit_under_faults(draw) -> None:
    # Walks of 5 to 200 vertices with absorbees 3 to 8 places apart, on
    # hosts missing up to two bridge edges, some with an absorbee added on
    # an end pair, too close to the one before, off the walk, repeated or
    # out of order.
    k = draw.draw(one_of(integers(5, 200), integers(BULK_PATH_LEN, 200)))
    n = k + draw.draw(integers(0, 10))
    order = [int(v) for v in rng_for(draw.draw(seeds()), 8).permutation(n)]
    walk = order[:k]
    first, step = 2 + draw.draw(integers(0, 3)), draw.draw(integers(3, 8))
    places = list(range(first, k - 2, step))
    bridges = [(walk[i + a], walk[i + b]) for i in places for a, b in ((-2, 1), (-1, 2))]
    # The walk stays a square path, so every example reaches the absorbee
    # checks; the cuts fall on bridge edges.
    cut = host_holding(draw, n, bridges, cut_most=2)
    g = Graph(n, [*cut.edges(), *square_path_pairs(walk)])
    fault = draw.draw(
        sampled_from(["none", "end", "close", "off", "repeat", "order"])
    )
    at = draw.draw(integers(0, len(places)))
    if fault == "end":
        places.insert(at, draw.draw(sampled_from([0, 1, k - 2, k - 1])))
    elif fault == "close" and places:
        j = min(at, len(places) - 1)
        places.insert(j + 1, min(places[j] + draw.draw(integers(1, 2)), k - 1))
    elif fault in ("repeat", "order") and len(places) >= 2:
        j = min(at, len(places) - 2)
        if fault == "repeat":
            places.insert(j, places[j])
        else:
            places[j], places[j + 1] = places[j + 1], places[j]
    xs = [walk[i] for i in places]
    if fault == "off" and n > k:
        xs.insert(min(at, len(xs)), order[k])
    a = Absorber(tuple(walk), tuple(xs))
    assert verify_absorber(g, a) == looped_verify_absorber(g, a)


def _long_absorber(k: int) -> tuple[list[int], list[int]]:
    """A walk of ``k`` vertices, scrambled, and absorbees every six places."""
    walk = [int(v) for v in rng_for(3, 11).permutation(k)]
    return walk, list(range(2, k - 2, 6))


FAULTS_ON_A_LONG_WALK = {
    "none": lambda k, places: places,
    "at-the-entry": lambda k, places: [1, *places[1:]],
    "at-the-exit": lambda k, places: [*places, k - 2],
    "one-after": lambda k, places: [*places[:3], places[2] + 1, *places[3:]],
    "two-after": lambda k, places: [*places[:3], places[2] + 2, *places[3:]],
    "out-of-order": lambda k, places: [places[1], places[0], *places[2:]],
    "repeated": lambda k, places: [places[0], *places],
}


@pytest.mark.parametrize("fault", list(FAULTS_ON_A_LONG_WALK))
@pytest.mark.parametrize("cut", [None, (-2, 1), (-1, 2)], ids=["whole", "cut2", "cut1"])
def test_the_bulk_audit_names_what_the_loop_names(fault, cut) -> None:
    # On a host holding every pair but at most one bridge edge, only the
    # place, spacing and bridge checks can fail.  The audit has one path,
    # so a walk below the square-path check's bulk length is run too.
    for k in (40, BULK_PATH_LEN + 10):
        walk, places = _long_absorber(k)
        places = FAULTS_ON_A_LONG_WALK[fault](k, places)
        g = complete_graph(k + 1)
        if cut is not None:
            i = places[len(places) // 2]
            g = g.remove_edges([(walk[i + cut[0]], walk[i + cut[1]])])
        a = Absorber(tuple(walk), tuple(walk[i] for i in places))
        assert verify_absorber(g, a) == looped_verify_absorber(g, a)
        for xs in ((walk[2], k), (k, walk[8])):
            off = Absorber(tuple(walk), xs)
            assert verify_absorber(g, off) == looped_verify_absorber(g, off)
