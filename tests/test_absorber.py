import itertools
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis.strategies import data, integers, sampled_from

from squareham import (
    AbsorberUnit,
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
from squareham.absorber import absorber_from_json_obj, absorber_to_json_obj
from squareham.gadgets import backbone_label, square_path_pairs
from squareham.graphcore import bits, mask_of


def build_full_absorber(n: int, p: float, seed: int, x_count: int = 3):
    """Drive all three construction stages on one random host."""
    g = gnp_generate(n, p, seed)
    rng = rng_for(seed, 41)
    order = [int(v) for v in rng.permutation(n)]
    star = x_count + 4
    joint = 2 * x_count + 8
    masks = []
    at = 0
    for size in (x_count, star, joint, joint, joint, 6 * x_count + 28):
        masks.append(mask_of(order[at : at + size]))
        at += size
    xs, w1, w2, w3, w4, unit_pool = masks
    link_pool = mask_of(order[at:])
    records, fail = build_single_absorbers(g, xs, w1, w2, w3, w4)
    if fail is not None:
        return g, None, fail
    units, fail = complete_absorbers(g, records, unit_pool, 2, seed)
    if fail is not None:
        return g, None, fail
    built, fail = chain_absorbers(g, units, unit_pool | link_pool, seed)
    return g, built, fail


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


def test_unit_traversals_are_built_once_per_mode(monkeypatch) -> None:
    built = []
    traverse = absorber_module.absorber_traversal

    def counting(backbone, junctions, x, mode):
        built.append((x, mode))
        return traverse(backbone, junctions, x, mode)

    monkeypatch.setattr(absorber_module, "absorber_traversal", counting)
    g, a, fail = next(
        bundle
        for seed in range(20)
        if (bundle := build_full_absorber(150, 0.55, seed))[1] is not None
    )
    # The chaining audit walks both modes of every unit; nothing after that
    # rebuilds a walk.
    modes = ("include", "exclude")
    assert sorted(built) == sorted((x, m) for x in a.absorbees for m in modes)
    assert verify_absorber(g, a).ok
    for k in range(len(a.absorbees) + 1):
        absorb(a, mask_of(a.absorbees[:k]))
    assert len(built) == 2 * len(a.absorbees)
    # A rebuilt unit starts without walks and finds the same ones.
    for unit in a.units:
        fresh = replace(unit)
        for mode in ("include", "exclude"):
            assert fresh.traversal(mode) == unit.traversal(mode)
    with pytest.raises(InputError):
        a.units[0].traversal("sideways")


def test_unit_views_sit_outside_the_compared_fields() -> None:
    g, a, fail = next(
        bundle
        for seed in range(20)
        if (bundle := build_full_absorber(150, 0.55, seed))[1] is not None
    )
    assert [f.name for f in fields(AbsorberUnit)] == ["x", "backbone", "junctions"]
    for unit in a.units:
        slots, blocks = unit.backbone.vertices, unit.blocks
        label = lambda i, j: slots[backbone_label(i, j, blocks)]
        assert unit.entry == (label(1, 1), label(1, 2))
        assert unit.exit == (label(blocks, 3), label(blocks, 4))
        assert unit.vertex_set == mask_of(
            [unit.x, *slots, *itertools.chain(*unit.junctions)]
        )
        fresh = replace(unit)
        unit.traversal("include")
        # Walks built on one copy leave its equality, hash and repr alone.
        assert fresh == unit and hash(fresh) == hash(unit)
        assert repr(fresh) == repr(unit) and "entry" not in repr(unit)


def with_unit_vertex(a, k: int, old: int, new: int):
    """``a`` with vertex ``old`` of unit ``k`` (not its absorbee) renamed."""
    unit = a.units[k]
    slots = tuple(new if v == old else v for v in unit.backbone.vertices)
    junctions = tuple(
        tuple(new if v == old else v for v in j) for j in unit.junctions
    )
    bad = replace(
        unit, backbone=replace(unit.backbone, vertices=slots), junctions=junctions
    )
    return replace(a, units=a.units[:k] + (bad,) + a.units[k + 1 :])


def corrupt(g, a, kind: str, draw):
    """``(g, a)`` with one vertex of ``a`` rewritten, or with the host cut
    down to the edges the (a) and (b) walks use less one, as ``kind`` says.
    Unchanged when ``a`` has nothing of that kind to rewrite."""
    if kind == "host":
        needed = set(square_path_pairs(absorb(a, 0)))
        for unit in a.units:
            needed.update(square_path_pairs(unit.traversal("exclude")))
        edges = sorted(needed)
        drop = draw(sampled_from(edges))
        return Graph(g.n, [e for e in edges if e != drop]), a
    new = draw(integers(min_value=0, max_value=g.n - 1))
    if kind == "backbone":
        k = draw(integers(min_value=0, max_value=len(a.units) - 1))
        old = draw(sampled_from(a.units[k].backbone.vertices))
        return g, with_unit_vertex(a, k, old, new)
    if kind == "junction":
        spots = [
            (k, v) for k, u in enumerate(a.units) for j in u.junctions for v in j
        ]
        if not spots:
            return g, a
        k, old = draw(sampled_from(spots))
        return g, with_unit_vertex(a, k, old, new)
    if kind == "link":
        spots = [(i, v) for i, link in enumerate(a.links) for v in link]
        if not spots:
            return g, a
        i, old = draw(sampled_from(spots))
        link = tuple(new if v == old else v for v in a.links[i])
        return g, replace(a, links=a.links[:i] + (link,) + a.links[i + 1 :])
    if kind == "shared" and len(a.units) > 1:
        k1, k2 = draw(
            sampled_from(list(itertools.permutations(range(len(a.units)), 2)))
        )
        shared = draw(sampled_from(bits(a.units[k1].vertex_set)))
        old = draw(sampled_from(a.units[k2].backbone.vertices))
        return g, with_unit_vertex(a, k2, old, shared)
    return g, a


@settings(max_examples=60)
@given(
    integers(min_value=0, max_value=60),
    integers(min_value=1, max_value=5),
    sampled_from(("none", "backbone", "junction", "link", "shared", "host")),
    data(),
)
def test_compositional_check_matches_subset_enumeration(
    seed: int, x_count: int, kind: str, draws
) -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, seed, x_count)
    if absorber is None:
        return
    host, bad = corrupt(g, absorber, kind, draws.draw)
    report = verify_absorber(host, bad)
    assert report.ok == every_subset_walk_is_valid(host, bad)
    if report.ok:
        assert report.subsets_checked == len(bad.absorbees) + 1
    else:
        assert not subset_walk_is_valid(host, bad, report.failure["subset"])


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
    # Re-route the last backbone slot to a vertex outside the body that is
    # not adjacent to its exit-port partner, so the exit port is no host
    # edge.  (A vertex that only misses some other slot's row may still
    # fit every edge the slot needs, leaving a valid absorber.)
    unit = absorber.units[0]
    verts = list(unit.backbone.vertices)
    outside = next(
        v
        for v in range(g.n)
        if not absorber.body() >> v & 1 and not g.has_edge(v, verts[-2])
    )
    verts[-1] = outside
    from dataclasses import fields, replace

    bad_unit = replace(unit, backbone=replace(unit.backbone, vertices=tuple(verts)))
    bad = replace(absorber, units=(bad_unit,) + absorber.units[1:])
    report = verify_absorber(g, bad)
    assert not report.ok
    assert report.failure


def test_the_junction_sweep_tests_the_direct_arc_before_any_search(
    monkeypatch,
) -> None:
    # The length-4 template is exactly the direct arc, so the sweep checks
    # it without a search and starts its searches at length 5.
    asked = []
    connect = absorber_module.connect_one

    def recording(g, req, seed):
        asked.append(req.length)
        return connect(g, req, seed)

    monkeypatch.setattr(absorber_module, "connect_one", recording)
    sweep = absorber_module._connect_with_fallback
    g = complete_graph(12)
    pool = mask_of(range(4, 12))
    assert sweep(g, (0, 1), (2, 3), pool, 3) == ((), None)
    assert asked == []
    # Without the edge 0-2 there is no arc, and one interior vertex closes it.
    g = g.remove_edges([(0, 2)])
    interior, diag = sweep(g, (0, 1), (2, 3), pool, 3)
    assert len(interior) == 1 and diag is None
    assert asked == [5]
    # With an empty pool every length fails; the report is the last search's.
    interior, diag = sweep(g, (0, 1), (2, 3), 0, 3)
    assert interior is None and diag["config"]["length"] == 8
    assert asked == [5, 5, 6, 7, 8]


def test_absorber_json_round_trip() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 11)
    assert absorber is not None
    clone = absorber_from_json_obj(absorber_to_json_obj(absorber))
    assert clone == absorber
    with pytest.raises(InputError):
        absorber_from_json_obj({"nonsense": True})


# The absorbee 0 and four star pools of two vertices each, as bitsets.
STAR_CLASSES = (1 << 0, 0b110, 0b11000, 0b1100000, 0b110000000)


def test_star_stage_reports_a_deficient_round() -> None:
    # An absorbee with no neighbors in the first pool cannot be matched.
    g = gnp_generate(40, 0.0, 0)
    records, fail = build_single_absorbers(g, *STAR_CLASSES)
    assert records is None
    assert fail is not None
    assert fail["round"] == 1
    assert 0 in fail["violating_absorbees"]


def test_star_stage_rejects_overlapping_classes() -> None:
    g = complete_graph(20)
    xs, w1, w2, w3, w4 = STAR_CLASSES
    assert build_single_absorbers(g, xs, w1, w2, w3, w4)[1] is None
    for bad in (
        (xs, w1, w2 | w1, w3, w4),  # two star pools share vertices
        (xs, w1, w2, w3, w4 | xs),  # a star pool holds the absorbee
        (xs, w1, w2, w3, w4 | 1 << 20),  # vertex 20 is not one of g
        (xs, -1, 0, 0, 0),  # a negative mask is no vertex set
    ):
        with pytest.raises(InputError):
            build_single_absorbers(g, *bad)


def test_completion_reports_exhausted_reservoirs() -> None:
    g = complete_graph(30)
    records, fail = build_single_absorbers(g, *STAR_CLASSES)
    assert fail is None
    units, fail = complete_absorbers(g, records, 1 << 9 | 1 << 10, 2, 0)
    assert units is None
    assert fail is not None
    assert fail["phase"] == "backbone"
    assert fail["absorbee"] == 0


def test_units_keep_the_star_core_as_their_first_block() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 11)
    assert absorber is not None
    for unit in absorber.units:
        u1, u2, v1, v2 = unit.backbone.vertices[:4]
        assert is_square_path(g, (u1, u2, unit.x, v1, v2)).ok


def test_chaining_audits_what_it_returns() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 5)
    assert absorber is not None
    free = ((1 << g.n) - 1) & ~absorber.body()
    again, fail = chain_absorbers(g, absorber.units, free, 5)
    assert fail is None and verify_absorber(g, again).ok
    # Slot (2, 1) of the first unit moves to a vertex outside the body that
    # misses one of the rest of its block; the link ports stay as they were.
    unit = absorber.units[0]
    verts = list(unit.backbone.vertices)
    verts[4] = next(
        v
        for v in bits(free)
        if not all(g.has_edge(v, u) for u in verts[5:8])
    )
    bad = replace(unit, backbone=replace(unit.backbone, vertices=tuple(verts)))
    pool = free & ~mask_of(verts)
    with pytest.raises(AssertionError, match="failed verification"):
        chain_absorbers(g, (bad,) + absorber.units[1:], pool, 5)


def test_chaining_rejects_empty_and_overlapping_units() -> None:
    g, absorber, _ = build_full_absorber(150, 0.55, 11)
    assert absorber is not None
    with pytest.raises(InputError):
        chain_absorbers(g, (), 0, 0)
    with pytest.raises(InputError, match="disjoint"):
        chain_absorbers(g, absorber.units[:1] * 2, 0, 0)


@pytest.mark.parametrize("blocks, seed", [(1, 0), (2, -1)], ids=["blocks", "seed"])
def test_absorber_stages_reject_out_of_range_arguments(blocks, seed) -> None:
    g = complete_graph(30)
    records, fail = build_single_absorbers(g, *STAR_CLASSES)
    assert fail is None
    pool = mask_of(range(9, 30))
    with pytest.raises(InputError, match="blocks" if blocks < 2 else "seed"):
        complete_absorbers(g, records, pool, blocks, seed)
    if seed < 0:
        units, fail = complete_absorbers(g, records, pool, 2, 0)
        assert fail is None
        with pytest.raises(InputError, match="seed"):
            chain_absorbers(g, units, 0, seed)
