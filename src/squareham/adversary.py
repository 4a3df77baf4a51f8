"""Triangle-resilience adversary: partition attacks and their accounting.

The attack removes every edge inside a random vertex class sized just past a
third of the graph, wiping out a calibrated fraction of the triangles at
each vertex while leaving none with two feet in the class.  This module
builds the attack, profiles per-vertex triangle retention, bounds disjoint
triangle packings, prunes triangle-poor edges, and runs seeded Monte Carlo
experiments over random host graphs.
"""

from __future__ import annotations

import concurrent.futures
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .graphcore import (
    Graph,
    InputError,
    _row_dots,
    _square,
    _square_less_within,
    _triangles,
    bits,
    check_graph,
    check_int,
    check_ints,
    check_probability,
    check_vertex_count,
    gnp_generate,
    mask_of,
    rng_for,
    triangle_profile,
)


def _gamma_fraction(gamma) -> Fraction:
    """Interpret ``gamma``, a real number as ``p`` is (never a ``bool`` or a
    ``str``), as a decimal-precision rational in [0, 1/2)."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real):
        raise InputError(f"gamma must be a real number, got {gamma!r}")
    try:
        exact = gamma if isinstance(gamma, numbers.Rational) else float(gamma)
        frac = Fraction(exact).limit_denominator(10**9)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"gamma must be a finite number, got {gamma!r}") from exc
    if not 0 <= frac < Fraction(1, 2):
        raise InputError(f"gamma must lie in [0, 1/2), got {gamma}")
    return frac


def attack_class_size(n: int, gamma) -> int:
    """Size of the removed-edge class: ``ceil((1/3 + 2*gamma/3) * n)``."""
    frac = (Fraction(1, 3) + Fraction(2, 3) * _gamma_fraction(gamma)) * n
    return min(n, -(-frac.numerator // frac.denominator))


@dataclass(frozen=True)
class AttackResult:
    """A partition attack: ``attacked`` is the input minus all edges
    internal to ``v1``."""

    v1: tuple[int, ...]
    v2: tuple[int, ...]
    attacked: Graph
    removed_edge_count: int


def k3_attack(gamma_graph: Graph, gamma, seed: int) -> AttackResult:
    """Remove all edges inside a uniformly random class of the pinned size.

    Args:
        gamma_graph: Host graph to attack.
        gamma: Slack parameter in ``[0, 1/2)``; the class has
            ``ceil((1/3 + 2*gamma/3) * n)`` vertices.
        seed: Seeds the class choice.

    Returns:
        An :class:`AttackResult`.  The attacked graph never contains a
        triangle with two vertices in ``v1`` (checked on every call).

    Raises:
        InputError: If ``gamma`` is outside ``[0, 1/2)``.
    """
    check_graph(gamma_graph, "gamma_graph")
    n = gamma_graph.n
    size = attack_class_size(n, gamma)
    rng = rng_for(seed, 61)
    chosen = rng.choice(n, size=size, replace=False) if size else np.zeros(0, int)
    v1 = tuple(sorted(chosen.tolist()))
    v1_mask = mask_of(v1)
    attacked = gamma_graph.remove_edges_within(v1)
    for u in v1:
        assert not attacked.rows[u] & v1_mask, "attack left an internal edge"
    v2 = tuple(bits(((1 << n) - 1) ^ v1_mask))
    removed = gamma_graph.edge_count - attacked.edge_count
    return AttackResult(v1, v2, attacked, removed)


@dataclass(frozen=True)
class RetentionProfile:
    """Per-vertex triangle counts before/after an attack.

    Retained fractions treat triangle-free vertices as fully retained.
    When ``p_hint`` and ``gamma`` are supplied, after-counts are compared
    against the bracketing thresholds ``(4/9 -+ gamma) * C(n,2) * p^3``.
    """

    before: tuple[int, ...]
    after: tuple[int, ...]
    min_retained: float
    mean_retained: float
    threshold_low: float | None
    threshold_high: float | None
    below_low: int | None
    above_high: int | None


def _retained(t_before, t_after) -> tuple[np.ndarray, float, float]:
    """Each vertex's share of its triangles kept (1 with none), its min and mean."""
    r = np.where(t_before > 0, t_after / np.maximum(t_before, 1), 1.0)
    return r, float(r.min()) if r.size else 1.0, float(r.mean()) if r.size else 1.0


def triangle_retention_profile(
    before: Graph,
    after: Graph,
    p_hint: float | None = None,
    gamma=None,
) -> RetentionProfile:
    """Exact per-vertex triangle retention between two nested graphs.

    Args:
        before: Original graph.
        after: Spanning subgraph of ``before``.
        p_hint: Edge density used for the theory thresholds.
        gamma: Slack for the thresholds ``(4/9 -+ gamma) * C(n,2) * p^3``.

    Returns:
        A :class:`RetentionProfile`.

    Raises:
        InputError: If ``after`` is not a subgraph of ``before``, ``p_hint``
            is not a real number in ``[0, 1]``, or ``gamma`` is outside
            ``[0, 1/2)``.
    """
    check_graph(before, "before")
    check_graph(after, "after")
    if p_hint is not None:
        check_probability("p_hint", p_hint)
    gfrac = None if gamma is None else _gamma_fraction(gamma)
    n = before.n
    ok, offending = after.is_subgraph_of(before)
    if not ok:
        raise InputError(f"after-graph has a new edge {offending}")
    t_before = triangle_profile(before)
    t_after = triangle_profile(after)
    assert (t_after <= t_before).all()
    _, min_retained, mean_retained = _retained(t_before, t_after)
    threshold_low = threshold_high = None
    below = above = None
    if p_hint is not None and gfrac is not None:
        scale = math.comb(n, 2) * p_hint**3
        threshold_low = float((Fraction(4, 9) - gfrac) * Fraction(scale))
        threshold_high = float((Fraction(4, 9) + gfrac) * Fraction(scale))
        below = int((t_after < threshold_low).sum())
        above = int((t_after > threshold_high).sum())
    return RetentionProfile(
        tuple(int(t) for t in t_before),
        tuple(int(t) for t in t_after),
        min_retained,
        mean_retained,
        threshold_low,
        threshold_high,
        below,
        above,
    )


@dataclass(frozen=True)
class PackingResult:
    """Maximum vertex-disjoint triangle packing, exact or bracketed.

    ``status`` is ``exact`` (``lower == upper == size``) or ``bracket``
    (budget exhausted).  ``structural_bound`` is present when a class
    ``v1`` was supplied: no triangle may have two vertices there, so at
    most ``floor(3|v2|/2) / 3`` triangles fit.
    """

    status: str
    size: int
    lower: int
    upper: int
    nodes: int
    structural_bound: int | None
    triangles: tuple[tuple[int, int, int], ...]


def _all_triangles(g: Graph) -> list[tuple[int, int, int]]:
    rows = g.rows
    tris = []
    for u, v in g.edges():
        tris.extend((u, v, w) for w in bits(rows[u] & rows[v]) if w > v)
    return tris


def max_triangle_packing(
    g: Graph,
    v1: Iterable[int] | None = None,
) -> PackingResult:
    """Maximum number of vertex-disjoint triangles, by branch and bound.

    Triangles are 3-bit masks and the covered vertices one bitset.
    Branches on the lowest uncovered vertex on a live triangle (one that
    meets no covered vertex): either one of its live triangles joins the
    packing, or the vertex is set aside.  The uncovered vertices on
    triangles, over 3, bound the rest, capped by the structural bound when
    ``v1`` is given; a greedy packing seeds the incumbent.  When the node
    budget, ``EXPERIMENT_CHECKS["packing_budget"]`` read at call time,
    runs out, the result brackets the optimum instead of pinning it.

    Args:
        g: Host graph.
        v1: Optional vertex class that no triangle of ``g`` meets twice;
            supplies the structural bound.  Ids outside ``g`` are ignored.

    Returns:
        A :class:`PackingResult` with a witness packing.

    Raises:
        InputError: If a triangle of ``g`` has two vertices in ``v1``.
    """
    check_graph(g)
    tris = _all_triangles(g)
    masks = [1 << u | 1 << v | 1 << w for u, v, w in tris]
    # No packing is larger than the triangle count or the structural bound.
    ceiling = len(tris)
    structural = None
    if v1 is not None:
        v1_mask = mask_of(v for v in check_ints("a v1 vertex", v1) if 0 <= v < g.n)
        if any((m & v1_mask).bit_count() > 1 for m in masks):
            raise InputError("v1 must not hold two vertices of a triangle")
        v2_count = g.n - v1_mask.bit_count()
        structural = (3 * v2_count // 2) // 3
        ceiling = min(ceiling, structural)
    tri_at: dict[int, list[int]] = {}
    for idx, t in enumerate(tris):
        for v in t:
            tri_at.setdefault(v, []).append(idx)
    on_triangle = mask_of(tri_at)
    best: list[int] = []
    taken = 0
    for idx, m in enumerate(masks):
        if not taken & m:
            best.append(idx)
            taken |= m
    nodes = 0
    budget = EXPERIMENT_CHECKS["packing_budget"]
    status = "exact"
    # A state is the covered bitset, the packing's size and the packing as
    # a linked list (index, rest).  Branches are pushed last first, so the
    # states pop in depth-first order.
    stack: list[tuple[int, int, tuple | None]] = [(0, 0, None)]
    while stack:
        covered, size, chosen = stack.pop()
        nodes += 1
        if nodes > budget:
            status = "bracket"
            break
        free = on_triangle & ~covered
        if min(size + free.bit_count() // 3, ceiling) <= len(best):
            continue
        while free:
            low = free & -free
            pivot = low.bit_length() - 1
            if any(not masks[i] & covered for i in tri_at[pivot]):
                break
            free ^= low
        else:
            if size > len(best):
                best = []
                while chosen:
                    i, chosen = chosen
                    best.append(i)
            continue
        stack.append((covered | 1 << pivot, size, chosen))
        for i in reversed(tri_at[pivot]):
            if not masks[i] & covered:
                stack.append((covered | masks[i], size + 1, (i, chosen)))
    size = len(best)
    upper = size if status == "exact" else min(on_triangle.bit_count() // 3, ceiling)
    witness = tuple(tris[i] for i in sorted(best))
    return PackingResult(status, size, size, upper, nodes, structural, witness)


def prune_triangle_poor_edges(g: Graph, threshold: int) -> Graph:
    """Drop every edge lying on fewer than ``threshold`` triangles.

    Counts are taken on the input graph in a single pass; the operation is
    deliberately not iterated.

    Args:
        g: Host graph.
        threshold: Minimum triangle support an edge must have to survive.

    Returns:
        The pruned graph (the input itself when ``threshold`` is 0).

    Raises:
        InputError: If ``g`` is not a :class:`Graph` or ``threshold`` is not
            a non-negative integer.
    """
    check_graph(g)
    threshold = check_int("threshold", threshold, 0)
    if threshold == 0 or g.edge_count == 0:
        return g
    # An edge lies on at most n - 2 triangles, so capping the threshold at
    # n keeps the float32 comparison exact and changes no answer.
    marked = _square(g)[1] < min(threshold, g.n)
    # The square's block is already freed, so only the marks are live.
    marked &= g.matrix
    return g.remove_marked_edges(marked)


# Per-seed measurement settings of :func:`resilience_experiment`, echoed in
# its report as ``params["checks"]``.
EXPERIMENT_CHECKS = {
    "prune_eps": 0.05,
    "density_eps": 0.15,
    "density_vertices": 4,
    "density_subsets": 3,
    "packing_budget": 200_000,
    "packing_exact_max_n": 30,
    "retained_center": 4 / 9,
    "retained_band": 0.10,
    "destroyed_center": 5 / 9,
    "destroyed_band": 0.05,
}


def _percentiles(values: np.ndarray) -> dict:
    if values.size == 0:
        return {}
    qs = (5, 25, 50, 75, 95)
    pct = np.percentile(values, qs)
    return {f"p{q}": float(x) for q, x in zip(qs, pct)}


def _class_aggregate(t_before, t_after, idx: np.ndarray) -> float:
    denom = int(t_before[idx].sum())
    if denom == 0:
        return 1.0
    return float(t_after[idx].sum() / denom)


def _edges_inside(graph: Graph, s: np.ndarray) -> int:
    """Number of edges with both ends among the distinct vertices ``s``:
    the rows of ``s`` in :attr:`Graph.packed`, each ANDed with ``s`` packed
    the same way and popcounted, count every such edge from both ends."""
    sel = np.zeros(graph.n, dtype=bool)
    sel[s] = True
    inside = graph.packed.take(s, axis=0)
    inside &= np.packbits(sel, bitorder="little")
    return int(np.bitwise_count(inside).sum()) // 2


def _density_checks(graph: Graph, p: float, seed: int, triangles: np.ndarray) -> dict:
    """Sampled neighborhood edge-density tests.

    For sampled vertices ``v`` and subsets ``S`` of ``N(v)`` at or above the
    ``(2/3)np`` floor (including ``S = N(v)`` itself), checks
    ``e(S) <= (1 + eps) * C(|S|, 2) * p``.  ``triangles`` is the
    :func:`graphcore.triangle_profile` of ``graph``: ``e(N(v))`` is the
    number of triangles at ``v``.
    """
    n = graph.n
    m = graph.matrix
    rng = rng_for(seed, 67)
    floor = math.ceil((2 / 3) * n * p)
    passed = total = skipped = 0
    count = min(EXPERIMENT_CHECKS["density_vertices"], n)
    verts = rng.choice(n, size=count, replace=False) if count else []
    for v in sorted(int(x) for x in verts):
        nbrs = np.flatnonzero(m[v])
        sizes_and_edges = [(nbrs.size, int(triangles[v]))]
        for _ in range(EXPERIMENT_CHECKS["density_subsets"]):
            if nbrs.size > floor:
                size = int(rng.integers(floor, nbrs.size + 1))
                s = rng.choice(nbrs, size, replace=False)
                sizes_and_edges.append((size, _edges_inside(graph, s)))
        for size, edges in sizes_and_edges:
            if size < max(floor, 2):
                skipped += 1
                continue
            cap = (1 + EXPERIMENT_CHECKS["density_eps"]) * math.comb(size, 2) * p
            total += 1
            if edges <= cap:
                passed += 1
    return {"passed": passed, "total": total, "skipped": skipped}


def _experiment_one_seed(args) -> dict:
    n, p, gamma, seed = args
    graph = gnp_generate(n, p, seed)
    attack = k3_attack(graph, gamma, seed)
    # Two buffers live to the end of the seed, allocated in this order
    # before the correction's temporaries, so neither pins freed heap above
    # it (peak RSS moves with allocation order): the host's cached boolean
    # matrix, which the density checks read, and the one block that holds
    # its float32 adjacency ``a`` and ``sq``, whose size keeps the heap's
    # pages mapped for the next seed (see _square).  Turned in place into
    # the attacked graph's, the pair also serves its triangle counts and
    # pruned degrees; no attacked matrix is built.
    a, sq = _square(graph)
    t_before = _triangles(a, sq)
    _square_less_within(graph, attack.v1, a, sq)
    t_after = _triangles(a, sq)
    retained, min_retained, mean_retained = _retained(t_before, t_after)
    destroyed = 1.0 - retained
    v1 = np.asarray(attack.v1, dtype=np.intp)
    v2 = np.asarray(attack.v2, dtype=np.intp)
    agg_v1 = _class_aggregate(t_before, t_after, v1)
    agg_v2 = _class_aggregate(t_before, t_after, v2)
    v1_destroyed = np.sort(destroyed[v1])
    prune_threshold = math.ceil(EXPERIMENT_CHECKS["prune_eps"] * n * p * p)
    # prune_triangle_poor_edges keeps an edge whose codegree reaches the
    # threshold; a vertex keeps the row dot of those flags with its row.
    np.greater_equal(sq, prune_threshold, out=sq)
    min_deg_after = int(_row_dots(sq, a).min()) if n else 0
    record = {
        "seed": seed,
        "v1_size": len(v1),
        "removed_edges": attack.removed_edge_count,
        "min_retained": min_retained,
        "mean_retained": mean_retained,
        "class_retained_v1": agg_v1,
        "class_retained_v2": agg_v2,
        "min_class_retained": min(agg_v1, agg_v2),
        "v1_destroyed_median": float(np.median(v1_destroyed)) if v1.size else 0.0,
        "destroyed_percentiles": _percentiles(destroyed),
        "prune_threshold": prune_threshold,
        "min_degree_after_prune": int(min_deg_after),
        "degree_reference": (2 / 3 + float(gamma) / 4) * n * p,
        "density": _density_checks(graph, p, seed, t_before),
    }
    packing = {"structural_bound": (3 * len(v2) // 2) // 3}
    if n <= EXPERIMENT_CHECKS["packing_exact_max_n"]:
        res = max_triangle_packing(attack.attacked, v1=attack.v1)
        packing.update(
            status=res.status, size=res.size, lower=res.lower, upper=res.upper
        )
    record["packing"] = packing
    return record


def _summary(values: Sequence[float]) -> dict:
    if not values:
        return {}
    arr = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "median": float(np.median(arr)),
    }


def resilience_experiment(
    n: int,
    p: float,
    gamma,
    seeds,
    jobs: int = 1,
) -> dict:
    """Seeded Monte Carlo sweep of the attack and its theory checkpoints.

    Args:
        n: Vertex count of each random host.
        p: Edge probability.
        gamma: Attack slack in ``[0, 1/2)``.
        seeds: Seed count (``int``) or explicit iterable of seeds.
        jobs: Parallel workers across seeds (each seed single-threaded),
            capped at the number of seeds.

    Returns:
        A JSON-ready report ``{"params": ..., "per_seed": [...],
        "aggregates": ...}``.  Deterministic for fixed seeds and params.

    Raises:
        InputError: If ``n`` is not an integer in ``0..sys.maxsize``,
            ``p`` not a real number in ``[0, 1]``, ``gamma`` outside
            ``[0, 1/2)``, the seed count or an explicit seed not a
            non-negative integer, or ``jobs`` not an integer of at least 1.
    """
    n = check_vertex_count("n", n)
    check_probability("p", p)
    gamma = _gamma_fraction(gamma)
    jobs = check_int("jobs", jobs, 1)
    if isinstance(seeds, Iterable):
        seed_list = [check_int("seed", s, 0) for s in seeds]
    else:
        seed_list = list(range(check_vertex_count("seed count", seeds)))
    params = {
        "n": n,
        "p": p,
        "gamma": float(gamma),
        "seeds": seed_list,
        "checks": dict(EXPERIMENT_CHECKS),
    }
    tasks = [(n, p, gamma, s) for s in seed_list]
    # The executor forks all of its workers at the first submit.
    workers = min(jobs, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(_experiment_one_seed, tasks))
    else:
        per_seed = [_experiment_one_seed(t) for t in tasks]
    aggregates: dict = {}
    if per_seed:
        retained_vals = [r["min_class_retained"] for r in per_seed]
        destroyed_vals = [r["v1_destroyed_median"] for r in per_seed]
        within_ret = sum(
            1
            for x in retained_vals
            if abs(x - EXPERIMENT_CHECKS["retained_center"])
            <= EXPERIMENT_CHECKS["retained_band"]
        )
        within_dst = sum(
            1
            for x in destroyed_vals
            if abs(x - EXPERIMENT_CHECKS["destroyed_center"])
            <= EXPERIMENT_CHECKS["destroyed_band"]
        )
        density_totals = sum(r["density"]["total"] for r in per_seed)
        density_passed = sum(r["density"]["passed"] for r in per_seed)
        aggregates = {
            "min_class_retained": _summary(retained_vals),
            "v1_destroyed_median": _summary(destroyed_vals),
            "min_retained": _summary([r["min_retained"] for r in per_seed]),
            "min_degree_after_prune": _summary(
                [r["min_degree_after_prune"] for r in per_seed]
            ),
            "seeds_within_retained_band": within_ret,
            "seeds_within_destroyed_band": within_dst,
            "retained_band_fraction": within_ret / len(per_seed),
            "destroyed_band_fraction": within_dst / len(per_seed),
            "density_pass_fraction": (
                density_passed / density_totals if density_totals else 1.0
            ),
        }
    return {"params": params, "per_seed": per_seed, "aggregates": aggregates}
