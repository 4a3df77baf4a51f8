"""Connecting machinery: projection graphs, expansion accounting, and search.

The central object is the *projection graph*: starting from ordered seed
pairs, layers of vertex pairs are grown through a chain of disjoint reservoir
classes.  Each layer-``t`` pair ``(old, new)`` certifies an embeddable
interleaved pseudo-path of ``t + 2`` vertices ending at ``(old, new)``; a
layer pair found from both ends of a connection request therefore yields a
square path (width 1) or a backbone (width 2) joining two prescribed ordered
vertex pairs.

Seed provenance is tracked with bitmasks so that a forward pair and a
backward pair are only ever combined when they grew from the same request
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .gadgets import (
    BACKBONE,
    PSEUDO_PATH,
    SQUARE_PATH,
    Embedding,
    build_gadget,
    join_pseudo_paths_to_backbone,
    validate_embedding,
)
from .graphcore import Graph, InputError, random_partition, rng_for

SKIP = "skip"
CONSECUTIVE = "consecutive"
SEED = "seed"

# Tolerance of the expansion statistics a failed search reports.
_STATS_EPS = 0.05


# -- projection graphs -------------------------------------------------------


@dataclass(frozen=True)
class LayerEdge:
    """One pair of a projection layer.

    ``old`` lies in the back class of the step, ``new`` in the step's class.
    ``seed_mask`` is the bitwise OR of originating request indices; ``parents``
    indexes the previous layer in discovery order.
    """

    old: int
    new: int
    flavor: str
    seed_mask: int
    parents: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ProjectionGraph:
    """Layered pair-expansion structure over disjoint reservoir classes.

    ``layers[0]`` holds the seed pairs; ``layers[t]`` the pairs grown at step
    ``t``.  ``pi`` maps step ``t`` (1-based) to the physical class
    ``classes[pi[t-1] - 1]``.
    """

    g: Graph
    b: int
    seeds: tuple[tuple[int, int], ...]
    pi: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    excluded: tuple[int, ...]
    depth: int
    layers: tuple[tuple[LayerEdge, ...], ...]

    def step_class(self, t: int) -> tuple[int, ...]:
        """Vertices of the class used at step ``t >= 1``."""
        if not (1 <= t <= len(self.pi)):
            raise InputError(f"step {t} out of range")
        return self.classes[self.pi[t - 1] - 1]


def parent_flavor(j: int, b: int) -> str:
    """Which flavor of layer ``j - 1`` feeds layer ``j``."""
    if j == 1:
        return SEED
    if b == 1 or j % 2 == 1:
        return CONSECUTIVE
    return SKIP


def step_flavor(t: int, b: int) -> str:
    """Flavor of layer-``t`` pairs that span classes ``pi(f(t))``/``pi(t)``."""
    if b == 1 or t % 2 == 0:
        return CONSECUTIVE
    return SKIP


def build_projection_graph(
    g: Graph,
    seeds: Sequence[tuple[int, int]],
    pi: Sequence[int],
    classes: Sequence[Sequence[int]],
    excluded: Iterable[int] = (),
    b: int = 1,
    depth: int | None = None,
) -> ProjectionGraph:
    """Grow a projection graph from ordered seed pairs.

    Args:
        g: Host graph.
        seeds: Ordered vertex pairs; every pair must be a host edge and the
            pairs must be pairwise vertex-disjoint and avoid the classes.
        pi: Permutation of ``1..m`` assigning physical classes to steps.
        classes: ``m`` pairwise disjoint vertex classes.
        excluded: Vertices struck from every class before growing.
        b: Skip width (1 or 2).
        depth: How many steps to grow (defaults to ``m``).

    Returns:
        The grown :class:`ProjectionGraph`.
    """
    if b not in (1, 2):
        raise InputError(f"skip width must be 1 or 2, got {b}")
    m = len(classes)
    if sorted(pi) != list(range(1, m + 1)):
        raise InputError(f"pi must be a permutation of 1..{m}, got {tuple(pi)}")
    if depth is None:
        depth = m
    if not (0 <= depth <= m):
        raise InputError(f"depth must lie in 0..{m}, got {depth}")
    xs = frozenset(excluded)
    cls: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for c in classes:
        cc = tuple(sorted(set(c) - xs))
        for v in cc:
            g._check_vertex(v)
            if v in seen:
                raise InputError(f"vertex {v} appears in two classes")
        seen.update(cc)
        cls.append(cc)
    seed_vertices: set[int] = set()
    for a, c in seeds:
        if not g.has_edge(a, c):
            raise InputError(f"seeds must be disjoint edges of the graph: ({a}, {c})")
        if a in seed_vertices or c in seed_vertices or a == c:
            raise InputError(f"seeds must be disjoint edges of the graph: ({a}, {c})")
        seed_vertices.update((a, c))
    if seed_vertices & seen:
        raise InputError("seed vertices must avoid the classes")

    layer0 = tuple(
        LayerEdge(a, c, SEED, 1 << i, ()) for i, (a, c) in enumerate(seeds)
    )
    layers: list[tuple[LayerEdge, ...]] = [layer0]
    for j in range(1, depth + 1):
        want = parent_flavor(j, b)
        parents = [
            (idx, e)
            for idx, e in enumerate(layers[j - 1])
            if want == SEED or e.flavor == want
        ]
        target = cls[pi[j - 1] - 1]
        target_set = frozenset(target)
        grown: dict[tuple[int, int], list] = {}
        for idx, e in parents:
            u, w = e.old, e.new
            hits = g.neighbors(u) & g.neighbors(w) & target_set
            for v in sorted(hits):
                for old, flavor in ((u, SKIP), (w, CONSECUTIVE)):
                    key = (old, v)
                    slot = grown.get(key)
                    if slot is None:
                        grown[key] = [flavor, e.seed_mask, [idx]]
                    else:
                        if slot[0] != flavor:
                            raise AssertionError(
                                "flavor collision in projection growth"
                            )
                        slot[1] |= e.seed_mask
                        slot[2].append(idx)
        layer = tuple(
            LayerEdge(old, new, fl, mask, tuple(par))
            for (old, new), (fl, mask, par) in sorted(grown.items())
        )
        layers.append(layer)
    return ProjectionGraph(
        g=g,
        b=b,
        seeds=tuple((a, c) for a, c in seeds),
        pi=tuple(pi),
        classes=tuple(tuple(sorted(set(c))) for c in classes),
        excluded=tuple(sorted(xs)),
        depth=depth,
        layers=tuple(layers),
    )


def _layer_lookup(f: ProjectionGraph, t: int) -> dict[tuple[int, int], int]:
    return {(e.old, e.new): i for i, e in enumerate(f.layers[t])}


def _extract_vertices(
    f: ProjectionGraph, t: int, edge_idx: int, bit: int | None
) -> tuple[tuple[int, ...], int]:
    """Vertex sequence and seed index of the pseudo-path ending at a pair."""
    e = f.layers[t][edge_idx]
    if bit is None:
        mask = e.seed_mask
        bit = (mask & -mask).bit_length() - 1
    if not e.seed_mask >> bit & 1:
        raise InputError(f"pair has no provenance from seed {bit}")
    rev: list[int] = []
    cur = e
    level = t
    while level >= 1:
        rev.append(cur.new)
        chosen = None
        for pidx in cur.parents:
            cand = f.layers[level - 1][pidx]
            if cand.seed_mask >> bit & 1:
                chosen = cand
                break
        if chosen is None:
            raise AssertionError("provenance chain broke during extraction")
        if cur.flavor == SKIP and cur.old != chosen.old:
            raise AssertionError("skip pair does not extend its parent")
        if cur.flavor == CONSECUTIVE and cur.old != chosen.new:
            raise AssertionError("consecutive pair does not extend its parent")
        cur = chosen
        level -= 1
    rev.append(cur.new)
    rev.append(cur.old)
    return tuple(reversed(rev)), bit


def extract_pseudo_path(
    f: ProjectionGraph, j: int, edge: tuple[int, int]
) -> tuple[Embedding, int]:
    """Recover an embedded pseudo-path from a block-level pair.

    Args:
        f: The projection graph.
        j: Block index; the pair is read at step ``2 j``.
        edge: Ordered pair ``(u, v)`` with ``u`` in the class of step
            ``2j - 1`` and ``v`` in the class of step ``2j``.

    Returns:
        ``(embedding, seed_index)`` where the embedding realizes the
        width-``b`` pseudo-path on ``2j + 2`` labels ending at ``(u, v)``.

    Raises:
        InputError: If the pair is absent from the requested layer slice.
    """
    t = 2 * j
    if j < 1 or t > f.depth:
        raise InputError(f"block {j} outside the grown depth {f.depth}")
    lookup = _layer_lookup(f, t)
    idx = lookup.get((edge[0], edge[1]))
    if idx is None or f.layers[t][idx].flavor != CONSECUTIVE:
        raise InputError(
            f"pair {tuple(edge)} is not a step-{t} pair between the "
            f"classes of steps {t - 1} and {t}"
        )
    verts, seed_idx = _extract_vertices(f, t, idx, None)
    emb = Embedding(build_gadget(PSEUDO_PATH, length=t + 2, b=f.b), verts)
    check = validate_embedding(f.g, emb)
    if not check.ok:
        raise AssertionError(f"extracted pseudo-path is invalid: {check.reason}")
    return emb, seed_idx


# -- expansion statistics ----------------------------------------------------


@dataclass(frozen=True)
class StepStats:
    """Pair count of one step and whether it expands into the next."""

    index: int
    count: int
    expanding_strong: bool | None
    expanding_weak: bool | None


@dataclass(frozen=True)
class BlockStats:
    """A block's two steps; the block expands if either step does."""

    index: int
    steps: tuple[int, int]
    expanding_strong: bool
    expanding_weak: bool


@dataclass(frozen=True)
class ExpansionStats:
    """Per-step counts plus expansion flags at the two canonical thresholds."""

    eps: float
    strong_threshold: float
    weak_threshold: float
    steps: tuple[StepStats, ...]
    blocks: tuple[BlockStats, ...]


def step_pair_count(f: ProjectionGraph, t: int) -> int:
    """Number of step-``t`` pairs spanning classes ``pi(f(t))`` and ``pi(t)``."""
    if t == 0:
        return len(f.layers[0])
    want = step_flavor(t, f.b)
    return sum(1 for e in f.layers[t] if e.flavor == want)


def expansion_stats(f: ProjectionGraph, eps: float) -> ExpansionStats:
    """Step counts and expansion flags of a grown projection graph.

    Step ``t`` is ``C``-expanding when the step-``t+1`` count is at least
    ``C`` times the step-``t`` count (vacuously when the latter is zero).
    Thresholds: strong ``1 / eps``, weak ``1 + 4 sqrt(eps)``.  Block ``i``
    spans steps ``2i`` and ``2i + 1`` and expands if either step does.
    """
    if not (0 < eps < 1):
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    strong = 1.0 / eps
    weak = 1.0 + 4.0 * math.sqrt(eps)
    counts = [step_pair_count(f, t) for t in range(f.depth + 1)]
    steps: list[StepStats] = []
    for t, c in enumerate(counts):
        if t + 1 <= f.depth:
            nxt = counts[t + 1]
            es = c == 0 or nxt >= strong * c
            ew = c == 0 or nxt >= weak * c
        else:
            es = ew = None
        steps.append(StepStats(t, c, es, ew))
    blocks: list[BlockStats] = []
    for i in range(1, (f.depth - 2) // 2 + 1):
        s0, s1 = steps[2 * i], steps[2 * i + 1]
        blocks.append(
            BlockStats(
                i,
                (2 * i, 2 * i + 1),
                bool(s0.expanding_strong or s1.expanding_strong),
                bool(s0.expanding_weak or s1.expanding_weak),
            )
        )
    return ExpansionStats(eps, strong, weak, tuple(steps), tuple(blocks))


# -- connection search -------------------------------------------------------


@dataclass(frozen=True)
class ConnectionRequest:
    """A batch of ordered pair-to-pair connection jobs over one reservoir.

    Attributes:
        pairs: ``((from_pair, to_pair), ...)``; each pair is an ordered host
            edge, and the four vertices of one job are distinct.
        w: Reservoir vertices the interiors are drawn from.
        b: Skip width; 1 builds square paths, 2 builds backbones.
        length: Total label count of the target gadget (``>= 4`` for width 1;
            a multiple of 4, at least 8, for width 2).
        retries: Rounds of fresh reservoir cuts in :func:`connect_all`.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    w: tuple[int, ...]
    b: int = 1
    length: int = 4
    retries: int = 3


@dataclass(frozen=True)
class ConnectResult:
    """Outcome of a connection search.

    On success, ``seed_index`` names the satisfied job and ``embedding`` is a
    validated square path (width 1) or backbone (width 2) whose ports realize
    the job's ordered pairs.  On failure, ``diagnostics`` holds middle-layer
    counts per job, expansion statistics, and the effective configuration.
    """

    ok: bool
    seed_index: int | None
    embedding: Embedding | None
    diagnostics: dict | None


def split_step(m: int, b: int) -> int:
    """Forward growth depth for a meeting search over ``m`` classes.

    Width 1 meets near the middle, clamped so both directions grow at least
    two steps.  Width 2 must meet at a depth congruent to ``2 (mod 4)`` so
    that the forward piece tiles whole blocks and never outruns the backward
    piece.
    """
    if b == 1:
        if m < 2:
            raise InputError(f"width-1 meeting needs at least 2 classes, got {m}")
        return min(max(m // 2, 2), m)
    if m < 4 or m % 4 != 0:
        raise InputError(f"width-2 meeting needs 4 | m and m >= 4, got {m}")
    half = m // 2
    return half if half % 4 == 2 else half - 2


def _validate_request(g: Graph, req: ConnectionRequest) -> None:
    if req.b not in (1, 2):
        raise InputError(f"skip width must be 1 or 2, got {req.b}")
    if not req.pairs:
        raise InputError("request carries no pairs")
    if req.b == 1 and req.length < 4:
        raise InputError(f"width-1 connections need length >= 4, got {req.length}")
    if req.b == 2 and (req.length < 8 or req.length % 4 != 0):
        raise InputError(
            f"width-2 connections need length in 8, 12, 16, ..., got {req.length}"
        )
    fwd_seen: set[int] = set()
    bwd_seen: set[int] = set()
    for (x1, x2), (y1, y2) in req.pairs:
        if len({x1, x2, y1, y2}) != 4:
            raise InputError(f"job ports overlap: {(x1, x2)} -> {(y1, y2)}")
        if not g.has_edge(x1, x2) or not g.has_edge(y1, y2):
            raise InputError(
                f"job ports must be host edges: {(x1, x2)} -> {(y1, y2)}"
            )
        if x1 in fwd_seen or x2 in fwd_seen:
            raise InputError("from-pairs must be pairwise disjoint")
        if y1 in bwd_seen or y2 in bwd_seen:
            raise InputError("to-pairs must be pairwise disjoint")
        fwd_seen.update((x1, x2))
        bwd_seen.update((y1, y2))


def connect_one(
    g: Graph,
    req: ConnectionRequest,
    x: Iterable[int],
    seed: int,
    route: str = "auto",
) -> ConnectResult:
    """Satisfy one job of a connection request through a fresh reservoir cut.

    Short targets (at most four interior vertices) are filled by a seeded
    backtracking search directly against the gadget template.  Longer targets
    grow all jobs simultaneously (one seed bit each) from both ends; the
    first job whose forward and backward growths meet compatibly in the
    middle wins, with ties broken by job order and then lexicographic pair
    order.  Interior vertices come only from ``req.w`` minus ``x``.

    Args:
        route: ``auto`` picks per length, ``direct`` forces the template
            search, ``projection`` forces two-sided growth.

    Returns:
        A :class:`ConnectResult`; never raises for purely quantitative
        failures (thin layers, no meeting pair).
    """
    _validate_request(g, req)
    if route not in ("auto", "direct", "projection"):
        raise InputError(f"route must be auto, direct, or projection: {route!r}")
    xs = set(x)
    ports = {v for (a, c) in req.pairs for v in (*a, *c)}
    pool = sorted(set(req.w) - xs - ports)
    m = req.length - 4
    cfg = {
        "b": req.b,
        "length": req.length,
        "pairs": len(req.pairs),
        "pool": len(pool),
        "seed": seed,
    }

    if route == "direct" and m > 4:
        raise InputError(
            f"direct route handles at most 4 interior vertices, got {m}"
        )
    if route in ("auto", "direct") and m <= 4:
        return _direct_connect(g, req, pool, seed, cfg)
    if req.b == 1 and m < 2:
        raise InputError(
            f"two-sided growth needs length >= 6 for width 1, got {req.length}"
        )

    ntil = len(pool) // (m + 1)
    if ntil < 1:
        return ConnectResult(
            False,
            None,
            None,
            {"config": cfg, "reason": f"reservoir yields {ntil} vertices per class"},
        )
    rng = rng_for(seed, 11)
    part = random_partition(pool, [ntil] * m, rng)
    classes = part.classes

    s_star = split_step(m, req.b)
    t_child = (m - s_star + 2) if req.b == 1 else (m - s_star)
    fwd_seeds = tuple(a for a, _ in req.pairs)
    bwd_seeds = tuple((y2, y1) for _, (y1, y2) in req.pairs)
    fwd = build_projection_graph(
        g, fwd_seeds, tuple(range(1, m + 1)), classes, (), req.b, depth=s_star
    )
    bwd = build_projection_graph(
        g, bwd_seeds, tuple(range(m, 0, -1)), classes, (), req.b, depth=t_child
    )
    fwd_mid = [
        (idx, e)
        for idx, e in enumerate(fwd.layers[s_star])
        if e.flavor == CONSECUTIVE
    ]
    bwd_mid = [
        (idx, e)
        for idx, e in enumerate(bwd.layers[t_child])
        if e.flavor == CONSECUTIVE
    ]

    per_seed_fwd = [0] * len(req.pairs)
    per_seed_bwd = [0] * len(req.pairs)
    for _, e in fwd_mid:
        for i in range(len(req.pairs)):
            if e.seed_mask >> i & 1:
                per_seed_fwd[i] += 1
    for _, e in bwd_mid:
        for i in range(len(req.pairs)):
            if e.seed_mask >> i & 1:
                per_seed_bwd[i] += 1

    if req.b == 1:
        bwd_lookup = {
            (e.old, e.new): (idx, e.seed_mask) for idx, e in bwd_mid
        }
        for i in range(len(req.pairs)):
            for idx, e in fwd_mid:
                if not e.seed_mask >> i & 1:
                    continue
                hit = bwd_lookup.get((e.new, e.old))
                if hit is None or not hit[1] >> i & 1:
                    continue
                fv, _ = _extract_vertices(fwd, s_star, idx, i)
                bv, _ = _extract_vertices(bwd, t_child, hit[0], i)
                joined = fv + tuple(reversed(bv))[2:]
                emb = Embedding(build_gadget(SQUARE_PATH, length=req.length), joined)
                return _success(g, req, i, emb)
    else:
        for i in range(len(req.pairs)):
            found = _meet_width2(g, req, fwd, bwd, fwd_mid, bwd_mid, s_star, t_child, i)
            if found is not None:
                return found

    diagnostics = {
        "config": cfg,
        "middle_forward_per_job": per_seed_fwd,
        "middle_backward_per_job": per_seed_bwd,
        "forward_stats": expansion_stats(fwd, _STATS_EPS),
        "backward_stats": expansion_stats(bwd, _STATS_EPS),
    }
    if req.b == 2:
        compat = 0
        for _, e in fwd_mid:
            for _, d in bwd_mid:
                if (
                    e.seed_mask & d.seed_mask
                    and g.has_edge(e.old, d.old)
                    and g.has_edge(e.new, d.old)
                    and g.has_edge(e.old, d.new)
                ):
                    compat += 1
        diagnostics["compatible_middle_tuples"] = compat
    return ConnectResult(False, None, None, diagnostics)


def _direct_connect(
    g: Graph,
    req: ConnectionRequest,
    pool: list[int],
    seed: int,
    cfg: dict,
    budget: int = 100_000,
) -> ConnectResult:
    """Fill the target template by backtracking over the reservoir.

    Free labels are assigned in ascending order from a seeded shuffle of the
    reservoir; a candidate must be adjacent to every already-placed template
    neighbor.  Each job gets its own node budget.
    """
    cfg = dict(cfg, route="direct")
    if req.b == 1:
        gadget = build_gadget(SQUARE_PATH, length=req.length)
    else:
        gadget = build_gadget(BACKBONE, blocks=req.length // 4)
    f0, f1 = gadget.port_from
    t0, t1 = gadget.port_to
    free = sorted(set(range(gadget.labels)) - {f0, f1, t0, t1})
    # Template neighbors already placed when a free label gets filled.
    back_nbrs: dict[int, list[int]] = {lab: [] for lab in free}
    for a, b in gadget.edges:
        for lab, other in ((a, b), (b, a)):
            if lab in back_nbrs and (other not in back_nbrs or other < lab):
                back_nbrs[lab].append(other)
    rng = rng_for(seed, 13)
    order = [pool[i] for i in rng.permutation(len(pool))] if pool else []
    nodes_spent: list[int] = []
    for i, ((x1, x2), (y1, y2)) in enumerate(req.pairs):
        image: dict[int, int] = {f0: x1, f1: x2, t0: y1, t1: y2}
        # Edges between two fixed labels beyond the port edges must also hold.
        fixed_ok = all(
            g.has_edge(image[a], image[b])
            for a, b in gadget.edges
            if a in image and b in image
        )
        if not fixed_ok:
            nodes_spent.append(0)
            continue
        taken: set[int] = set()
        nodes = 0

        def fill(k: int) -> tuple[int, ...] | None:
            nonlocal nodes
            if k == len(free):
                return tuple(image[lab] for lab in range(gadget.labels))
            lab = free[k]
            for v in order:
                if v in taken:
                    continue
                nodes += 1
                if nodes > budget:
                    return None
                if all(g.has_edge(v, image[o]) for o in back_nbrs[lab]):
                    image[lab] = v
                    taken.add(v)
                    out = fill(k + 1)
                    if out is not None:
                        return out
                    del image[lab]
                    taken.discard(v)
                if nodes > budget:
                    return None
            return None

        verts = fill(0)
        nodes_spent.append(nodes)
        if verts is not None:
            return _success(g, req, i, Embedding(gadget, verts))
    return ConnectResult(
        False, None, None, {"config": cfg, "nodes_per_job": nodes_spent}
    )


def _meet_width2(
    g: Graph,
    req: ConnectionRequest,
    fwd: ProjectionGraph,
    bwd: ProjectionGraph,
    fwd_mid: list,
    bwd_mid: list,
    s_star: int,
    t_child: int,
    i: int,
) -> ConnectResult | None:
    for fidx, e in fwd_mid:
        if not e.seed_mask >> i & 1:
            continue
        u, v = e.old, e.new
        for bidx, d in bwd_mid:
            if not d.seed_mask >> i & 1:
                continue
            zf, wf = d.old, d.new
            if not (g.has_edge(u, zf) and g.has_edge(v, zf) and g.has_edge(u, wf)):
                continue
            fv, _ = _extract_vertices(fwd, s_star, fidx, i)
            bv, _ = _extract_vertices(bwd, t_child, bidx, i)
            blue = Embedding(
                build_gadget(PSEUDO_PATH, length=s_star + 2, b=2), fv
            )
            red = Embedding(
                build_gadget(PSEUDO_PATH, length=t_child + 4, b=2), bv + (u, v)
            )
            red_check = validate_embedding(g, red)
            if not red_check.ok:
                raise AssertionError(
                    f"extended backward pseudo-path invalid: {red_check.reason}"
                )
            emb = join_pseudo_paths_to_backbone(blue, red)
            return _success(g, req, i, emb)
    return None


def _success(g: Graph, req: ConnectionRequest, i: int, emb: Embedding) -> ConnectResult:
    frm, to = req.pairs[i]
    check = validate_embedding(g, emb, connect_from=tuple(frm), connect_to=tuple(to))
    if not check.ok:
        raise AssertionError(f"connection produced an invalid embedding: {check.reason}")
    return ConnectResult(True, i, emb, None)


@dataclass(frozen=True)
class ConnectAllResult:
    """Batch connection outcome; ``embeddings`` aligns with the request pairs."""

    ok: bool
    embeddings: tuple[Embedding | None, ...]
    diagnostics: dict | None


def connect_all(
    g: Graph,
    req: ConnectionRequest,
    seed: int,
    x: Iterable[int] = (),
    route: str = "auto",
) -> ConnectAllResult:
    """Connect every job of a request with pairwise disjoint interiors.

    Greedy rounds: each round draws a fresh reservoir cut, satisfies one job,
    and retires its vertices from the pool.  A round may retry ``req.retries``
    times with new cuts before the whole batch fails.
    """
    _validate_request(g, req)
    remaining = list(range(len(req.pairs)))
    out: list[Embedding | None] = [None] * len(req.pairs)
    used: set[int] = set(x)
    round_no = 0
    while remaining:
        sub = ConnectionRequest(
            pairs=tuple(req.pairs[i] for i in remaining),
            w=req.w,
            b=req.b,
            length=req.length,
            retries=req.retries,
        )
        res = None
        for attempt in range(max(1, req.retries)):
            res = connect_one(
                g, sub, used, seed * 1_000_003 + round_no * 101 + attempt, route
            )
            if res.ok:
                break
        assert res is not None
        if not res.ok:
            return ConnectAllResult(
                False,
                tuple(out),
                {"stalled_jobs": list(remaining), "last_failure": res.diagnostics},
            )
        job = remaining.pop(res.seed_index)
        out[job] = res.embedding
        used.update(res.embedding.vertex_set())
        round_no += 1
    _audit_disjoint_interiors(req, out)
    return ConnectAllResult(True, tuple(out), None)


def _audit_disjoint_interiors(
    req: ConnectionRequest, embs: Sequence[Embedding | None]
) -> None:
    ports = {v for (a, c) in req.pairs for v in (*a, *c)}
    seen: set[int] = set()
    for i, emb in enumerate(embs):
        if emb is None:
            continue
        own = set(req.pairs[i][0]) | set(req.pairs[i][1])
        interior = emb.vertex_set() - own
        if interior & ports:
            raise AssertionError("a connection interior touches a job port")
        if interior & seen:
            raise AssertionError("connection interiors overlap")
        seen |= interior
