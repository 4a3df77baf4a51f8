"""Pair-to-pair connection search over a reservoir.

A connection job asks for a square path (width 1) or a backbone (width 2)
whose entry and exit ports are two prescribed ordered host edges, with every
other vertex drawn from a reservoir.  One seeded backtracking search fills
the gadget template label by label; :func:`connect_all` runs it in greedy
rounds so that the jobs of one request get pairwise disjoint interiors.

The reservoir and the exclusions are ``int`` bitsets (bit ``v`` set for
vertex ``v``): :func:`connect_one` takes away the exclusions and the ports
with one AND.  The pool's vertices are listed once per distinct mask, and
the search tries them in a seeded shuffle of the whole ascending pool.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

from .gadgets import (
    BACKBONE,
    SQUARE_PATH,
    Embedding,
    Gadget,
    build_gadget,
    validate_embedding,
)
from .graphcore import Graph, InputError, bits, mask_of, rng_for


@dataclass(frozen=True)
class ConnectionRequest:
    """A batch of ordered pair-to-pair connection jobs over one reservoir.

    Attributes:
        pairs: ``((from_pair, to_pair), ...)``; each pair is an ordered host
            edge, and the four vertices of one job are distinct.
        w: Reservoir the interiors are drawn from, as a bitset (bit ``v``
            set for vertex ``v``).
        b: Skip width; 1 builds square paths, 2 builds backbones.
        length: Total label count of the target gadget (``>= 4`` for width 1;
            a multiple of 4, at least 8, for width 2).
        retries: Attempts per round of :func:`connect_all`, each with a fresh
            search seed; at least 1.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    w: int
    b: int = 1
    length: int = 4
    retries: int = 3


@dataclass(frozen=True)
class ConnectResult:
    """Outcome of a connection search.

    On success, ``seed_index`` names the satisfied job and ``embedding`` is a
    validated square path (width 1) or backbone (width 2) whose ports realize
    the job's ordered pairs.  On failure, ``diagnostics`` holds the effective
    configuration and the search nodes each job spent.
    """

    ok: bool
    seed_index: int | None
    embedding: Embedding | None
    diagnostics: dict | None


def _validate_request(g: Graph, req: ConnectionRequest) -> None:
    if req.b not in (1, 2):
        raise InputError(f"skip width must be 1 or 2, got {req.b}")
    if not req.pairs:
        raise InputError("request carries no pairs")
    if req.retries < 1:
        raise InputError(f"retries must be at least 1, got {req.retries}")
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
    x: int,
    seed: int,
) -> ConnectResult:
    """Satisfy one job of a connection request from the reservoir.

    A seeded backtracking search fills each job's gadget template in turn;
    the first job that fits wins.  Interior vertices come only from
    ``req.w`` minus the bitset ``x`` and the request's ports.

    Returns:
        A :class:`ConnectResult`; never raises for purely quantitative
        failures (a thin reservoir, an exhausted node budget).

    Raises:
        InputError: On a malformed request, a negative seed or exclusion
            mask, or a reservoir vertex (outside ``x`` and the ports) that
            is not a vertex of ``g``.
    """
    _validate_request(g, req)
    # The reservoir shuffle is drawn lazily, so check the seed up front.
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if x < 0:
        raise InputError(f"an exclusion mask must be non-negative, got {x}")
    # _validate_request has checked that every port is a vertex.
    ports = mask_of(v for (a, c) in req.pairs for v in (*a, *c))
    pool_mask = req.w & ~(x | ports)
    if pool_mask < 0 or pool_mask >> g.n:
        raise InputError(f"reservoir holds vertices outside 0..{g.n - 1}")
    return _direct_connect(g, req, _listed(pool_mask), seed)


@functools.lru_cache(maxsize=8)
def _listed(pool_mask: int) -> tuple[int, ...]:
    """The pool's vertices in ascending order.

    Cached for the last few masks: a short-first length sweep asks for the
    same pool once per length.
    """
    return tuple(bits(pool_mask))


@functools.cache
def _template(b: int, length: int) -> tuple[
    Gadget,
    tuple[tuple[int, int], ...],
    tuple[int, ...],
    tuple[tuple[int, ...], ...],
]:
    """The target gadget, its edges between two port labels, its free labels
    in ascending order, and for each free label the template neighbours
    already placed when it is filled."""
    if b == 1:
        gadget = build_gadget(SQUARE_PATH, length=length)
    else:
        gadget = build_gadget(BACKBONE, blocks=length // 4)
    fixed = {*gadget.port_from, *gadget.port_to}
    fixed_edges = tuple((a, c) for a, c in gadget.edges if a in fixed and c in fixed)
    free = tuple(lab for lab in range(gadget.labels) if lab not in fixed)
    back_nbrs: dict[int, list[int]] = {lab: [] for lab in free}
    for a, c in gadget.edges:
        for lab, other in ((a, c), (c, a)):
            if lab in back_nbrs and (other not in back_nbrs or other < lab):
                back_nbrs[lab].append(other)
    return gadget, fixed_edges, free, tuple(tuple(back_nbrs[lab]) for lab in free)


@functools.lru_cache(maxsize=8)
def _reservoir_order(seed: int, pool: tuple[int, ...]) -> tuple[int, ...]:
    """The seeded shuffle of ``pool`` the template search tries candidates in.

    Cached for the last few keys: the short-first length sweep of the
    absorber's junctions asks for the same order once per length.
    """
    perm = rng_for(seed, 13).permutation(len(pool)).tolist()
    return tuple(map(pool.__getitem__, perm))


def _direct_connect(
    g: Graph,
    req: ConnectionRequest,
    pool: tuple[int, ...],
    seed: int,
    budget: int = 100_000,
) -> ConnectResult:
    """Fill the target template by backtracking over the reservoir.

    Free labels are assigned in ascending order from a seeded shuffle of the
    reservoir, drawn only once a job gets to its first free label; a
    candidate must be adjacent to every already-placed template neighbor,
    which is one bit test against the AND of their rows.  Each job gets its
    own node budget.
    """
    gadget, fixed_edges, free, back_nbrs = _template(req.b, req.length)
    f0, f1 = gadget.port_from
    t0, t1 = gadget.port_to
    rows = g.rows
    order: tuple[int, ...] = ()
    nodes_spent: list[int] = []
    for i, ((x1, x2), (y1, y2)) in enumerate(req.pairs):
        image: dict[int, int] = {f0: x1, f1: x2, t0: y1, t1: y2}
        # Edges between two fixed labels beyond the port edges must also hold.
        if not all(rows[image[a]] >> image[c] & 1 for a, c in fixed_edges):
            nodes_spent.append(0)
            continue
        if free and not order:
            order = _reservoir_order(seed, pool)
        # A set: a membership test is cheaper than a shift of a wide mask
        # in the candidate loop, which is the search's inner loop.
        taken: set[int] = set()
        nodes = 0

        def fill(k: int) -> tuple[int, ...] | None:
            nonlocal nodes
            if k == len(free):
                return tuple(image[lab] for lab in range(gadget.labels))
            lab = free[k]
            # Every bit of -1 is set: with no placed neighbour, any vertex fits.
            fits = -1
            for o in back_nbrs[k]:
                fits &= rows[image[o]]
            for v in order:
                if v in taken:
                    continue
                nodes += 1
                if nodes > budget:
                    return None
                if fits >> v & 1:
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
    cfg = {
        "b": req.b,
        "length": req.length,
        "pairs": len(req.pairs),
        "pool": len(pool),
        "seed": seed,
        "route": "direct",
    }
    return ConnectResult(
        False, None, None, {"config": cfg, "nodes_per_job": nodes_spent}
    )


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
    x: int = 0,
) -> ConnectAllResult:
    """Connect every job of a request with pairwise disjoint interiors.

    Greedy rounds: each round satisfies one job and retires its vertices from
    the pool.  A round makes up to ``req.retries`` attempts with fresh search
    seeds before the whole batch fails.  No interior touches the bitset
    ``x``.
    """
    _validate_request(g, req)
    remaining = list(range(len(req.pairs)))
    out: list[Embedding | None] = [None] * len(req.pairs)
    used = x
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
        for attempt in range(req.retries):
            sub_seed = seed * 1_000_003 + round_no * 101 + attempt
            res = connect_one(g, sub, used, sub_seed)
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
        used |= mask_of(res.embedding.vertices)
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
