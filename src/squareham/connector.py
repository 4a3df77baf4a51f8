"""Pair-to-pair connection search over a reservoir.

A connection job asks for a square path (width 1) or a backbone (width 2)
whose entry and exit ports are two prescribed ordered host edges, with every
other vertex drawn from a reservoir.  :func:`connect_one` serves one job with
one seeded backtracking search that fills the gadget template label by
label.  :func:`connect_all` serves a list of jobs in greedy rounds, so that
their interiors are pairwise disjoint.  :func:`direct_arc` tests the one
connection with no interior, the length-4 square path.

The reservoir is an ``int`` bitset (bit ``v`` set for vertex ``v``):
:func:`connect_one` takes away the ports with one AND.  Each label's
candidates are one mask, the pool less the placed vertices ANDed with the
rows of its placed neighbours, and the search picks among them uniformly
with draws from a seeded SplitMix64 stream, one pick at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from .gadgets import (
    BACKBONE,
    SQUARE_PATH,
    Embedding,
    Gadget,
    build_gadget,
    validate_embedding,
)
from .graphcore import Graph, InputError, bits, mask_of, nth_bit


@dataclass(frozen=True)
class ConnectionRequest:
    """One ordered pair-to-pair connection job over a reservoir.

    Attributes:
        frm: Entry port, an ordered host edge.
        to: Exit port, an ordered host edge; the four port vertices are
            distinct.
        w: Reservoir the interior is drawn from, as a bitset (bit ``v`` set
            for vertex ``v``).
        b: Skip width; 1 builds square paths, 2 builds backbones.
        length: Total label count of the target gadget (``>= 4`` for width 1;
            a multiple of 4, at least 8, for width 2).
    """

    frm: tuple[int, int]
    to: tuple[int, int]
    w: int
    b: int = 1
    length: int = 4


@dataclass(frozen=True)
class ConnectResult:
    """Outcome of one connection search.

    On success, ``embedding`` is a validated square path (width 1) or
    backbone (width 2) whose ports realize the job's ordered pairs.  On
    failure, ``diagnostics`` holds the effective configuration and the
    search nodes spent.
    """

    ok: bool
    embedding: Embedding | None
    diagnostics: dict | None


def _validate_request(g: Graph, req: ConnectionRequest) -> None:
    if req.b not in (1, 2):
        raise InputError(f"skip width must be 1 or 2, got {req.b}")
    if req.b == 1 and req.length < 4:
        raise InputError(f"width-1 connections need length >= 4, got {req.length}")
    if req.b == 2 and (req.length < 8 or req.length % 4 != 0):
        raise InputError(
            f"width-2 connections need length in 8, 12, 16, ..., got {req.length}"
        )
    ports = (*req.frm, *req.to)
    if len(set(ports)) != 4:
        raise InputError(f"job ports overlap: {req.frm} -> {req.to}")
    g.check_vertices(ports)
    rows = g.rows
    if not (rows[req.frm[0]] >> req.frm[1] & 1 and rows[req.to[0]] >> req.to[1] & 1):
        raise InputError(f"job ports must be host edges: {req.frm} -> {req.to}")


def direct_arc(g: Graph, frm: tuple[int, int], to: tuple[int, int]) -> bool:
    """Whether two ordered host edges chain into a square path with no
    interior: the four ports are distinct and ``frm + to`` carries all five
    edges of the length-4 template."""
    (a, b), (c, d) = frm, to
    if len({a, b, c, d}) != 4:
        return False
    g.check_vertices((a, b, c, d))
    rows = g.rows
    return all(rows[u] >> v & 1 for u, v in ((a, b), (b, c), (c, d), (a, c), (b, d)))


def connect_one(g: Graph, req: ConnectionRequest, seed: int) -> ConnectResult:
    """Serve one connection job from its reservoir.

    A seeded backtracking search fills the job's gadget template.  Interior
    vertices come only from ``req.w`` minus the job's ports.

    Returns:
        A :class:`ConnectResult`; never raises for purely quantitative
        failures (a thin reservoir, an exhausted node budget).

    Raises:
        InputError: On a malformed request, a negative seed, or a reservoir
            vertex (outside the ports) that is not a vertex of ``g``.
    """
    _validate_request(g, req)
    # The search draws lazily, so check the seed up front.
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    # _validate_request has checked that every port is a vertex.
    pool_mask = req.w & ~mask_of((*req.frm, *req.to))
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


def _splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream of 64-bit draws seeded by ``seed`` modulo 2^64
    (Steele, Lea and Flood 2014)."""
    m64 = (1 << 64) - 1
    state = seed & m64
    while True:
        state = state + 0x9E3779B97F4A7C15 & m64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & m64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & m64
        yield z ^ z >> 31


def _direct_connect(
    g: Graph,
    req: ConnectionRequest,
    pool: tuple[int, ...],
    seed: int,
    budget: int = 100_000,
) -> ConnectResult:
    """Fill the target template by backtracking over the reservoir.

    ``pool`` lists the reservoir, ``req.w`` less the ports.  Free labels are
    filled in ascending order.  A label's candidates are one mask: the AND
    of its placed template neighbours' rows with the pool less the vertices
    placed so far.  The search tries them in a random order drawn lazily,
    one pick at a time: ``nth_bit(cands, draw % count)``, with ``draw`` from
    a SplitMix64 stream seeded by ``seed``.  The first fitting vertex of a
    uniformly random order of the whole pool is a uniform pick from the
    fitting set, so each pick is distributed as in a scan of a seeded
    shuffle of the pool.

    A node is one pool vertex looked at: entering a state with ``k`` labels
    filled costs ``len(pool) - k`` nodes, what a full pass over the pool
    less the placed vertices costs.  A failed search enters every state
    whatever the order, so its node count does not depend on the draws.
    Past ``budget`` nodes the search stops and reports ``budget + 1``.
    """
    gadget, fixed_edges, free, back_nbrs = _template(req.b, req.length)
    (f0, f1), (t0, t1) = gadget.port_from, gadget.port_to
    image = {f0: req.frm[0], f1: req.frm[1], t0: req.to[0], t1: req.to[1]}
    rows = g.rows
    size = len(pool)
    nodes = 0
    verts = None
    # Edges between two fixed labels beyond the port edges must also hold.
    if all(rows[image[a]] >> image[c] & 1 for a, c in fixed_edges):
        draws = _splitmix64(seed)

        def fill(k: int, avail: int) -> tuple[int, ...] | None:
            nonlocal nodes
            if k == len(free):
                return tuple(image[lab] for lab in range(gadget.labels))
            nodes += size - k
            if nodes > budget:
                return None
            cands = avail
            for o in back_nbrs[k]:
                cands &= rows[image[o]]
            lab = free[k]
            while cands:
                v = nth_bit(cands, next(draws) % cands.bit_count())
                bit = 1 << v
                cands ^= bit
                image[lab] = v
                out = fill(k + 1, avail ^ bit)
                if out is not None:
                    return out
                if nodes > budget:
                    return None
            return None

        verts = fill(0, req.w & ~mask_of(image.values()))
    if verts is None:
        cfg = {"b": req.b, "length": req.length, "pool": size, "seed": seed}
        nodes = min(nodes, budget + 1)
        return ConnectResult(False, None, {"config": cfg, "nodes": nodes})
    emb = Embedding(gadget, verts)
    check = validate_embedding(g, emb, connect_from=req.frm, connect_to=req.to)
    if not check.ok:
        raise AssertionError(f"connection produced an invalid embedding: {check.reason}")
    return ConnectResult(True, emb, None)


@dataclass(frozen=True)
class ConnectAllResult:
    """Batch connection outcome; ``embeddings`` aligns with the requests."""

    ok: bool
    embeddings: tuple[Embedding | None, ...]
    diagnostics: dict | None


def connect_all(
    g: Graph,
    reqs: Sequence[ConnectionRequest],
    seed: int,
    retries: int = 3,
    x: int = 0,
) -> ConnectAllResult:
    """Connect every job with pairwise disjoint interiors.

    Greedy rounds: each round satisfies the first open job that fits, each
    job drawing from its reservoir less the bitset ``x``, the vertices of
    the finished jobs and the ports of the open ones.  A round makes up to
    ``retries`` attempts with fresh search seeds before the whole batch
    fails.

    Raises:
        InputError: On no jobs, ``retries`` below 1, a negative ``x``, a
            malformed job, or from-pairs or to-pairs that are not pairwise
            disjoint.
    """
    if not reqs:
        raise InputError("a batch needs at least one connection job")
    if retries < 1:
        raise InputError(f"retries must be at least 1, got {retries}")
    if x < 0:
        raise InputError(f"an exclusion mask must be non-negative, got {x}")
    fwd_seen = bwd_seen = 0
    for req in reqs:
        _validate_request(g, req)
        fwd, bwd = mask_of(req.frm), mask_of(req.to)
        if fwd & fwd_seen:
            raise InputError("from-pairs must be pairwise disjoint")
        if bwd & bwd_seen:
            raise InputError("to-pairs must be pairwise disjoint")
        fwd_seen |= fwd
        bwd_seen |= bwd
    out: list[Embedding | None] = [None] * len(reqs)
    used = x
    for round_no in range(len(reqs)):
        open_jobs = [i for i, emb in enumerate(out) if emb is None]
        ports = (v for i in open_jobs for v in (*reqs[i].frm, *reqs[i].to))
        blocked = used | mask_of(ports)
        jobs = {i: replace(reqs[i], w=reqs[i].w & ~blocked) for i in open_jobs}
        round_seed = seed * 1_000_003 + round_no * 101
        tries = (
            (i, connect_one(g, job, round_seed + attempt))
            for attempt in range(retries)
            for i, job in jobs.items()
        )
        for i, res in tries:
            if res.ok:
                break
        else:
            return ConnectAllResult(
                False,
                tuple(out),
                {"stalled_jobs": open_jobs, "last_failure": res.diagnostics},
            )
        out[i] = res.embedding
        used |= mask_of(res.embedding.vertices)
    _audit_disjoint_interiors(reqs, out)
    return ConnectAllResult(True, tuple(out), None)


def _audit_disjoint_interiors(
    reqs: Sequence[ConnectionRequest], embs: Sequence[Embedding | None]
) -> None:
    ports = {v for req in reqs for v in (*req.frm, *req.to)}
    seen: set[int] = set()
    for req, emb in zip(reqs, embs):
        if emb is None:
            continue
        interior = emb.vertex_set() - {*req.frm, *req.to}
        if interior & ports:
            raise AssertionError("a connection interior touches a job port")
        if interior & seen:
            raise AssertionError("connection interiors overlap")
        seen |= interior
