"""Pair-to-pair connection search over a reservoir.

A connection job asks for a square path (width 1) or a backbone (width 2)
whose entry and exit ports are two prescribed ordered host edges, with every
other vertex drawn from a reservoir.  :func:`connect_one` serves one job with
one seeded backtracking search that fills the gadget template label by
label.  :func:`connect_all` serves a list of jobs in greedy rounds, so that
their interiors are pairwise disjoint.

The reservoir is an ``int`` bitset (bit ``v`` set for vertex ``v``):
:func:`connect_one` takes away the ports with one AND.  The pool's vertices
are listed once per distinct mask, and the search tries them in a seeded
shuffle of the whole ascending pool.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

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
    if len({*req.frm, *req.to}) != 4:
        raise InputError(f"job ports overlap: {req.frm} -> {req.to}")
    if not g.has_edge(*req.frm) or not g.has_edge(*req.to):
        raise InputError(f"job ports must be host edges: {req.frm} -> {req.to}")


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
    # The reservoir shuffle is drawn lazily, so check the seed up front.
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


@functools.lru_cache(maxsize=8)
def _pool_array(pool: tuple[int, ...]) -> np.ndarray:
    """``pool`` as an int64 array.

    Cached for the last few pools: the threading's length sweep shuffles
    one pool under a different seed per length.
    """
    return np.array(pool, dtype=np.int64)


@functools.lru_cache(maxsize=8)
def _reservoir_order(seed: int, pool: tuple[int, ...]) -> tuple[int, ...]:
    """The seeded shuffle of ``pool`` the template search tries candidates in.

    Shuffling the pool's values draws the same swaps as shuffling its
    positions, so this is ``pool`` indexed by ``permutation(len(pool))``.
    Cached for the last few keys: the short-first length sweep of the
    absorber's junctions asks for the same order once per length.
    """
    return tuple(rng_for(seed, 13).permutation(_pool_array(pool)).tolist())


def _direct_connect(
    g: Graph,
    req: ConnectionRequest,
    pool: tuple[int, ...],
    seed: int,
    budget: int = 100_000,
) -> ConnectResult:
    """Fill the target template by backtracking over the reservoir.

    Free labels are assigned in ascending order from a seeded shuffle of the
    reservoir, drawn only once the search gets to its first free label; a
    candidate must be adjacent to every already-placed template neighbor,
    which is one bit test against the AND of their rows.  The search stops
    after ``budget`` nodes.
    """
    gadget, fixed_edges, free, back_nbrs = _template(req.b, req.length)
    (f0, f1), (t0, t1) = gadget.port_from, gadget.port_to
    image = {f0: req.frm[0], f1: req.frm[1], t0: req.to[0], t1: req.to[1]}
    rows = g.rows
    nodes = 0
    verts = None
    # Edges between two fixed labels beyond the port edges must also hold.
    if all(rows[image[a]] >> image[c] & 1 for a, c in fixed_edges):
        order = _reservoir_order(seed, pool) if free else ()
        # A set: a membership test is cheaper than a shift of a wide mask
        # in the candidate loop, which is the search's inner loop.
        taken: set[int] = set()

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
    if verts is None:
        cfg = {"b": req.b, "length": req.length, "pool": len(pool), "seed": seed}
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
