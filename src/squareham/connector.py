"""Pair-to-pair connection search over a reservoir.

A connection job asks for a square path whose entry and exit ports are two
prescribed ordered host edges, with every other vertex drawn from a
reservoir.  :func:`connect_one` serves one job with one seeded backtracking
search that fills the gadget template label by label.  :func:`connect_all`
serves a list of jobs in greedy rounds, so that their interiors are
pairwise disjoint.  :func:`direct_arc` tests the one
connection with no interior, the length-4 square path.

The search is exhaustive below its node budget, ``NODE_BUDGET``, and two
facts follow that let a caller skip searches whose failure is certain.  A
search that fails under budget has entered every state, so it fails the
same way for every seed; and it fails on every sub-pool too, whose search
tree is a sub-tree.  :func:`ports_admit` is a check on the ports alone: a
job whose template puts some free label next to port vertices with no
common neighbour in the pool fails for every seed without a search.

The reservoir is an ``int`` bitset (bit ``v`` set for vertex ``v``):
:func:`connect_one` takes away the ports with one AND, and the pool reaches
the search as that mask; no vertex set is ever listed.  Each label's
candidates are one mask, the pool less the placed vertices ANDed with the
rows of its placed neighbours, and the search picks among them uniformly
with draws from a seeded SplitMix64 stream, one pick at a time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Sequence

from .gadgets import SQUARE_PATH, Embedding, Gadget, build_gadget, validate_embedding
from .graphcore import Graph, InputError, check_int, mask_of, nth_bit, splitmix64

# Search seeds each connect_all round tries before the batch fails.
_ROUND_ATTEMPTS = 3
# Pool vertices one search may look at; a failure past it reports
# NODE_BUDGET + 1 nodes.
NODE_BUDGET = 100_000


@dataclass(frozen=True)
class ConnectionRequest:
    """One ordered pair-to-pair connection job over a reservoir.

    Attributes:
        frm: Entry port, an ordered host edge.
        to: Exit port, an ordered host edge; the four port vertices are
            distinct.
        w: Reservoir the interior is drawn from, as a bitset (bit ``v`` set
            for vertex ``v``).
        length: Vertex count of the square path, ports included (``>= 4``).
    """

    frm: tuple[int, int]
    to: tuple[int, int]
    w: int
    length: int = 4


@dataclass(frozen=True)
class ConnectResult:
    """Outcome of one connection search.

    On success, ``embedding`` is a validated square path whose ports realize
    the job's ordered pairs.  On failure, ``diagnostics`` holds the
    effective configuration and the search nodes spent.
    """

    ok: bool
    embedding: Embedding | None
    diagnostics: dict | None


class _Pool(int):
    """A reservoir bitset that ``len()`` counts."""

    __slots__ = ()
    __len__ = int.bit_count


def _validate_request(g: Graph, req: ConnectionRequest) -> int:
    """Check one job and return the bitset of its four ports.

    Raises:
        InputError: On a length below 4, ports that are not two ordered
            pairs of distinct vertices of ``g`` joined by host edges, or a
            reservoir that is not an ``int`` bitset of vertices of ``g``.
    """
    if req.length < 4:
        raise InputError(f"connections need length >= 4, got {req.length}")
    try:
        (p, q), (r, s) = req.frm, req.to
    except (TypeError, ValueError):
        raise InputError(
            f"job ports must be two ordered pairs: {req.frm} -> {req.to}"
        ) from None
    if p == q or p == r or p == s or q == r or q == s or r == s:
        raise InputError(f"job ports overlap: {req.frm} -> {req.to}")
    n = g.n
    if not (0 <= p < n and 0 <= q < n and 0 <= r < n and 0 <= s < n):
        g.check_vertices((p, q, r, s))
    rows = g.rows
    if not (rows[p] >> q & 1 and rows[r] >> s & 1):
        raise InputError(f"job ports must be host edges: {req.frm} -> {req.to}")
    g.check_mask(req.w, "reservoir")
    return 1 << p | 1 << q | 1 << r | 1 << s


def direct_arc(g: Graph, frm: tuple[int, int], to: tuple[int, int]) -> bool:
    """Whether two ordered host edges chain into a square path with no
    interior: the four ports are distinct and ``frm + to`` carries all five
    edges of the length-4 template."""
    (a, b), (c, d) = frm, to
    if a == b or a == c or a == d or b == c or b == d or c == d:
        return False
    n = g.n
    if not (0 <= a < n and 0 <= b < n and 0 <= c < n and 0 <= d < n):
        g.check_vertices((a, b, c, d))
    rows = g.rows
    ra, rb = rows[a], rows[b]
    return bool(
        ra >> b & 1 and rb >> c & 1 and rows[c] >> d & 1 and ra >> c & 1 and rb >> d & 1
    )


def connect_one(g: Graph, req: ConnectionRequest, seed: int) -> ConnectResult:
    """Serve one connection job from its reservoir.

    A seeded backtracking search fills the job's gadget template.  Interior
    vertices come only from ``req.w`` minus the job's ports.

    Returns:
        A :class:`ConnectResult`; never raises for purely quantitative
        failures (a thin reservoir, an exhausted node budget).

    Raises:
        InputError: On a malformed request (a reservoir that is not an
            ``int`` bitset of vertices of ``g`` included) or a seed that is
            not a non-negative integer.
    """
    ports = _validate_request(g, req)
    # The search draws lazily, so check the seed up front.
    check_int("seed", seed, 0)
    return _direct_connect(g, req, _Pool(req.w & ~ports), seed)


@functools.cache
def _template(length: int) -> tuple[
    Gadget,
    tuple[tuple[int, int], ...],
    tuple[int, ...],
    tuple[tuple[int, ...], ...],
]:
    """The target gadget, its edges between two port labels other than the
    two port edges (which :func:`_validate_request` checks), its free labels
    in ascending order, and for each free label the template neighbours
    already placed when it is filled."""
    gadget = build_gadget(SQUARE_PATH, length=length)
    fixed = {*gadget.port_from, *gadget.port_to}
    port_edges = {tuple(sorted(gadget.port_from)), tuple(sorted(gadget.port_to))}
    fixed_edges = tuple(
        (a, c)
        for a, c in gadget.edges
        if a in fixed and c in fixed and (a, c) not in port_edges
    )
    free = tuple(lab for lab in range(gadget.labels) if lab not in fixed)
    back_nbrs: dict[int, list[int]] = {lab: [] for lab in free}
    for a, c in gadget.edges:
        for lab, other in ((a, c), (c, a)):
            if lab in back_nbrs and (other not in back_nbrs or other < lab):
                back_nbrs[lab].append(other)
    return gadget, fixed_edges, free, tuple(tuple(back_nbrs[lab]) for lab in free)


@functools.cache
def _port_rules(length: int) -> tuple[
    tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]
]:
    """:func:`_template`'s fixed edges, and each free label's template
    neighbours among the port labels, as places in ``(*frm, *to)``."""
    gadget, fixed_edges, free, _ = _template(length)
    ports = (*gadget.port_from, *gadget.port_to)
    port_nbrs: dict[int, list[int]] = {lab: [] for lab in free}
    for a, c in gadget.edges:
        for lab, other in ((a, c), (c, a)):
            if lab in port_nbrs and other in ports:
                port_nbrs[lab].append(ports.index(other))
    fixed = tuple((ports.index(a), ports.index(c)) for a, c in fixed_edges)
    return fixed, tuple(tuple(port_nbrs[lab]) for lab in free)


def ports_admit(
    g: Graph, frm: tuple[int, int], to: tuple[int, int], pool: int, length: int
) -> bool:
    """Whether the ports alone leave the length-``length`` job a chance.

    ``False`` means :func:`connect_one` fails on the job for every seed:
    an edge of the template between two port labels, beyond the two port
    edges, is missing from ``g``, or some free label's port neighbours have
    no common neighbour in ``pool`` less the ports.  Every candidate the
    search could place there lies in that common neighbourhood.  The job
    must be valid, as :func:`connect_one` asks.
    """
    fixed, port_nbrs = _port_rules(length)
    ports = (*frm, *to)
    rows = g.rows
    for a, c in fixed:
        if not rows[ports[a]] >> ports[c] & 1:
            return False
    pool &= ~(1 << ports[0] | 1 << ports[1] | 1 << ports[2] | 1 << ports[3])
    for nbrs in port_nbrs:
        cands = pool
        for i in nbrs:
            cands &= rows[ports[i]]
        if not cands:
            return False
    return True


def _direct_connect(
    g: Graph,
    req: ConnectionRequest,
    pool: _Pool,
    seed: int,
    budget: int = NODE_BUDGET,
) -> ConnectResult:
    """Fill the target template by backtracking over the reservoir.

    ``pool`` is the reservoir less the ports, ``req.w & ~ports``, as a
    bitset that ``len()`` counts, and the search starts from it.  Free
    labels are filled in ascending order.  A label's candidates are one
    mask: the AND of its placed template neighbours' rows with the pool
    less the vertices placed so far.  The search tries them in a random
    order drawn lazily, one pick at a time: ``nth_bit(cands, draw %
    count)``, with ``draw`` from a SplitMix64 stream seeded by ``seed``.
    The first fitting vertex of a uniformly random order of the whole pool
    is a uniform pick from the fitting set, so each pick is distributed as
    in a scan of a seeded shuffle of the pool.

    A node is one pool vertex looked at: entering a state with ``k`` labels
    filled costs ``len(pool) - k`` nodes, what a full pass over the pool
    less the placed vertices costs.  A failed search enters every state
    whatever the order, so its node count does not depend on the draws.
    Past ``budget`` nodes the search stops and reports ``budget + 1``.

    Two facts follow for a failure that stays within ``budget``: the job
    fails the same way for every seed, and it fails on every sub-pool of
    ``pool`` too, whose candidate masks are subsets of these, so that its
    search tree is a sub-tree of this one.
    """
    gadget, fixed_edges, free, back_nbrs = _template(req.length)
    (f0, f1), (t0, t1) = gadget.port_from, gadget.port_to
    image = [0] * gadget.labels
    image[f0], image[f1] = req.frm
    image[t0], image[t1] = req.to
    rows = g.rows
    size = pool.bit_count()
    nodes = 0
    found = False
    # Edges between two fixed labels beyond the port edges must also hold.
    for a, c in fixed_edges:
        if not rows[image[a]] >> image[c] & 1:
            break
    else:
        draws = splitmix64(seed)
        depth = len(free)

        def fill(k: int, avail: int) -> bool:
            nonlocal nodes
            if k == depth:
                return True
            nodes += size - k
            if nodes > budget:
                return False
            cands = avail
            for o in back_nbrs[k]:
                cands &= rows[image[o]]
            lab = free[k]
            while cands:
                v = nth_bit(cands, next(draws) % cands.bit_count())
                bit = 1 << v
                cands ^= bit
                image[lab] = v
                if fill(k + 1, avail ^ bit):
                    return True
                if nodes > budget:
                    return False
            return False

        found = fill(0, pool)
    if not found:
        cfg = {"length": req.length, "pool": size, "seed": seed}
        nodes = min(nodes, budget + 1)
        return ConnectResult(False, None, {"config": cfg, "nodes": nodes})
    emb = Embedding(gadget, tuple(image))
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
) -> ConnectAllResult:
    """Connect every job with pairwise disjoint interiors.

    Greedy rounds: each round satisfies the first open job that fits, each
    job drawing from its reservoir less the vertices of the finished jobs
    and the ports of the open ones.  A round tries every open job with up
    to ``_ROUND_ATTEMPTS`` search seeds, derived from ``seed`` and the
    round, before the whole batch fails.

    Raises:
        InputError: On no jobs, a malformed job, or from-pairs or to-pairs
            that are not pairwise disjoint.
    """
    if not reqs:
        raise InputError("a batch needs at least one connection job")
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
    used = 0
    for round_no in range(len(reqs)):
        open_jobs = [i for i, emb in enumerate(out) if emb is None]
        ports = (v for i in open_jobs for v in (*reqs[i].frm, *reqs[i].to))
        blocked = used | mask_of(ports)
        jobs = {i: replace(reqs[i], w=reqs[i].w & ~blocked) for i in open_jobs}
        round_seed = seed * 1_000_003 + round_no * 101
        tries = (
            (i, connect_one(g, job, round_seed + attempt))
            for attempt in range(_ROUND_ATTEMPTS)
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
    ports = mask_of(v for req in reqs for v in (*req.frm, *req.to))
    seen = 0
    for req, emb in zip(reqs, embs):
        if emb is None:
            continue
        interior = mask_of(emb.vertices) & ~mask_of((*req.frm, *req.to))
        if interior & ports:
            raise AssertionError("a connection interior touches a job port")
        if interior & seen:
            raise AssertionError("connection interiors overlap")
        seen |= interior
