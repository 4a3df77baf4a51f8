"""Pair-to-pair connection search over a reservoir.

A connection job asks for a square path whose entry and exit ports are two
prescribed ordered host edges, with every other vertex drawn from a
reservoir.  :func:`connect_one` serves one job with one seeded backtracking
search that fills the path's interior position by position.
:func:`direct_arc` tests the one connection with no interior, the length-4
square path.

The search is exhaustive below its node budget, ``NODE_BUDGET``, and two
facts follow that let a caller skip searches whose failure is certain.  A
search that fails under budget has entered every state, so it fails the
same way for every seed; and it fails on every sub-pool too, whose search
tree is a sub-tree.  :func:`ports_admit` is a check on the ports alone: a
job with an interior position whose nearby ports have no common neighbour
in the pool fails for every seed without a search.

The reservoir is an ``int`` bitset (bit ``v`` set for vertex ``v``):
:func:`connect_one` takes away the ports with one AND, and the pool reaches
the search as that mask; no vertex set is ever listed.  Each position's
candidates are one mask, the pool less the placed vertices ANDed with the
rows of the vertices within distance two that are already fixed, and the
search picks among them uniformly with draws from a seeded SplitMix64
stream, one pick at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gadgets import validate_embedding
from .graphcore import Graph, InputError, check_int, nth_bit, splitmix64

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

    On success, ``path`` is a validated square path whose first two
    vertices are ``frm`` and whose last two are ``to``.  On failure,
    ``diagnostics`` holds the effective configuration and the search nodes
    spent.
    """

    ok: bool
    path: tuple[int, ...] | None
    diagnostics: dict | None


class _Pool(int):
    """A reservoir bitset that ``len()`` counts."""

    __slots__ = ()
    __len__ = int.bit_count


def _validate_request(g: Graph, req: ConnectionRequest) -> int:
    """Check one job and return the bitset of its four ports.

    Raises:
        InputError: On a length below 4 or above ``g.n`` (a square path's
            vertices are distinct), ports that are not two ordered
            pairs of distinct vertices of ``g`` joined by host edges, or a
            reservoir that is not an ``int`` bitset of vertices of ``g``.
    """
    if req.length < 4:
        raise InputError(f"connections need length >= 4, got {req.length}")
    if req.length > g.n:
        raise InputError(f"length {req.length} exceeds the host's {g.n} vertices")
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
    edges of the length-4 square path."""
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

    A seeded backtracking search fills the square path between the job's
    ports.  Interior vertices come only from ``req.w`` minus the ports.

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


def _cross_edges_hold(
    rows: list[int], frm: tuple[int, int], to: tuple[int, int], length: int
) -> bool:
    """Whether the host has the edges of the square path that join an entry
    port to an exit port, the pairs of positions 0, 1 and ``length - 2``,
    ``length - 1`` at distance two or less: ``(frm[1], to[0])`` at length 5,
    and also ``(frm[0], to[0])`` and ``(frm[1], to[1])`` at length 4."""
    (a, b), (c, d) = frm, to
    if length > 5:
        return True
    return bool(
        rows[b] >> c & 1 and (length == 5 or rows[a] >> c & 1 and rows[b] >> d & 1)
    )


def ports_admit(
    g: Graph, frm: tuple[int, int], to: tuple[int, int], pool: int, length: int
) -> bool:
    """Whether the ports alone leave the length-``length`` job a chance.

    ``False`` means :func:`connect_one` fails on the job for every seed: an
    edge of the square path from an entry port to an exit port is missing
    from ``g``, or the ports within distance two of some interior position
    have no common neighbour in ``pool`` less the ports.  Every candidate
    the search could place there lies in that common neighbourhood.  The
    job must be valid, as :func:`connect_one` asks.
    """
    rows = g.rows
    if not _cross_edges_hold(rows, frm, to, length):
        return False
    (a, b), (c, d) = frm, to
    pool &= ~(1 << a | 1 << b | 1 << c | 1 << d)
    entry, exit_ = rows[a] & rows[b], rows[c] & rows[d]
    # Interior position k is within distance two of port position 0 at
    # k = 2, of 1 at k <= 3, of length - 2 at k >= length - 4 and of
    # length - 1 at k = length - 3.
    for k in range(2, length - 2):
        cands = pool
        if k <= 3:
            cands &= entry if k == 2 else rows[b]
        if k >= length - 4:
            cands &= exit_ if k == length - 3 else rows[c]
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
    """Fill the square path's interior by backtracking over the reservoir.

    ``pool`` is the reservoir less the ports, ``req.w & ~ports``, as a
    bitset that ``len()`` counts, and the search starts from it.  Positions
    ``2 .. length - 3`` are filled in ascending order.  A position's
    candidates are one mask: the pool less the vertices placed so far,
    ANDed with the rows of the vertices one and two places back and of the
    exit ports within distance two.  The search tries them in a random
    order drawn lazily, one pick at a time: ``nth_bit(cands, draw %
    count)``, with ``draw`` from a SplitMix64 stream seeded by ``seed``.
    The first fitting vertex of a uniformly random order of the whole pool
    is a uniform pick from the fitting set, so each pick is distributed as
    in a scan of a seeded shuffle of the pool.

    A node is one pool vertex looked at: entering a state with ``k``
    positions filled costs ``len(pool) - k`` nodes, what a full pass over
    the pool less the placed vertices costs.  A failed search enters every
    state whatever the order, so its node count does not depend on the
    draws.  Past ``budget`` nodes the search stops and reports
    ``budget + 1``.

    Two facts follow for a failure that stays within ``budget``: the job
    fails the same way for every seed, and it fails on every sub-pool of
    ``pool`` too, whose candidate masks are subsets of these, so that its
    search tree is a sub-tree of this one.
    """
    frm, to, length = req.frm, req.to, req.length
    path = [*frm, *[0] * (length - 4), *to]
    rows = g.rows
    size = pool.bit_count()
    nodes = 0
    found = False
    if _cross_edges_hold(rows, frm, to, length):
        draws = splitmix64(seed)
        last = length - 2
        # Positions last - 2 and last - 1 are within distance two of the
        # first exit port, and the second also of the last one.
        exit0 = rows[to[0]]
        exit01 = exit0 & rows[to[1]]

        def fill(k: int, avail: int) -> bool:
            nonlocal nodes
            if k == last:
                return True
            nodes += size - (k - 2)
            if nodes > budget:
                return False
            cands = avail & rows[path[k - 1]] & rows[path[k - 2]]
            if k >= last - 2:
                cands &= exit01 if k == last - 1 else exit0
            while cands:
                v = nth_bit(cands, next(draws) % cands.bit_count())
                bit = 1 << v
                cands ^= bit
                path[k] = v
                if fill(k + 1, avail ^ bit):
                    return True
                if nodes > budget:
                    return False
            return False

        found = fill(2, pool)
    if not found:
        cfg = {"length": length, "pool": size, "seed": seed}
        nodes = min(nodes, budget + 1)
        return ConnectResult(False, None, {"config": cfg, "nodes": nodes})
    path = tuple(path)
    check = validate_embedding(g, path, connect_from=frm, connect_to=to)
    if not check.ok:
        raise AssertionError(
            f"connection produced an invalid square path: {check.reason}"
        )
    return ConnectResult(True, path, None)
