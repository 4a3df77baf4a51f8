"""Pair-to-pair connection search over a reservoir.

A connection job is the plain arguments of :func:`connect_one`: its ports,
two prescribed ordered host edges, its reservoir, and the longest square
path it accepts.  It is served shortest first, by two routes.  Length 4,
the direct arc, is read off the port rows; each longer length is one
seeded backtracking search that fills the interior position by position,
exhaustive below its node budget, ``NODE_BUDGET``.

The reservoir and the pool, the reservoir less the ports, are ``int``
bitsets (bit ``v`` set for vertex ``v``); no vertex set is ever listed.
Each position's candidates are one mask, the pool less the placed vertices
ANDed with the rows of the fixed vertices within distance two, and a pick
is :func:`~squareham.graphcore.pick_bit` of a draw from a seeded SplitMix64
stream, the lowest candidate at or above a random offset, not uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gadgets import read_ports, validate_embedding
from .graphcore import Graph, InputError, check_graph, check_int, pick_bit, splitmix64

# Pool vertices one search may look at; a failure past it reports
# NODE_BUDGET + 1 nodes.
NODE_BUDGET = 100_000
# The most vertices an absorber link or a threading probe asks for.
MAX_LENGTH = 8


@dataclass(frozen=True)
class ConnectResult:
    """Outcome of one connection job: on success, ``path`` is a validated
    square path from ``frm`` to ``to``; on failure, ``diagnostics`` holds
    the effective configuration and the search nodes spent."""

    ok: bool
    path: tuple[int, ...] | None
    diagnostics: dict | None


class _Pool(int):
    """A reservoir bitset that ``len()`` counts."""

    __slots__ = ()
    __len__ = int.bit_count


def _validate_request(
    g: Graph, frm: tuple[int, int], to: tuple[int, int], w: int, length: int
) -> int:
    """Check one job, its ports two pairs of plain ints and its length at
    least 4, and return the bitset of its four ports.

    Raises:
        InputError: On a length over ``g.n`` (a square path's vertices are
            distinct), ports that are not four distinct vertices of ``g``
            joined by host edges, or a reservoir that is not an ``int``
            bitset of vertices of ``g``.
    """
    if length > g.n:
        raise InputError(f"length {length} exceeds the host's {g.n} vertices")
    (p, q), (r, s) = frm, to
    if p == q or p == r or p == s or q == r or q == s or r == s:
        raise InputError(f"job ports overlap: {frm} -> {to}")
    n = g.n
    if not (0 <= p < n and 0 <= q < n and 0 <= r < n and 0 <= s < n):
        g.check_vertices((p, q, r, s))
    rows = g.rows
    if not (rows[p] >> q & 1 and rows[r] >> s & 1):
        raise InputError(f"job ports must be host edges: {frm} -> {to}")
    g.check_mask(w, "reservoir")
    return 1 << p | 1 << q | 1 << r | 1 << s


def connect_one(
    g: Graph, frm: tuple[int, int], to: tuple[int, int], w: int, length: int, seed: int
) -> ConnectResult:
    """Serve one connection job from its reservoir, shortest path first.

    The job asks for a square path of at most ``length`` vertices from the
    entry port ``frm`` to the exit port ``to``, two ordered host edges on
    four distinct vertices (numpy integers are read as ints), with its
    interior drawn from the reservoir bitset ``w``.  Lengths 4 to
    ``length`` are tried in turn, and the first path that lands is
    returned, once :func:`~squareham.gadgets.validate_embedding` has passed
    it.  Length 4 is read off the port rows before any mask is built.
    Each length from 5 on is one search (:func:`_direct_connect`) over the
    pool, ``w`` less the ports, drawing from a fresh stream of ``seed``.  A
    length is skipped, at no node cost, if it misses an edge between an
    entry and an exit port, or if some interior position has no candidate
    in the pool: position 2 must see both entry ports, position 3 the
    second, ``length - 4`` the first exit port and ``length - 3`` both.

    Returns:
        A :class:`ConnectResult`; never raises for purely quantitative
        failures (a thin reservoir, an exhausted node budget).  A failure's
        diagnostics hold the job's ``length``, the ``pool`` size, the
        ``seed`` and the ``nodes`` spent, summed over the lengths tried.

    Raises:
        InputError: On a malformed job (a reservoir that is not an ``int``
            bitset of vertices of ``g`` included) or a seed that is not a
            non-negative integer.
    """
    if type(g) is not Graph:  # a Graph needs no call
        check_graph(g)
    if type(length) is not int or length < 4:  # a plain int needs no call
        length = check_int("length", length)
        if length < 4:
            raise InputError(f"connections need length >= 4, got {length}")
    (a, b), (c, d) = frm, to = read_ports(frm, to)
    ports = _validate_request(g, frm, to, w, length)
    # The searches draw lazily, so check the seed up front.
    if type(seed) is not int or seed < 0:  # a plain int needs no call
        seed = check_int("seed", seed, 0)
    rows = g.rows
    if _cross_edges_hold(rows, frm, to, 4):
        return ConnectResult(True, (*frm, *to), None)
    pool = _Pool(w & ~ports)
    nb, nc = rows[b] & pool, rows[c] & pool
    entry, exit_ = rows[a] & nb, rows[d] & nc
    nodes = 0
    for k in range(5, length + 1):
        if k == 5 and not (rows[b] >> c & 1 and entry & exit_):
            continue
        if k == 6 and not (entry & nc and nb & exit_):
            continue
        if k > 6 and not (entry and exit_ and (k > 7 or nb & nc)):
            continue
        res = _direct_connect(g, (frm, to), pool, k, seed)
        if res.ok:
            check = validate_embedding(g, res.path, frm, to)
            if not check:
                raise AssertionError(f"connection produced a bad path: {check.reason}")
            return res
        nodes += res.diagnostics["nodes"]
    cfg = {"length": length, "pool": pool.bit_count(), "seed": seed}
    return ConnectResult(False, None, {"config": cfg, "nodes": nodes})


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
    bc = rows[b] >> c & 1
    return bool(bc and (length == 5 or rows[a] >> c & 1 and rows[b] >> d & 1))


def _direct_connect(
    g: Graph, ends: tuple[tuple[int, int], tuple[int, int]], pool: _Pool,
    length: int, seed: int,
) -> ConnectResult:
    """Fill the square path's interior by backtracking over the reservoir:
    one search of a valid job at exactly ``length``, from the entry port to
    the exit port of ``ends``, whose path :func:`connect_one` validates.

    ``pool`` is the reservoir less the ports, as a bitset that ``len()``
    counts.  Positions ``2 .. length - 3`` are filled in ascending order.  A
    position's candidates are one mask: the pool less the vertices placed
    so far, ANDed with the rows of the vertices one and two places back and
    of the exit ports within distance two.  The search tries them in a
    random order drawn lazily, one pick at a time: ``pick_bit(cands, draw)``
    with ``draw`` from a SplitMix64 stream seeded by ``seed``, so the order
    is not a uniform shuffle.

    A node is one pool vertex looked at: entering a state with ``k``
    positions filled costs ``len(pool) - k`` nodes.  A failed search enters
    every state whatever the order, so its node count does not depend on
    the draws, and a sub-pool's search tree is a sub-tree of this one.  Past
    ``NODE_BUDGET`` nodes, read at call time, the search stops and reports
    ``NODE_BUDGET + 1``.
    """
    frm, to = ends
    path = [*frm, *[0] * (length - 4), *to]
    rows = g.rows
    size = pool.bit_count()
    nodes = 0
    draws = splitmix64(seed)
    last = length - 2
    # Positions last - 2 and last - 1 are within distance two of the first
    # exit port, and the second also of the last one.
    exit0 = rows[to[0]]
    exit01 = exit0 & rows[to[1]]

    def fill(k: int, avail: int) -> bool:
        nonlocal nodes
        if k == last:
            return True
        nodes += size - (k - 2)
        if nodes > NODE_BUDGET:
            return False
        cands = avail & rows[path[k - 1]] & rows[path[k - 2]]
        if k >= last - 2:
            cands &= exit01 if k == last - 1 else exit0
        while cands:
            v = pick_bit(cands, next(draws))
            bit = 1 << v
            cands ^= bit
            path[k] = v
            if fill(k + 1, avail ^ bit):
                return True
            if nodes > NODE_BUDGET:
                return False
        return False

    if _cross_edges_hold(rows, frm, to, length) and fill(2, pool):
        return ConnectResult(True, tuple(path), None)
    cfg = {"length": length, "pool": size, "seed": seed}
    nodes = min(nodes, NODE_BUDGET + 1)
    return ConnectResult(False, None, {"config": cfg, "nodes": nodes})
