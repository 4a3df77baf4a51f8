"""Absorbing structures: the absorber, its construction, and its one audit.

An *absorber* for a set ``X`` is a square path, its ``walk``, that stays a
square path between the same two end pairs whatever subset ``X'`` of its
absorbees ``X`` it leaves out.  The library builds one from a *unit* per
absorbee, the five-vertex star core ``u1 u2 x v1 v2``.  A unit is a square
path both with ``x`` and without it (``u1 u2 v1 v2``), so ``x`` sits in the
walk with the bridge edges ``u1 v1`` and ``u2 v2`` around it.  Each core is
searched so that its unit extends the walk of the unit before, and then
the walk is the units end to end, five vertices per absorbee; only a unit
whose chained search failed is joined to the one before by a square-path
link.  :func:`chain_absorbers` audits the finished absorber once with
:func:`verify_absorber`, links included; no earlier stage re-walks what it
built.

The paper extends each core by further absorbing blocks, because near
``p = n^(-1/2)`` a vertex lies in about ``n^4 p^9`` copies of ``K5`` minus
an edge, far fewer than one, so a core of its own is rare.  At the sizes
this library runs, a vertex lies in millions of them (about ``3.8 * 10^6``
in ``G(1000, .25)``), and the core is a unit by itself, which one search
per absorbee finds.

The absorbee set, the pool the cores and links draw from, and the absorbees
a traversal drops are ``int`` bitsets, and so is an absorber's body.  The
absorber keeps its walk and its absorbees as tuples: a stored file may name
huge ids, and no bitset is built from them before the range check.  Two
units that meet in the direct arc need no call; any other link is one
connection job, served shortest first, whose searches pick each vertex
from the pool vertices that fit by a seeded offset, not uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .connector import MAX_LENGTH, connect_one
from .gadgets import _first_gap, is_square_path
from .graphcore import (
    Graph,
    InputError,
    bits,
    check_graph,
    check_int,
    check_ints,
    check_sequence,
    mask_of,
    vertex_ids,
)


@dataclass(frozen=True)
class Absorber:
    """A square path and the absorbees it may leave out.

    ``walk`` is the traversal that keeps every absorbee; ``absorbees``
    lists them in walk order.  The ports and the body are derived on each
    use, so equality, hashing and ``repr`` see only the two fields.
    """

    walk: tuple[int, ...]
    absorbees: tuple[int, ...]

    @property
    def entry(self) -> tuple[int, ...]:
        return self.walk[:2]

    @property
    def exit(self) -> tuple[int, ...]:
        return self.walk[-2:]

    def body(self) -> int:
        """Every vertex of the structure, absorbees included, as a bitset."""
        return mask_of(self.walk)


#: The most nodes one core search takes; read at call time.
_CORE_BUDGET = 2_000


def build_single_absorbers(
    g: Graph, xs: int, pool: int
) -> tuple[tuple[tuple[int, int, int, int, int], ...] | None, dict | None]:
    """Find each absorbee a disjoint star core, chained onto the one before.

    The absorbee set ``xs`` and the ``pool`` are bitsets.  The absorbees
    go fewest pool neighbours first, each searching the pool less the
    cores before it; there is no backtracking across absorbees, so a core
    once found is kept.  A search takes ``u1``, ``u2``, ``v1`` and ``v2``,
    each the lowest free neighbour of ``x`` that fits: ``u2 ~ u1``,
    ``v1 ~ u1, u2`` and ``v2 ~ u2, v1`` with ``v2 != u1``, exactly the
    edges that make both ``u1 u2 x v1 v2`` and ``u1 u2 v1 v2`` square
    paths.  It backtracks over ``u1``, ``u2`` and ``v1``, each try a node,
    and gives up after :data:`_CORE_BUDGET` nodes.

    Each search after the first also asks that its unit extend the walk
    of the one before, ``... v1 v2``: ``u1`` must see ``v1`` and ``v2``,
    and ``u2`` must see ``v2``, so the two units meet in the direct arc
    and need no link.  If that search fails, the absorbee takes the core
    the search without those two conditions finds in the same free pool,
    and :func:`chain_absorbers` links it to the unit before.

    Returns:
        The units ``(u1, u2, x, v1, v2)`` in the order they were found,
        which is walk order; or ``None`` and, for the first absorbee left
        without a core, the ``absorbee``, its ``pool_degree`` in ``pool``,
        ``free``, the count of pool vertices left to it, and the ``nodes``
        its searches took, both of them for a chained absorbee.

    Raises:
        InputError: If the two sets overlap or one holds a bit outside
            ``0..n-1``.
    """
    check_graph(g)
    g.check_mask(xs)
    g.check_mask(pool)
    if xs & pool:
        raise InputError("absorbee set and pool must be disjoint")
    rows = g.rows
    units = []
    free = pool
    # The first unit extends no walk: every u1 and u2 may enter it.
    enter1 = enter2 = -1
    # A stable sort, so ties keep ascending ids.
    for x in sorted(bits(xs), key=lambda x: (rows[x] & pool).bit_count()):
        core, nodes = _core_search(rows, rows[x] & free, enter1, enter2)
        if core is None and units:
            core, more = _core_search(rows, rows[x] & free)
            nodes += more
        if core is None:
            return None, {
                "absorbee": x,
                "pool_degree": (rows[x] & pool).bit_count(),
                "free": free.bit_count(),
                "nodes": nodes,
            }
        u1, u2, v1, v2 = core
        units.append((u1, u2, x, v1, v2))
        free ^= 1 << u1 | 1 << u2 | 1 << v1 | 1 << v2
        enter1, enter2 = rows[v1] & rows[v2], rows[v2]
    return tuple(units), None


def _core_search(
    rows: Sequence[int], nx: int, enter1: int = -1, enter2: int = -1
) -> tuple[tuple[int, ...] | None, int]:
    """The least core ``(u1, u2, v1, v2)`` among ``nx``, an absorbee's free
    neighbours, with ``u1`` in the mask ``enter1`` and ``u2`` in ``enter2``,
    or ``None``, and the nodes taken; each candidate set is walked by its
    lowest set bit, only as far as the search goes."""
    nodes = 0
    c1 = nx & enter1
    while c1 and nodes < _CORE_BUDGET:
        u1 = (c1 & -c1).bit_length() - 1
        c1 ^= 1 << u1
        n1 = nx & rows[u1]
        c2 = n1 & enter2
        nodes += 1
        while c2 and nodes < _CORE_BUDGET:
            u2 = (c2 & -c2).bit_length() - 1
            c2 ^= 1 << u2
            c3 = n1 & rows[u2]
            n2 = (nx ^ 1 << u1) & rows[u2]
            nodes += 1
            while c3 and nodes < _CORE_BUDGET:
                v1 = (c3 & -c3).bit_length() - 1
                c3 ^= 1 << v1
                nodes += 1
                if fits := n2 & rows[v1]:
                    return (u1, u2, v1, (fits & -fits).bit_length() - 1), nodes
    return None, nodes


def complete_absorbers(
    xs: int, cores: Sequence[tuple[int, int, int, int]]
) -> tuple[tuple[int, int, int, int, int], ...]:
    """The units of the absorbees in ``xs``, ascending, each the walk
    ``u1 u2 x v1 v2`` of the core ``(u1, u2, v1, v2)`` given for ``x``, in
    the same order.  The pipeline does not call it:
    :func:`build_single_absorbers` returns the units themselves.

    Raises:
        InputError: If ``xs`` is not a non-negative ``int`` bitset, or
            ``cores`` is not one four-vertex core per absorbee.
    """
    if type(xs) is not int or xs < 0:
        raise InputError(f"absorbees must be a non-negative int bitset, got {xs!r}")
    try:
        return tuple(
            (u1, u2, x, v1, v2)
            for x, (u1, u2, v1, v2) in zip(bits(xs), cores, strict=True)
        )
    except (TypeError, ValueError):
        raise InputError("cores must be one four-vertex core per absorbee") from None


def chain_absorbers(
    g: Graph,
    units: Sequence[tuple[int, ...]],
    pool: int,
    seed: int,
) -> tuple[Absorber | None, dict | None]:
    """Join units in order into one audited absorber, with a square-path
    link where two units do not meet.

    Each unit is a five-vertex walk ``u1 u2 x v1 v2`` with its absorbee in
    the middle, read by :func:`~squareham.graphcore.check_ints`.  Where a
    unit's ``v1 v2`` and the next one's ``u1 u2`` form the direct arc
    (``v2 ~ u1``, ``v2 ~ u2`` and ``v1 ~ u1``), the next unit follows it in
    the walk with no call.  Otherwise the link is one :func:`connect_one`
    job of up to ``MAX_LENGTH`` vertices from the exit pair to the entry pair
    through the bitset ``pool`` less the units and the earlier links, with
    a seed derived from ``seed`` and the link's place.  The units
    :func:`build_single_absorbers` chains all meet on dense hosts; only an
    absorbee whose chained search failed needs a link.  A link that cannot
    be made aborts with diagnostics naming the ``link`` phase and the
    absorbees it joins.  The finished absorber passes
    :func:`verify_absorber` once; this is the only audit a built absorber
    gets.  The units are checked only if it fails: each must be a star
    core, with ``u1 u2 x v1 v2`` and ``u1 u2 v1 v2`` both square paths in
    ``g``.

    Raises:
        InputError: If there are no units, one is not five vertices of
            ``g`` or is no star core of ``g``, two of them share a vertex,
            or ``seed`` is not a non-negative integer.
        AssertionError: If the finished absorber, built from star cores,
            fails the audit.
    """
    check_graph(g)
    g.check_mask(pool, "pool")
    seed = check_int("seed", seed, 0)
    check_sequence("units", units)
    if not units:
        raise InputError("an absorber needs at least one unit")
    body = 0
    n = g.n
    read = []
    for unit in units:
        try:
            u1, u2, x, v1, v2 = unit
            plain = type(u1) is type(u2) is type(x) is type(v1) is type(v2) is int
        except (TypeError, ValueError):
            plain = False
        if not plain:  # plain ints need no call
            unit = check_ints("a unit vertex", unit)
            if len(unit) != 5:
                raise InputError(f"a unit is five vertices, got {len(unit)}")
            u1, u2, x, v1, v2 = unit
        # The range check comes first, so no bit is built from a huge id.
        if not (0 <= min(unit) and max(unit) < n):
            g.check_vertices(unit)
        more = 1 << u1 | 1 << u2 | 1 << x | 1 << v1 | 1 << v2
        if body & more:
            raise InputError("units to chain must be pairwise disjoint")
        body |= more
        read.append(unit)
    units = read
    walk = list(units[0])
    free = pool & ~body
    rows = g.rows
    for i, (a, b) in enumerate(zip(units, units[1:])):
        # The direct arc: v2 ~ u1, u2 and v1 ~ u1 from a into b.
        v1, v2, u1, u2 = a[3], a[4], b[0], b[1]
        if rows[v2] >> u1 & rows[v2] >> u2 & rows[v1] >> u1 & 1:
            walk += b
            continue
        link_seed = (seed * 9_176 + i * 13) * 31
        res = connect_one(g, a[-2:], b[:2], free, MAX_LENGTH, link_seed)
        if not res.ok:
            link = (a[2], b[2])
            return None, {"phase": "link", "link": link, "connect": res.diagnostics}
        # The ports are the path's first two and last two vertices, unit
        # vertices that free never held.
        interior = res.path[2:-2]
        walk += (*interior, *b)
        free &= ~mask_of(interior)
    absorber = Absorber(tuple(walk), tuple(unit[2] for unit in units))
    audit = verify_absorber(g, absorber)
    if not audit.ok:
        for unit in units:
            u1, u2, _, v1, v2 = unit
            if not (is_square_path(g, unit) and is_square_path(g, (u1, u2, v1, v2))):
                raise InputError(f"unit {tuple(unit)} is no star core of g")
        raise AssertionError(f"constructed absorber failed verification: {audit}")
    return absorber, None


def absorb(a: Absorber, x_prime: int) -> tuple[int, ...]:
    """The traversal that leaves out exactly the absorbees in ``x_prime``.

    Args:
        a: The absorber.
        x_prime: Bitset of the absorbees to skip, a subset of ``a.absorbees``.

    Returns:
        ``a.walk`` less ``x_prime``: the absorber's fixed entry and exit
        pairs, and the whole body minus ``x_prime``.
    """
    if not isinstance(a, Absorber):
        raise InputError(f"an absorber must be an Absorber, got {type(a).__name__}")
    if type(x_prime) is not int or x_prime < 0:
        raise InputError(f"x_prime must be a non-negative int bitset: {x_prime!r}")
    # Not a mask of the absorbees: an unaudited absorber may name a huge one.
    skip = set(bits(x_prime))
    unknown = skip.difference(a.absorbees)
    if unknown:
        raise InputError(f"not absorbees of this structure: {sorted(unknown)}")
    return tuple(v for v in a.walk if v not in skip)


@dataclass(frozen=True)
class AbsorberVerification:
    """Result of the absorber audit.

    ``subsets_checked`` counts the subset traversals the audit stands for,
    a failing one included; ``failure`` names the first failing subset and
    why it fails.
    """

    ok: bool
    subsets_checked: int
    failure: dict | None


def verify_absorber(g: Graph, a: Absorber) -> AbsorberVerification:
    """Check that every subset traversal ``absorb(a, X')`` is valid.

    Valid means a square path in ``g`` with distinct vertices, spanning
    ``a.body()`` minus ``X'``, from ``a.entry`` to ``a.exit``.  The check is
    exact for all ``2^|X|`` subsets in two square-path passes: the walk is
    a square path, the walk less ``X`` is a square path, and each absorbee,
    at place ``i`` of the walk,

    (a) sits in the walk, off its end pairs: ``2 <= i <= len(walk) - 3``;
    (b) sits at least 3 places after the absorbee before it.

    Sufficiency: ``absorb(a, X')`` is the walk less ``X'``, so its vertices
    are distinct, it spans the body less ``X'``, and by (a) it keeps both
    end pairs.  Two of its vertices at distance at most 2 have at most one
    kept vertex between them in the walk; two skipped absorbees between
    them would, by (b), hold at least two kept vertices apart.  So they
    skip at most one absorbee and sit at most 3 places apart in the walk:
    within 2 they are adjacent because the walk is a square path, and at
    3, around a skipped absorbee at ``i``, they are ``walk[i-2] walk[i+1]``
    or ``walk[i-1] walk[i+2]``, its bridge edges.  By (b) no absorbee
    sits within 2 places of ``i``, so both pairs are at distance 2 in the
    walk less ``X``, and adjacent because it is a square path.
    Necessity: a walk that is no square path fails ``X' = ()``; an
    absorbee on an end pair moves that pair, and a missing bridge edge
    leaves a non-adjacent pair at distance 2, both in ``X' = (x,)``.
    Absorbees off the walk, out of walk order, repeated, or closer than 3
    places are rejected as structures the library never builds: it puts
    five or more places between two absorbees.

    The walk is read once, into the array that both passes read.  One
    numpy pass over the absorbees' places finds the first that fails (a)
    or (b).  The second square-path pass runs on the walk less the
    absorbees before it, whose pairs are walk pairs and those absorbees'
    bridge edges, in absorbee order, the first bridge before the second,
    so its first gap names the first absorbee with a missing bridge edge.

    Returns:
        ``ok`` with ``subsets_checked == |X| + 1``, or the first fault with
        ``failure["subset"]`` set to ``()`` for a walk that is no square
        path and ``(x,)`` for absorbee ``x`` failing (a), (b) or a bridge
        edge.

    Raises:
        InputError: If ``a`` is not an :class:`Absorber`, or its walk or
            its absorbees are not sequences of vertices of ``g``.
    """
    check_graph(g)
    if not isinstance(a, Absorber):
        raise InputError(f"an absorber must be an Absorber, got {type(a).__name__}")
    # The walk is range-checked first, so an id of any size is rejected
    # before anything is built from it.
    n, ids = g.n, vertex_ids(a.walk)
    if ids is None or len(ids) and (ids.min() < 0 or ids.max() >= n):
        ids = vertex_ids(g.check_vertices(a.walk))
    xs = g.check_vertices(a.absorbees)
    check = is_square_path(g, ids)
    if not check.ok:
        return AbsorberVerification(False, 1, {"subset": (), "reason": check.reason})
    # Each absorbee's place, -1 off the walk, and the first absorbee that
    # fails (a) or (b); the bridge edges of those before it are checked by
    # the pass on the walk less them.
    k = len(ids)
    place = np.full(n, -1)
    place[ids] = np.arange(k)
    at = place[vertex_ids(xs)]
    bad = (at < 2) | (at > k - 3)
    bad[1:] |= at[1:] < at[:-1] + 3
    first = int(bad.argmax()) if bad.any() else len(xs)
    keep = np.ones(k, bool)
    keep[at[:first]] = False
    rest = ids[keep]
    gap = _first_gap(g, rest)
    if gap is not None:
        # A bridge edge, so at distance 2 around the absorbee j after rest[i].
        i, d = gap
        u, v = int(rest[i]), int(rest[i + d])
        j = int(np.searchsorted(at[:first], place[u]))
        fault = f"missing bridge edge ({u}, {v})"
    elif first == len(xs):
        return AbsorberVerification(True, len(xs) + 1, None)
    else:
        j, i = first, at[first]
        if i < 0:
            fault = "absorbee not on the walk"
        elif not 2 <= i <= k - 3:
            fault = "absorbee on an end pair of the walk"
        elif i <= at[j - 1]:
            fault = "absorbee out of walk order or repeated"
        else:
            fault = "absorbee fewer than 3 places after the one before"
    return AbsorberVerification(False, j + 2, {"subset": (xs[j],), "reason": fault})
