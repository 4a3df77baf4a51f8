"""End-to-end construction of squares of Hamilton cycles.

The pipeline draws a random absorbee set, builds a chained absorber around
it from the rest of the host, covers what the absorber leaves with long
square paths, matches each stray vertex to an adjacent absorbee, threads
everything into one cycle through the absorbees left over, and lets the
absorber swallow whatever the threading consumed.  Every returned
certificate is re-verified; failures are first-class reports naming the
stage that ran out of room.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .absorber import (
    Absorber,
    absorb,
    build_single_absorbers,
    chain_absorbers,
)
from .connector import MAX_LENGTH, connect_one
from .gadgets import ValidationResult, _first_gap, is_square_path
from .graphcore import (
    Graph,
    InputError,
    bits,
    check_graph,
    check_int,
    check_ints,
    check_sequence,
    mask_of,
    pick_bit,
    rng_for,
    splitmix64,
    vertex_ids,
)
from .matching import MatchingResult, hall_saturating_matching

STAGES = (
    "partition",
    "absorber",
    "covering",
    "leftover-matching",
    "connecting",
    "absorption",
)


# The paper fixes these constants existentially; at desk scale each one
# holds the one value every caller runs with.
# Hosts of at most this many vertices go to exhaustive search.  The value is
# where the old fixed-size reservoirs stopped fitting; it stays so that no
# small host loses an answer exhaustive search gives, until the two can be
# compared on small hosts.
_EXHAUSTIVE_MAX_N = 58
# Search nodes the exhaustive search may spend before it reports unknown.
_EXHAUSTIVE_BUDGET = 3_000_000
# The absorbee count is round(_ABSORBEE_SHARE * n).  Any absorbee may anchor
# a straggler; the ones the leftover matching does not take are the
# threading's only fuel, so at .05 the threading runs short, and G(4000, .15)
# certified more often at .11 than at .1, when a unit and its link took six
# vertices and a random 3/4 of the absorbees could anchor; not tuned since.
_ABSORBEE_SHARE = 0.11
# Fewest uncovered vertices the cover runs a search on; fewer go straight
# to the splice and the leftover matching.
_COVER_FLOOR = 10
# Each cover search aims to leave at most this share of its vertex set
# uncovered, and spends at most this many steps per vertex of that set
# (restarts and extensions alike).
_COVER_EPS = 0.25
_COVER_STEPS_PER_VERTEX = 50
# Probes (direct-arc tests and connections) the final threading may spend.
# A threading that fails spends the whole budget before the restart: on
# G(400, .35) a failed attempt took 50 to 130 ms at 2,000 probes and 10 to
# 20 ms at 250 (2-vCPU VM, Python 3.11), and a restart with fresh
# randomness certifies sooner than more probes would.
_ASSEMBLY_BUDGET = 250
# Pipeline attempts per call.
_RESTARTS = 8


@dataclass(frozen=True)
class PipelineConfig:
    """The one pipeline setting callers run with different values: the
    ``seed`` of every random choice, a non-negative integer (a ``bool`` is
    not one).  Every constant of the construction, the attempt count and
    the absorbee share included, is fixed in this module and in
    ``absorber``.
    """

    seed: int = 0

    def __post_init__(self) -> None:
        # Held as a plain int: a numpy one would overflow in the draws.
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


@dataclass(frozen=True)
class Certificate:
    """A cyclic vertex order realizing the square of a Hamilton cycle, held
    as a tuple of plain ints."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        check_sequence("a certificate order", self.order)
        order = check_ints("a certificate vertex", self.order)
        object.__setattr__(self, "order", order)


@dataclass(frozen=True)
class CertificateCheck:
    """Verification outcome; on failure the first missing edge is named."""

    ok: bool
    position: int | None
    distance: int | None
    missing: tuple[int, int] | None


WITNESS_KINDS = ("low-degree", "independent-set")


@dataclass(frozen=True)
class InfeasibilityWitness:
    """A checkable proof that a host holds no square Hamilton cycle.

    ``low-degree``: ``vertices`` is one vertex of degree below 4; for
    ``n >= 5`` the square of ``C_n`` is 4-regular.  ``independent-set``:
    ``vertices`` is an independent set of more than ``n // 3`` vertices; the
    square of ``C_n`` has independence number ``n // 3``.  The vertices are
    held as a tuple of plain ints.
    """

    kind: str
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in WITNESS_KINDS:
            raise InputError(f"unknown witness kind {self.kind!r}")
        check_sequence("witness vertices", self.vertices)
        vertices = check_ints("a witness vertex", self.vertices)
        object.__setattr__(self, "vertices", vertices)


@dataclass(frozen=True)
class FailureReport:
    """Where and why a pipeline run stopped.

    ``stage`` is one of :data:`STAGES`; ``diagnostics`` is stage-specific and
    never empty.  ``witness`` is set when the host provably holds no square
    Hamilton cycle (see :func:`find_infeasibility_witness`); the report is
    then a checkable "no" of stage ``partition`` with diagnostics ``mode``
    ``infeasibility-witness``, made before any search ran.  Otherwise it is
    ``None`` and the report only says that the search ran short.
    """

    stage: str
    diagnostics: dict
    witness: InfeasibilityWitness | None = None

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise InputError(f"unknown stage {self.stage!r}")
        if not self.diagnostics:
            raise InputError("failure reports need nonempty diagnostics")


def jsonable(obj):
    """Recursively strip dataclasses, tuples, and sets down to JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(v) for v in obj)
    if hasattr(obj, "item") and callable(obj.item):
        return obj.item()
    return obj


def verify_certificate(g: Graph, cert: Certificate) -> CertificateCheck:
    """Check that every cyclic distance-1 and distance-2 pair is an edge.

    After the permutation check, the order with its first two entries
    appended runs the square-path pair pass.  Its pairs are the cyclic
    ones, position by position, and then the first pair once more, so its
    first gap is the first missing edge.

    Args:
        g: Host graph.
        cert: Candidate cyclic order.

    Returns:
        A :class:`CertificateCheck`; the first missing edge is reported with
        its position and cyclic distance.

    Raises:
        InputError: If ``g`` is not a :class:`Graph`, ``cert`` is not a
            :class:`Certificate`, its order is not a permutation of all
            vertices, or the graph has fewer than 3 vertices.
    """
    check_graph(g)
    if not isinstance(cert, Certificate):
        raise InputError(f"cert must be a Certificate, got {type(cert).__name__}")
    n = g.n
    if n < 3:
        raise InputError("squares of Hamilton cycles need at least 3 vertices")
    # Every entry is a plain int, so only a huge one gives no array.
    ids = vertex_ids(cert.order)
    permutation = ids is not None and len(ids) == n and 0 <= ids.min() <= ids.max() < n
    if permutation:
        seen = np.zeros(n, bool)
        seen[ids] = True
        permutation = seen.all()
    if not permutation:
        raise InputError("certificate order must be a permutation of all vertices")
    cyclic = np.concatenate((ids, ids[:2]))
    gap = _first_gap(g, cyclic)
    if gap is None:
        return CertificateCheck(True, None, None, None)
    i, d = gap
    u, v = int(cyclic[i]), int(cyclic[i + d])
    return CertificateCheck(False, i, d, (min(u, v), max(u, v)))


#: Most bytes of rows a subtraction of the witness search works on at once:
#: it reads the dying rows a chunk of ``_WITNESS_CHUNK_BYTES // n`` at a
#: time (one row at least), unpacked to a byte per vertex.
_WITNESS_CHUNK_BYTES = 1 << 18

#: The witness search recounts the alive rows while they number at most
#: this many times the dying ones, and subtracts the dying rows otherwise.
#: A recount popcounts each alive row ANDed with the alive set as a Python
#: int, and a subtraction unpacks each dying row; per row a recount took
#: 0.42 to 0.86 (under 0.5 in most runs) of a subtraction's time on n/2
#: rows of G(200, .5), G(800, .5), G(1500, .7) and G(2000, .5) (2-vCPU VM,
#: Python 3.11, numpy 2.4).
_RECOUNT_SHARE = 2


def _column_sums(g: Graph, ids: list[int]) -> np.ndarray:
    """For every vertex, its neighbours among ``ids``: the column sums of
    those rows of ``g.packed``, unpacked a chunk at a time."""
    n = g.n
    # A column sum counts at most n rows, so the smallest unsigned type
    # that holds n is exact, and far faster to sum in than intp.
    count_type = np.min_scalar_type(n)
    step = max(1, _WITNESS_CHUNK_BYTES // n)
    sums = np.zeros(n, np.intp)
    for at in range(0, len(ids), step):
        sums += np.unpackbits(
            g.packed[ids[at : at + step]], axis=1, count=n, bitorder="little"
        ).sum(axis=0, dtype=count_type)
    return sums


def find_infeasibility_witness(g: Graph) -> InfeasibilityWitness | None:
    """A cheap proof that ``g`` holds no square Hamilton cycle, if one shows.

    First looks for a vertex of degree below 4 (a proof only for
    ``n >= 5``), then grows a greedy minimum-degree independent set: the
    alive vertex with the fewest alive neighbours (lowest index on ties)
    joins it and its closed neighbourhood dies.  The set is returned only
    if it holds more than ``n // 3`` vertices, so the growth stops as soon
    as the alive vertices could no longer lift it past that.  ``None``
    proves nothing.

    The alive degrees sit in one vector, started from a copy of the row
    popcounts the graph counted when it was built (:attr:`Graph.degrees`),
    and kept up to date as vertices die.  Once a kill leaves the bound
    reachable, either the alive rows are recounted, each ANDed with the
    alive set and popcounted, or the column sums of the dying rows are
    subtracted, whichever costs less by the per-row ratio that
    :data:`_RECOUNT_SHARE` records.  A subtraction gathers a chunk of
    rows at a time from ``g.packed``; sums add, so the chunks change no
    degree.  A dead vertex holds a value above every alive degree, so
    ``argmin``, which returns the first minimum, is the lowest-index pick,
    and the isolated vertices are exactly the zeros.
    Memory beyond the graph and its packed view, which a subtraction
    builds on first use and leaves cached on ``g``, is a few vectors of
    ``n`` entries, the list of the vertices read and a subtraction's one
    chunk, unpacked to a byte per vertex: at most ``9/8 * max(n, 2**18)``
    bytes, whatever the kill's size.  The boolean matrix is not built.
    """
    check_graph(g)
    n = g.n
    if n < 3:
        return None
    rows = g.rows
    degrees = g.degrees.copy()
    if n >= 5:
        low = np.flatnonzero(degrees < 4)
        if low.size:
            return InfeasibilityWitness("low-degree", (int(low[0]),))
    # A dead vertex loses at most n - 1 from later kills, so it stays above n.
    dead = 2 * n
    bound = n // 3
    alive = (1 << n) - 1
    chosen: list[int] = []
    while alive:
        v = int(degrees.argmin())
        if degrees[v]:
            chosen.append(v)
            dying = rows[v] & alive | 1 << v
            alive ^= dying
            left = alive.bit_count()
            if len(chosen) + left <= bound:
                return None
            if left <= _RECOUNT_SHARE * dying.bit_count():
                alive_ids = bits(alive)
                degrees.fill(dead)
                degrees[alive_ids] = [(rows[u] & alive).bit_count() for u in alive_ids]
            else:
                dying_ids = bits(dying)
                degrees -= _column_sums(g, dying_ids)
                degrees[dying_ids] = dead
            continue
        # Taking an isolated vertex leaves every other degree as it was, so
        # the greedy takes all isolated vertices next, lowest first.
        isolated = np.flatnonzero(degrees == 0).tolist()
        chosen.extend(isolated)
        alive ^= mask_of(isolated)
        degrees[isolated] = dead
    # Each kill left len(chosen) plus the alive count above the bound, and
    # isolated picks leave that sum as it was.
    return InfeasibilityWitness("independent-set", tuple(chosen))


def verify_witness(g: Graph, w: InfeasibilityWitness) -> ValidationResult:
    """Check that ``w`` proves ``g`` holds no square Hamilton cycle.

    Returns:
        A :class:`ValidationResult`; on failure the reason names the vertex,
        the adjacent pair or the size that breaks the proof.

    Raises:
        InputError: If the graph has fewer than 3 vertices, a vertex is out
            of range or repeated, or a low-degree witness does not name
            exactly one vertex.
    """
    check_graph(g)
    if not isinstance(w, InfeasibilityWitness):
        raise InputError(f"w must be an InfeasibilityWitness, got {type(w).__name__}")
    n = g.n
    if n < 3:
        raise InputError("squares of Hamilton cycles need at least 3 vertices")
    # The witness holds plain ints, so only their range is checked here.
    vs = w.vertices
    if vs and not (0 <= min(vs) and max(vs) < n):
        g.check_vertices(vs)
    members = mask_of(vs)
    if members.bit_count() != len(vs):
        raise InputError("witness vertices must be distinct")
    rows = g.rows
    if w.kind == "low-degree":
        if len(vs) != 1:
            raise InputError("a low-degree witness names exactly one vertex")
        if n < 5:
            return ValidationResult(
                False, f"the square of C_{n} is K_{n}, so degree proves nothing"
            )
        degree = rows[vs[0]].bit_count()
        if degree >= 4:
            return ValidationResult(False, f"vertex {vs[0]} has degree {degree}")
        return ValidationResult(True, None)
    if len(vs) <= n // 3:
        return ValidationResult(
            False, f"{len(vs)} vertices, not more than n // 3 = {n // 3}"
        )
    for v in vs:
        inside = rows[v] & members
        if inside:
            u = (inside & -inside).bit_length() - 1
            return ValidationResult(False, f"vertices {v} and {u} are adjacent")
    return ValidationResult(True, None)


@dataclass(frozen=True)
class BruteForceResult:
    """Outcome of exhaustive certificate search.

    ``status`` is ``found`` (with certificate), ``none`` (search space
    exhausted), or ``unknown`` (budget ran out first).
    """

    status: str
    certificate: Certificate | None
    nodes: int


def brute_force_square_ham(g: Graph) -> BruteForceResult:
    """Exhaustive backtracking over cyclic orders with symmetry reduction.

    Vertex 0 is pinned first and the two traversal directions are collapsed
    by requiring the second vertex to precede the last one.  A stack, not
    recursion, holds per level the bitset of untried free vertices that see
    the two placed before, tried lowest first.  A search that places more
    than ``_EXHAUSTIVE_BUDGET`` vertices before the last, read at call
    time, reports ``unknown``; ``find_square_ham`` runs it on hosts of at
    most ``_EXHAUSTIVE_MAX_N`` vertices.
    """
    check_graph(g)
    n = g.n
    if n < 3:
        return BruteForceResult("none", None, 0)
    rows = g.rows
    order = [0]
    free = (1 << n) - 2
    stack = [rows[0]]
    nodes = 0
    while stack:
        candidates = stack[-1]
        if not candidates:
            stack.pop()
            free |= 1 << order.pop()
            continue
        low = candidates & -candidates
        stack[-1] = candidates ^ low
        v = low.bit_length() - 1
        if len(order) == n - 1:
            if order[1] > v or not (
                rows[v] >> order[0] & 1
                and rows[v] >> order[1] & 1
                and rows[order[-1]] >> order[0] & 1
            ):
                continue
            cert = Certificate(tuple(order) + (v,))
            check = verify_certificate(g, cert)
            assert check.ok, "brute-force search produced a bad certificate"
            return BruteForceResult("found", cert, nodes)
        nodes += 1
        if nodes > _EXHAUSTIVE_BUDGET:
            return BruteForceResult("unknown", None, nodes)
        free ^= low
        stack.append(free & rows[v] & rows[order[-1]])
        order.append(v)
    return BruteForceResult("none", None, nodes)


def _grow_square_path(rows: list[int], verts: int, seed: int) -> tuple[int, ...]:
    """Randomized greedy search for a long square path through the nonempty
    bitset ``verts`` over the host's bit ``rows``, read unchecked.

    Grows a path from a random edge at both ends through common
    neighborhoods, restarting until the path holds
    ``ceil((1 - _COVER_EPS) * |verts|)`` vertices or
    ``_COVER_STEPS_PER_VERTEX * |verts|`` steps are spent, whichever comes
    first.  Always returns its best attempt (possibly a single vertex); this
    is a measured heuristic, not a guarantee.

    Each end keeps its candidate mask between steps: the end that grew
    recomputes its own, and the other end only loses the new vertex.  Each
    pick, the start vertex's included, is ``pick_bit(candidates,
    next(draws))``, not uniform (:func:`~squareham.graphcore.pick_bit`), with
    ``draws`` the :func:`~squareham.graphcore.splitmix64` stream seeded by
    ``64 * seed + 47``, so that a cover search and a connector search given
    the same seed draw different streams.
    """
    size = verts.bit_count()
    # One vertex already meets the target, so the search never starts.
    best: tuple[int, ...] = ((verts & -verts).bit_length() - 1,)
    draws = splitmix64(64 * seed + 47)
    target = math.ceil((1 - _COVER_EPS) * size)
    budget = _COVER_STEPS_PER_VERTEX * size
    spent = 0
    while spent < budget and len(best) < target:
        spent += 1
        a = pick_bit(verts, next(draws))
        nbrs = rows[a] & verts
        if not nbrs:
            continue
        b = pick_bit(nbrs, next(draws))
        # The path is head reversed, then tail; first and last are its ends.
        head, tail = [a], [b]
        first, last = a, b
        # Target vertices not on the path yet.
        free = verts & ~(1 << a | 1 << b)
        fwd = bwd = rows[a] & rows[b] & free
        while spent < budget:
            spent += 1
            if not fwd and not bwd:
                break
            # Feed the scarcer end first so neither side starves early.
            if fwd and (not bwd or fwd.bit_count() <= bwd.bit_count()):
                v = pick_bit(fwd, next(draws))
                free &= ~(1 << v)
                fwd = rows[v] & rows[last] & free
                bwd &= free
                tail.append(v)
                last = v
            else:
                v = pick_bit(bwd, next(draws))
                free &= ~(1 << v)
                bwd = rows[v] & rows[first] & free
                fwd &= free
                head.append(v)
                first = v
        if len(head) + len(tail) > len(best):
            best = tuple(head[::-1] + tail)
    return best


def _insert_into_paths(g: Graph, paths: list[list[int]], q: int) -> bool:
    """Splice ``q`` into some path interior, preserving square-path pairs.

    Splicing between positions ``i - 1`` and ``i`` needs ``q`` adjacent to
    the two split vertices and to their outer distance-2 partners.  Along a
    path, with ``run`` the count of consecutive neighbours of ``q`` ending
    at the vertex read, the first fit is the first three vertices (both of
    a two-vertex path) at ``i = 1``, else the first four in a row, which
    start at ``i - 2``, else the last three at ``i = len(path) - 1``; the
    scan stops at the first fit.
    """
    row = g.row(q)
    for path in paths:
        m = len(path)
        if m < 2:
            continue
        run, head = 0, min(3, m)
        for j, v in enumerate(path):
            if not row >> v & 1:
                run = 0
                continue
            run += 1
            if run == 4 or run == j + 1 == head:
                # Four in a row end at j; a prefix fit ends at j = 2 (j = 1).
                i = j - 1 if run == 4 else 1
                break
        else:
            if run < 3:
                continue
            i = m - 1
        path.insert(i, q)
        return True
    return False


@dataclass(frozen=True)
class CoverResult:
    """Vertex-disjoint square paths over a target set plus the leftover."""

    paths: tuple[tuple[int, ...], ...]
    leftover: tuple[int, ...]
    leftover_fraction: float


def cover_with_square_paths(g: Graph, u_prime: int, seed: int = 0) -> CoverResult:
    """Cover the bitset ``u_prime`` with square paths and splice in the rest.

    While at least ``_COVER_FLOOR`` vertices are uncovered, search ``i``
    runs :func:`_grow_square_path` with seed ``seed * 101 + i`` on them and
    keeps a path of two or more vertices; the loop stops after the first
    search that misses its ``1 - _COVER_EPS`` target.  So every search but
    the last leaves at most a quarter of its set, and the cover spends fewer
    than ``4/3 * _COVER_STEPS_PER_VERTEX * |U'|`` steps.  Then each vertex
    left, in ascending order, goes into the first path that takes it
    (:func:`_insert_into_paths`), ``leftover`` is what no path took, and
    each returned path passes :func:`is_square_path` once.

    There are no classes.  The proof's bootstrap cuts U' into halving
    classes, each searched together with the dregs of the last; at desk
    scale one search already covers nearly all of U' (793 of the 800
    vertices of G(800, .5, 1) at seed 0), so classes would only cut that
    path into pieces, each of which the threading must join through the
    scarce absorbee fuel.

    Raises:
        InputError: If ``seed`` is not a non-negative integer, or
            ``u_prime`` is negative or holds a bit at or above ``n``.
    """
    check_graph(g)
    # Fewer than _COVER_FLOOR vertices start no search: check the seed here.
    seed = check_int("seed", seed, 0)
    g.check_mask(u_prime)
    rest = u_prime
    paths: list[list[int]] = []
    i = 0
    while (size := rest.bit_count()) >= _COVER_FLOOR:
        path = _grow_square_path(g.rows, rest, seed * 101 + i)
        if len(path) >= 2:
            paths.append(list(path))
            rest &= ~mask_of(path)
        if len(path) < (1 - _COVER_EPS) * size:
            break
        i += 1
    leftover = tuple(q for q in bits(rest) if not _insert_into_paths(g, paths, q))
    covering = tuple(tuple(path) for path in paths)
    for path in covering:
        check = is_square_path(g, path)
        assert check.ok, f"the cover built a bad path: {check.reason}"
    return CoverResult(covering, leftover, len(leftover) / max(1, u_prime.bit_count()))


def match_leftover(g: Graph, q_set: int, anchors: int) -> MatchingResult:
    """Match every leftover vertex to a distinct adjacent anchor.

    Args:
        g: Host graph.
        q_set: Bitset of the leftover vertices that must all be matched.
        anchors: Bitset of the anchor vertices (disjoint from ``q_set``).

    Returns:
        The engine's :class:`MatchingResult` on host ids: ``(leftover,
        anchor)`` pairs, or the violating leftover set and its joint
        neighborhood witness Hall's condition breaking.
    """
    check_graph(g)
    g.check_mask(q_set)
    g.check_mask(anchors)
    if q_set & anchors:
        raise InputError("leftover vertices and anchors must be disjoint")
    qs = bits(q_set)
    res = hall_saturating_matching([g.rows[q] & anchors for q in qs])
    return dataclasses.replace(
        res,
        pairs=tuple((qs[a], x) for a, x in res.pairs),
        violator=tuple(qs[a] for a in res.violator),
    )


def build_absorber(
    g: Graph, xs: int, seed: int
) -> tuple[Absorber | None, dict | None]:
    """Build one chained absorber over the bitset ``xs`` from every other
    vertex of ``g``.

    :func:`build_single_absorbers` finds each absorbee ``x`` a star core in
    the complement of ``xs``, which makes it the five-vertex unit walk
    ``u1 u2 x v1 v2``, each chained onto the one before where it can be;
    chaining joins the units, in the order they were found, into the
    absorber's one walk, with a link drawn from the same complement less
    the units only where two units do not meet.  A returned absorber has
    passed :func:`chain_absorbers`' audit.

    Raises:
        InputError: If ``seed`` is not a non-negative integer.
    """
    check_graph(g)
    # The core search draws nothing, so check the seed before it.
    seed = check_int("seed", seed, 0)
    g.check_mask(xs)
    pool = ((1 << g.n) - 1) & ~xs
    units, fail = build_single_absorbers(g, xs, pool)
    if fail is not None:
        return None, fail
    return chain_absorbers(g, units, pool, seed)


def _assemble_cycle(
    g: Graph,
    a: Absorber,
    pieces: Sequence[tuple[int, ...]],
    fuel: int,
    seed: int,
) -> tuple[tuple[int, ...] | None, dict]:
    """Thread all pieces between the absorber's exit and entry pairs.

    Piece order and orientation are free, so a budgeted depth-first search
    explores them: direct arcs first, read off the exit pair's rows, then
    short connectors whose interiors consume the ``fuel`` mask; each group
    by piece, forward before reversed.  Each probe is one
    :func:`connect_one` job of up to ``min(MAX_LENGTH, g.n)`` vertices
    through the fuel left, served shortest first; it counts in ``probes``
    even when the ports rule out every length.  Returns the cycle segment
    after the absorber traversal and, under ``consumed``, the fuel bitset
    it used; or ``None`` and diagnostics on the deepest threading reached.
    """
    total = len(pieces)
    rows = g.rows
    longest = min(MAX_LENGTH, g.n)
    oriented = [(piece, piece[::-1]) for piece in pieces]
    nodes = 0
    deepest = 0

    def probe(
        cur: tuple[int, int], to: tuple[int, int], consumed: int, salt: int
    ) -> tuple[int, ...] | None:
        nonlocal nodes
        nodes += 1
        res = connect_one(g, cur, to, fuel & ~consumed, longest, seed * 7919 + salt)
        # The ports are the path's first two and last two vertices.
        return res.path[2:-2] if res.ok else None

    def dfs(
        cur: tuple[int, int],
        remaining: tuple[int, ...],
        consumed: int,
        acc: tuple[int, ...],
    ) -> tuple[tuple[int, ...], int] | None:
        nonlocal deepest
        deepest = max(deepest, total - len(remaining))
        if nodes > _ASSEMBLY_BUDGET:
            return None
        if not remaining:
            interior = probe(cur, a.entry, consumed, 1)
            if interior is None:
                return None
            return acc + interior, consumed | mask_of(interior)
        # The pieces are disjoint host-edge-led paths, off the exit pair, so
        # (c, d, ...) is a direct arc iff c sees both exit vertices, d the last.
        first, second = rows[cur[0]] & rows[cur[1]], rows[cur[1]]
        arcs, rest = [], []
        for pi in remaining:
            for ori in oriented[pi]:
                if first >> ori[0] & second >> ori[1] & 1:
                    arcs.append((pi, ori))
                else:
                    rest.append((pi, ori))
        for pi, ori in arcs + rest:
            if nodes > _ASSEMBLY_BUDGET:
                return None
            interior = probe(cur, (ori[0], ori[1]), consumed, 101 * pi + 2 * len(acc))
            if interior is None:
                continue
            out = dfs(
                (ori[-2], ori[-1]),
                tuple(j for j in remaining if j != pi),
                consumed | mask_of(interior),
                acc + interior + ori,
            )
            if out is not None:
                return out
        return None

    result = dfs(a.exit, tuple(range(total)), 0, ())
    if result is None:
        return None, {
            "threaded_pieces": deepest,
            "unthreaded_pieces": total - deepest,
            "probes": nodes,
            "reservoir": fuel.bit_count(),
        }
    suffix, consumed = result
    return suffix, {"consumed": consumed}


def _attempt(
    g: Graph, config: PipelineConfig, restart: int
) -> Certificate | FailureReport:
    n = g.n
    seed0 = config.seed * 1_000_003 + restart * 7_919
    x = round(_ABSORBEE_SHARE * n)
    x_mask = mask_of(rng_for(seed0, 53).permutation(n)[:x].tolist())
    plan = {"x": x}
    absorber, fail = build_absorber(g, x_mask, seed0 + 1)
    if fail is not None:
        return FailureReport("absorber", dict(fail, plan=plan))

    cover = cover_with_square_paths(g, ((1 << n) - 1) & ~absorber.body(), seed0 + 2)
    # Only the vertices no covering path took need an anchor absorbee each.
    if len(cover.leftover) > x:
        return FailureReport(
            "covering",
            {
                "leftover": len(cover.leftover),
                "leftover_fraction": cover.leftover_fraction,
                "paths": len(cover.paths),
                "plan": plan,
            },
        )
    matching = match_leftover(g, mask_of(cover.leftover), x_mask)
    if matching.status != "matched":
        return FailureReport(
            "leftover-matching",
            {
                "violating_leftover": list(matching.violator),
                "joint_neighborhood": list(matching.neighborhood),
                "plan": plan,
            },
        )

    pieces = [*cover.paths, *matching.pairs]
    # Every absorbee not sitting inside a piece is legal connector fuel: the
    # absorber hands over whatever the threading consumed.
    matched_anchors = mask_of(xv for _, xv in matching.pairs)
    fuel = x_mask & ~matched_anchors
    suffix, info = _assemble_cycle(g, absorber, pieces, fuel, seed0 + 3)
    if suffix is None:
        stragglers = len(matching.pairs)
        return FailureReport("connecting", dict(info, stragglers=stragglers, plan=plan))
    prime = absorb(absorber, matched_anchors | info["consumed"])
    cert = Certificate(tuple(prime) + suffix)
    check = verify_certificate(g, cert)
    if not check.ok:
        return FailureReport(
            "absorption",
            {
                "internal_error": True,
                "position": check.position,
                "distance": check.distance,
                "missing": check.missing,
            },
        )
    return cert


def find_square_ham(
    g: Graph,
    gamma_host: Graph | None = None,
    config: PipelineConfig = PipelineConfig(),
) -> Certificate | FailureReport:
    """Find the square of a Hamilton cycle, or report why there is none.

    One :func:`find_infeasibility_witness` search runs first; a witness
    proves that no certificate exists, so it ends the call before any
    search.  Otherwise hosts of at most ``_EXHAUSTIVE_MAX_N`` vertices
    delegate to exhaustive search, and larger ones run the absorber /
    covering / matching / connecting / absorption pipeline, up to
    ``_RESTARTS`` times with fresh randomness while a stage fails.

    Args:
        g: Host graph.
        gamma_host: Optional ambient graph ``g`` must be a subgraph of.
        config: The pipeline's seed.

    Returns:
        One of three outcomes: a :class:`Certificate` that has passed
        :func:`verify_certificate`; a ``partition`` :class:`FailureReport`
        whose ``witness`` has passed :func:`verify_witness`; or the exhaustive
        search's or the last attempt's :class:`FailureReport`, with no
        witness, naming the stage that ran short.

    Raises:
        InputError: If an argument is of another type, or ``g`` is not a
            subgraph of ``gamma_host`` on as many vertices.
    """
    check_graph(g)
    if not isinstance(config, PipelineConfig):
        kind = type(config).__name__
        raise InputError(f"config must be a PipelineConfig, got {kind}")
    if gamma_host is not None:
        check_graph(gamma_host, "gamma_host")
        ok, offending = g.is_subgraph_of(gamma_host)
        if not ok:
            raise InputError(
                f"graph is not a subgraph of the ambient host: edge {offending}"
            )
    witness = find_infeasibility_witness(g)
    if witness is not None:
        check = verify_witness(g, witness)
        assert check.ok, f"the witness search produced a bad witness: {check.reason}"
        return FailureReport("partition", {"mode": "infeasibility-witness"}, witness)
    if g.n <= _EXHAUSTIVE_MAX_N:
        res = brute_force_square_ham(g)
        if res.status == "found":
            assert res.certificate is not None
            return res.certificate
        return FailureReport(
            "partition",
            {
                "mode": "small-instance-delegation",
                "brute_status": res.status,
                "nodes": res.nodes,
            },
        )
    last: FailureReport | None = None
    for restart in range(_RESTARTS):
        outcome = _attempt(g, config, restart)
        if isinstance(outcome, Certificate):
            return outcome
        last = outcome
    assert last is not None
    return last
