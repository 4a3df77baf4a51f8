"""Absorbing structures: per-vertex units, chaining, and the one audit.

An *absorber* for a set ``X`` is a structure whose body contains ``X`` and
which, for every subset ``X'`` of ``X``, carries a square path between the
same fixed ordered endpoint pairs spanning every body vertex except ``X'``.
It is one *unit* per absorbee, the five-vertex star core ``u1 u2 x v1 v2``,
and square-path links between consecutive units.  A unit is a square path
both with ``x`` (``u1 u2 x v1 v2``) and without it (``u1 u2 v1 v2``), so it
enters at ``(u1, u2)`` and leaves at ``(v1, v2)`` either way.
:func:`chain_absorbers` audits the finished absorber once with
:func:`verify_absorber`, links included; no earlier stage re-walks what it
built.

The paper extends each core by further absorbing blocks, because near
``p = n^(-1/2)`` a vertex lies in about ``n^4 p^9`` copies of ``K5`` minus
an edge, far fewer than one, so a core of its own is rare.  At the sizes
this library runs, a vertex lies in millions of them (about ``3.8 * 10^6``
in ``G(1000, .25)``), and the core is a unit by itself.

The absorbee set, the star pool, the link reservoir and the absorbees a
traversal drops are ``int`` bitsets, and so are a unit's vertex set and an
absorber's body.  A link first tests the direct arc, which needs no search;
the connector's searches pick each vertex uniformly from the pool vertices
that fit, with seeded draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .connector import ConnectionRequest, connect_one, direct_arc
from .gadgets import is_square_path
from .graphcore import Graph, InputError, bits, mask_of
from .matching import BipartiteInstance, hall_saturating_matching


@dataclass(frozen=True)
class AbsorberUnit:
    """One absorbee ``x`` and its star core ``(u1, u2, v1, v2)``.

    The ``include`` walk is ``u1 u2 x v1 v2`` and the ``exclude`` walk is
    ``u1 u2 v1 v2``; both enter at ``entry = (u1, u2)`` and leave at
    ``exit = (v1, v2)``.  The walks, the ports and the vertex set are
    derived on each use, so equality, hashing and ``repr`` see only the two
    fields.
    """

    x: int
    core: tuple[int, int, int, int]

    @property
    def entry(self) -> tuple[int, int]:
        return self.core[:2]

    @property
    def exit(self) -> tuple[int, int]:
        return self.core[2:]

    @property
    def vertex_set(self) -> int:
        """Every vertex of the unit, absorbee included, as a bitset."""
        return mask_of(self.core) | 1 << self.x

    def traversal(self, mode: str) -> tuple[int, ...]:
        """The unit's square path in ``mode``."""
        if mode == "exclude":
            return self.core
        if mode != "include":
            raise InputError(f"mode must be include or exclude, got {mode!r}")
        u1, u2, v1, v2 = self.core
        return (u1, u2, self.x, v1, v2)


@dataclass(frozen=True)
class Absorber:
    """A chained family of units with one fixed entry and exit.

    ``links[i]`` is the interior of the square path joining unit ``i`` to
    unit ``i + 1`` (possibly empty).
    """

    units: tuple[AbsorberUnit, ...]
    links: tuple[tuple[int, ...], ...]

    @property
    def absorbees(self) -> tuple[int, ...]:
        return tuple(u.x for u in self.units)

    @property
    def entry(self) -> tuple[int, int]:
        return self.units[0].entry

    @property
    def exit(self) -> tuple[int, int]:
        return self.units[-1].exit

    def body(self) -> int:
        """Every vertex of the structure, absorbees included, as a bitset."""
        verts = 0
        for u in self.units:
            verts |= u.vertex_set
        for interior in self.links:
            verts |= mask_of(interior)
        return verts


def build_single_absorbers(
    g: Graph, xs: int, star: int
) -> tuple[tuple[tuple[int, int, int, int], ...] | None, dict | None]:
    """Match each absorbee to a disjoint star core by four Hall rounds.

    The absorbee set ``xs`` and the star pool ``star`` are bitsets.  The
    rounds pick ``u1``, ``u2``, ``v1`` and ``v2`` in turn, each from the
    pool less the picks of the earlier rounds.  Every pick is adjacent to
    ``x`` and to the two picks before it: ``u2 ~ u1``, ``v1 ~ u2, u1`` and
    ``v2 ~ v1, u2``.  Those are exactly the edges that make both
    ``u1 u2 x v1 v2`` and ``u1 u2 v1 v2`` square paths.  Each round matches
    onto host vertex ids.

    Returns:
        The cores ``(u1, u2, v1, v2)``, one per absorbee in ascending
        order; or ``None`` and the diagnostics of the first deficient
        round: its ``round`` number, the violating absorbee set, the size
        of its ``joint_neighborhood``, and ``pool``, the count of star
        vertices left when it ran.

    Raises:
        InputError: If the two sets overlap or one holds a bit outside
            ``0..n-1``.
    """
    g.check_mask(xs)
    g.check_mask(star)
    if xs & star:
        raise InputError("absorbee set and star pool must be disjoint")
    rows = g.rows
    xs_listed = bits(xs)
    cores: list[list[int]] = [[] for _ in xs_listed]
    # The two picks before the next one; before the first, only x.
    last = before = xs_listed
    free = star
    for round_no in range(1, 5):
        adjacency = tuple(
            rows[x] & rows[a] & rows[b] & free
            for x, a, b in zip(xs_listed, last, before)
        )
        res = hall_saturating_matching(BipartiteInstance(adjacency, g.n))
        if res.status != "matched":
            return None, {
                "round": round_no,
                "violating_absorbees": [xs_listed[i] for i in res.violator],
                "joint_neighborhood": len(res.neighborhood),
                "pool": free.bit_count(),
            }
        for core, v in zip(cores, res.pairs):
            core.append(v)
        before, last = last, res.pairs
        free &= ~mask_of(res.pairs)
    return tuple(tuple(core) for core in cores), None


def complete_absorbers(
    xs: int, cores: Sequence[tuple[int, int, int, int]]
) -> tuple[AbsorberUnit, ...]:
    """The units of the absorbees in ``xs``, ascending, with the cores that
    :func:`build_single_absorbers` matched to them, in the same order."""
    return tuple(AbsorberUnit(x, core) for x, core in zip(bits(xs), cores))


def _connect_with_fallback(
    g: Graph,
    frm: tuple[int, int],
    to: tuple[int, int],
    pool: int,
    seed: int,
) -> tuple[tuple[int, ...] | None, dict | None]:
    """Shortest connection first, lengthening one vertex at a time; returns
    the interior, or None and the last search's diagnostics.

    Sweeping lengths 4..8 (zero to four interior vertices) keeps reservoir
    consumption minimal: most jobs close with zero or one interior vertex,
    so the reservoir survives many jobs.  Length 4 is the direct arc, which
    needs no search; lengths 5..8 search the same ``pool`` mask.
    """
    if direct_arc(g, frm, to):
        return (), None
    for length in range(5, 9):
        req = ConnectionRequest(frm, to, pool, length)
        res = connect_one(g, req, seed * 31)
        if res.ok:
            # The ports are the first two and the last two vertices.
            return res.path[2:-2], None
    return None, res.diagnostics


def _walk_fault(
    g: Graph,
    seq: tuple[int, ...],
    span: int,
    entry: tuple[int, int],
    exit: tuple[int, int],
) -> str | None:
    """Why ``seq`` is not a square path on exactly the bitset ``span`` from
    ``entry`` to ``exit``, or ``None`` when it is."""
    check = is_square_path(g, seq)
    if not check.ok:
        return check.reason
    if mask_of(seq) != span:
        return "wrong span"
    if seq[:2] != entry or seq[-2:] != exit:
        return "endpoints moved"
    return None


def _unit_fault(g: Graph, unit: AbsorberUnit, mode: str) -> str | None:
    """Why the unit's ``mode`` traversal does not span the unit (less ``x``
    when excluding) between ``unit.entry`` and ``unit.exit``, or ``None``."""
    span = unit.vertex_set
    if mode == "exclude":
        span &= ~(1 << unit.x)
    return _walk_fault(g, unit.traversal(mode), span, unit.entry, unit.exit)


def chain_absorbers(
    g: Graph,
    units: Sequence[AbsorberUnit],
    pool: int,
    seed: int,
) -> tuple[Absorber | None, dict | None]:
    """Join units in order with square-path links into one audited absorber.

    Each link connects a unit's exit pair to the next one's entry pair,
    directly when the three required host edges exist, otherwise through the
    link reservoir bitset ``pool`` less the units, searched with connector
    seeds derived from ``seed``.  A link that cannot be made aborts with
    diagnostics naming the ``link`` phase.  The finished absorber passes
    :func:`verify_absorber` once; this is the only audit a built absorber
    gets.

    Raises:
        InputError: If there are no units, two of them share a vertex, or
            ``seed`` is negative.
        AssertionError: If the finished absorber fails the audit.
    """
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    if not units:
        raise InputError("an absorber needs at least one unit")
    body = 0
    for unit in units:
        more = unit.vertex_set
        if body & more:
            raise InputError("units to chain must be pairwise disjoint")
        body |= more
    links: list[tuple[int, ...]] = []
    free = pool & ~body
    for i, (a, b) in enumerate(zip(units, units[1:])):
        interior, diag = _connect_with_fallback(
            g, a.exit, b.entry, free, seed * 9_176 + i * 13
        )
        if interior is None:
            return None, {"phase": "link", "link": (a.x, b.x), "connect": diag}
        links.append(interior)
        free &= ~mask_of(interior)
    absorber = Absorber(tuple(units), tuple(links))
    audit = verify_absorber(g, absorber)
    if not audit.ok:
        raise AssertionError(f"constructed absorber failed verification: {audit}")
    return absorber, None


def absorb(a: Absorber, x_prime: int) -> tuple[int, ...]:
    """The traversal that leaves out exactly the absorbees in ``x_prime``.

    Args:
        a: The absorber.
        x_prime: Bitset of the absorbees to skip, a subset of ``a.absorbees``.

    Returns:
        A vertex sequence with the absorber's fixed entry and exit pairs
        whose vertex set is the whole body minus ``x_prime``.
    """
    # Not a mask of the absorbees: a stored absorber may name a huge one,
    # which the audit rejects only once it holds this walk.
    skip = set(bits(x_prime))
    unknown = skip - set(a.absorbees)
    if unknown:
        raise InputError(f"not absorbees of this structure: {sorted(unknown)}")
    out: list[int] = []
    for i, unit in enumerate(a.units):
        mode = "exclude" if unit.x in skip else "include"
        out.extend(unit.traversal(mode))
        if i < len(a.links):
            out.extend(a.links[i])
    return tuple(out)


@dataclass(frozen=True)
class AbsorberVerification:
    """Result of the absorber audit.

    ``subsets_checked`` counts the subset traversals walked, a failing one
    included; ``failure`` names the first failing subset and why it fails.
    """

    ok: bool
    subsets_checked: int
    failure: dict | None


def verify_absorber(g: Graph, a: Absorber) -> AbsorberVerification:
    """Check that every subset traversal ``absorb(a, X')`` is valid.

    Valid means a square path in ``g`` with distinct vertices, spanning
    ``a.body()`` minus ``X'``, from ``a.entry`` to ``a.exit``.  The check is
    exact for all ``2^|X|`` subsets while walking only ``|X| + 1`` of them,
    in time linear in the body:

    (a) the all-``include`` traversal ``absorb(a, 0)`` is valid;
    (b) each unit's ``exclude`` traversal is a square path spanning the unit
        less its absorbee, with the same first and last pairs
        (``unit.entry``, ``unit.exit``) as its ``include`` traversal.

    Sufficiency: ``absorb(a, X')`` concatenates unit traversals and link
    interiors in a fixed order.  Both modes of a unit start with its entry
    pair and end with its exit pair, and the two pairs are disjoint, so
    each walk holds at least four vertices and no pair at distance at most
    2 jumps over a whole unit.  A pair at distance at most 2 that crosses a
    unit boundary therefore lies inside the window of that unit's exit
    pair, the next link and the next unit's entry pair.  That window is the
    same for every ``X'``, and (a) checks it.  Pairs inside a unit are
    checked by (a) for ``include`` and by (b) for ``exclude``.  By (b) a
    unit's ``exclude`` piece holds its ``include`` piece less ``x``, and (a)
    makes the ``include`` pieces and links pairwise disjoint, so every
    traversal has distinct vertices and spans the body less ``X'``.  The
    ends are the first unit's entry and the last unit's exit in either
    mode.  Necessity: a
    fault in (a) or (b) is a fault in the traversal for ``X' = ()`` or
    ``X' = (x,)``.

    Returns:
        ``ok`` with ``subsets_checked == |X| + 1``, or the first fault with
        ``failure["subset"]`` set to ``()`` for (a) and ``(x,)`` for unit
        ``x`` failing (b).
    """
    walk = absorb(a, 0)
    # The walk holds every body vertex; checked first, a stored id of any
    # size is rejected before the body is built as a bitset.
    g.check_vertices(walk)
    fault = _walk_fault(g, walk, a.body(), a.entry, a.exit)
    if fault is not None:
        return AbsorberVerification(False, 1, {"subset": (), "reason": fault})
    for k, unit in enumerate(a.units):
        fault = _unit_fault(g, unit, "exclude")
        if fault is not None:
            return AbsorberVerification(
                False, k + 2, {"subset": (unit.x,), "reason": fault}
            )
    return AbsorberVerification(True, len(a.units) + 1, None)


# -- serialization ------------------------------------------------------------


def absorber_to_json_obj(a: Absorber) -> dict:
    """JSON-ready description of an absorber (round-trips via ``from``)."""
    return {
        "units": [{"x": u.x, "core": list(u.core)} for u in a.units],
        "links": [list(l) for l in a.links],
    }


def absorber_from_json_obj(obj: Mapping) -> Absorber:
    """The absorber a description of :func:`absorber_to_json_obj` holds.

    Raises:
        InputError: On a malformed description, one in the old multi-block
            unit format, a unit whose core is not four vertices, or a link
            count that is not one less than the unit count.
    """
    try:
        units = []
        for entry in obj["units"]:
            if "blocks" in entry:
                raise InputError(
                    "absorber files in the multi-block unit format (units "
                    "with a 'blocks' key) are no longer read; rebuild the "
                    "absorber to get five-vertex units"
                )
            x = int(entry["x"])
            core = tuple(int(v) for v in entry["core"])
            if len(core) != 4:
                raise InputError(
                    f"absorbee {x}: a core is four vertices, got {len(core)}"
                )
            units.append(AbsorberUnit(x, core))
        links = tuple(tuple(int(v) for v in l) for l in obj["links"])
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed absorber description: {exc}") from exc
    if not units:
        raise InputError("an absorber needs at least one unit")
    if len(links) != len(units) - 1:
        raise InputError(
            f"{len(units)} units need {len(units) - 1} links, got {len(links)}"
        )
    return Absorber(tuple(units), links)
