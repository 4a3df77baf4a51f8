"""Absorbing structures: per-vertex units, completion, chaining, traversal.

An *absorber* for a set ``X`` is a structure whose body contains ``X`` and
which, for every subset ``X'`` of ``X``, carries a square path between the
same fixed ordered endpoint pairs spanning every body vertex except ``X'``.
It is assembled from one *unit* per absorbee — a five-vertex star core
threaded onto a backbone, with square-path junctions between backbone blocks
— and square-path links between consecutive units.  The star core lives only
in the backbone: its first block is ``u1, u2, v1, v2``.
:func:`chain_absorbers` audits the finished absorber once with
:func:`verify_absorber`, links included; no earlier stage re-walks what it
built.

The absorbee set, the star pools, the unit and link reservoirs and the
absorbees a traversal drops are ``int`` bitsets, and so are a unit's vertex
set and an absorber's body.  A unit's backbone and its junctions draw from
one unit reservoir less the finished units, with one AND; the links draw
from their own reservoir.  A junction or link first tests the direct arc,
which needs no search; the connector's searches pick each vertex uniformly
from the pool vertices that fit, with seeded draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .connector import ConnectionRequest, connect_one, direct_arc
from .gadgets import (
    BACKBONE,
    Embedding,
    absorber_traversal,
    build_gadget,
    is_square_path,
)
from .graphcore import Graph, InputError, bits, mask_of
from .matching import BipartiteInstance, hall_saturating_matching


@dataclass(frozen=True)
class StarRecord:
    """Five-vertex core: the square path ``u1, u2, x, v1, v2`` in the host."""

    x: int
    u1: int
    u2: int
    v1: int
    v2: int


# Fresh backbone cuts tried per unit before completion gives up; past that
# the pipeline restarts with a new partition instead.
UNIT_RETRIES = 8


@dataclass(frozen=True)
class AbsorberUnit:
    """One absorbee ``x``, its backbone and its junction interiors.

    The backbone's first four vertices are the star core ``u1, u2, v1, v2``
    that :func:`build_single_absorbers` matched to ``x``.  ``entry`` and
    ``exit``, the unit's first and last slot pairs, are filled at
    construction, and the vertex set and the walks on first use, as plain
    attributes: equality, hashing and ``repr`` see only the three fields.
    """

    x: int
    backbone: Embedding
    junctions: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        slots = self.backbone.vertices
        # Slots 1, 2 of the first block and 3, 4 of the last (see
        # backbone_label).
        last = 4 * self.blocks
        fill = object.__setattr__
        fill(self, "entry", (slots[0], slots[1]))
        fill(self, "exit", (slots[last - 2], slots[last - 1]))
        fill(self, "_vertex_set", None)
        fill(self, "_walks", {})

    @property
    def blocks(self) -> int:
        return self.backbone.gadget.params[0]

    @property
    def vertex_set(self) -> int:
        """Every vertex of the unit, absorbee included, as a bitset (built
        on first use, so a unit read from outside with an id far out of
        range is rejected by a range check before it becomes a bitset)."""
        verts = self._vertex_set
        if verts is None:
            verts = mask_of(self.backbone.vertices) | 1 << self.x
            for interior in self.junctions:
                verts |= mask_of(interior)
            object.__setattr__(self, "_vertex_set", verts)
        return verts

    def traversal(self, mode: str) -> tuple[int, ...]:
        """The unit's square path in ``mode`` (built once per mode)."""
        walk = self._walks.get(mode)
        if walk is None:
            walk = self._walks[mode] = absorber_traversal(
                self.backbone.vertices, self.junctions, self.x, mode
            )
        return walk


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
    g: Graph,
    xs: int,
    w1: int,
    w2: int,
    w3: int,
    w4: int,
) -> tuple[tuple[StarRecord, ...] | None, dict | None]:
    """Assign each absorbee a disjoint five-vertex star core by Hall rounds.

    The absorbee set ``xs`` and the four star pools are bitsets.  Four
    saturating matchings run in sequence: ``u1`` from ``w1`` adjacent to
    ``x``; ``u2`` from ``w2`` adjacent to ``x`` and ``u1``; ``v1`` from ``w3``
    adjacent to ``x`` and ``u2``; ``v2`` from ``w4`` adjacent to ``x`` and
    ``v1``.  Each round matches onto host vertex ids.  A deficient round
    aborts with diagnostics naming the ``round`` and the violating absorbee
    set.

    Raises:
        InputError: If two of the five sets overlap or one holds a bit
            outside ``0..n-1``.
    """
    seen = 0
    for side in (xs, w1, w2, w3, w4):
        g.check_mask(side)
        if side & seen:
            raise InputError("absorbee set and star classes must be disjoint")
        seen |= side
    rows = g.rows
    xs_listed = bits(xs)
    chosen: list[list[int]] = [[] for _ in xs_listed]
    anchors = list(xs_listed)
    for round_no, pool in enumerate((w1, w2, w3, w4)):
        # The first round anchors each absorbee to itself.
        adjacency = tuple(rows[x] & pool & rows[a] for x, a in zip(xs_listed, anchors))
        res = hall_saturating_matching(BipartiteInstance(adjacency, g.n))
        if res.status != "matched":
            return None, {
                "round": round_no + 1,
                "violating_absorbees": [xs_listed[i] for i in res.violator],
                "joint_neighborhood": len(res.neighborhood),
            }
        for i, v in enumerate(res.pairs):
            chosen[i].append(v)
            anchors[i] = v
    records = tuple(
        StarRecord(x, c[0], c[1], c[2], c[3]) for x, c in zip(xs_listed, chosen)
    )
    return records, None


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
        req = ConnectionRequest(frm, to, pool, 1, length)
        res = connect_one(g, req, seed * 31)
        if res.ok:
            # The ports are the first two and the last two labels.
            return res.embedding.vertices[2:-2], None
    return None, res.diagnostics


def complete_absorbers(
    g: Graph,
    records: Sequence[StarRecord],
    pool: int,
    blocks: int,
    seed: int,
) -> tuple[tuple[AbsorberUnit, ...] | None, dict | None]:
    """Thread each star core onto a backbone and wire its block junctions.

    The backbone of each unit has ``blocks`` blocks (its first block being
    the star core).  The backbone and its junction interiors grow through
    one unit reservoir, the bitset ``pool``, less the finished units and the
    absorbee; a junction also avoids the unit's backbone.  A unit that
    cannot be wired retries with a fresh backbone cut, derived from
    ``seed``, up to :data:`UNIT_RETRIES` times.  Each record
    yields one unit, in order; the units are audited once chained (see
    :func:`chain_absorbers`).  A unit that cannot be wired at all aborts
    with diagnostics naming its ``phase`` (``backbone`` or ``junction-i``).

    Raises:
        InputError: If ``blocks`` is below 2 or ``seed`` is negative.
    """
    if blocks < 2:
        raise InputError(f"absorber units need at least 2 blocks, got {blocks}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    units: list[AbsorberUnit] = []
    used = 0
    for uidx, rec in enumerate(records):
        unit = None
        last_diag: dict = {}
        free = pool & ~used & ~(1 << rec.x)
        req = ConnectionRequest(
            (rec.u2, rec.u1), (rec.v2, rec.v1), free, 2, 4 * blocks
        )
        for attempt in range(UNIT_RETRIES):
            base = seed * 100_003 + uidx * 1_009 + attempt * 17
            res = connect_one(g, req, base)
            if not res.ok:
                last_diag = {"phase": "backbone", "connect": res.diagnostics}
                continue
            slots = res.embedding.vertices
            taken = mask_of(slots)
            interiors: list[tuple[int, ...]] = []
            for i in range(1, blocks):
                # Slots 3, 4 of block i, then slots 1, 2 of block i + 1:
                # labels 4i - 2 .. 4i + 1 (see backbone_label).
                frm = slots[4 * i - 2 : 4 * i]
                to = slots[4 * i : 4 * i + 2]
                interior, diag = _connect_with_fallback(
                    g, frm, to, free & ~taken, base + 7 * i
                )
                if interior is None:
                    last_diag = {"phase": f"junction-{i}", "connect": diag}
                    break
                interiors.append(interior)
                taken |= mask_of(interior)
            else:
                unit = AbsorberUnit(rec.x, res.embedding, tuple(interiors))
                used |= unit.vertex_set
                break
        if unit is None:
            return None, {
                "absorbee": rec.x,
                "attempts": UNIT_RETRIES,
                **last_diag,
            }
        units.append(unit)
    return tuple(units), None


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
    interiors in a fixed order.  Both modes of a unit walk every backbone
    slot (at least 8), so a pair at distance at most 2 that crosses a unit
    boundary lies inside the window of that unit's exit pair, the next link
    and the next unit's entry pair.  That window is the same for every
    ``X'``, and (a) checks it.  Pairs inside a unit are checked by (a) for
    ``include`` and by (b) for ``exclude``.  By (b) a unit's ``exclude``
    piece holds its ``include`` piece less ``x``, and (a) makes the
    ``include`` pieces and links pairwise disjoint, so every traversal has
    distinct vertices and spans the body less ``X'``.  The ends are the first
    unit's entry and the last unit's exit in either mode.  Necessity: a
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
        "units": [
            {
                "x": u.x,
                "blocks": u.blocks,
                "backbone": list(u.backbone.vertices),
                "junctions": [list(j) for j in u.junctions],
            }
            for u in a.units
        ],
        "links": [list(l) for l in a.links],
    }


def absorber_from_json_obj(obj: Mapping) -> Absorber:
    try:
        units = []
        for entry in obj["units"]:
            x = int(entry["x"])
            blocks = int(entry["blocks"])
            slots = tuple(int(v) for v in entry["backbone"])
            # Checked before the template is built: its size follows blocks.
            if len(slots) != 4 * blocks:
                raise InputError(
                    f"absorbee {x}: {blocks} blocks need a backbone of "
                    f"{4 * blocks} vertices, got {len(slots)}"
                )
            backbone = Embedding(build_gadget(BACKBONE, blocks=blocks), slots)
            junctions = tuple(
                tuple(int(v) for v in j) for j in entry["junctions"]
            )
            units.append(AbsorberUnit(x, backbone, junctions))
        links = tuple(tuple(int(v) for v in l) for l in obj["links"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed absorber description: {exc}") from exc
    if not units:
        raise InputError("an absorber needs at least one unit")
    if len(links) != len(units) - 1:
        raise InputError(
            f"{len(units)} units need {len(units) - 1} links, got {len(links)}"
        )
    return Absorber(tuple(units), links)
