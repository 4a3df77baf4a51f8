"""Gadget templates, their host embeddings, and square-path checks.

A *gadget* is a small labeled graph template together with two ordered
two-vertex ports.  Embedding a gadget into a host graph realizes a structure
that can be concatenated with others through its ports:

* ``square-path``: the square of a path on ``length`` labels; every pair of
  labels at distance at most two along the path is an edge.
* ``backbone``: ``blocks`` four-vertex blocks wired so that the structure can
  be traversed by square paths in two ways — one visiting an attached special
  vertex, one avoiding it — with identical endpoints.

All labels are integers ``0..k-1``.  Ports are ordered pairs of labels; the
port orientation is what makes concatenation sound.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .graphcore import Graph, InputError

SQUARE_PATH = "square-path"
BACKBONE = "backbone"

T = TypeVar("T")


@dataclass(frozen=True)
class Gadget:
    """A labeled template graph with ordered entry and exit ports.

    Attributes:
        kind: ``square-path`` or ``backbone``.
        labels: Number of labels; labels are ``0..labels-1``.
        edges: Sorted tuple of label pairs ``(i, j)`` with ``i < j``.
        port_from: Ordered entry port (pair of labels).
        port_to: Ordered exit port (pair of labels).
        params: Kind-specific parameters (see :func:`build_gadget`).
    """

    kind: str
    labels: int
    edges: tuple[tuple[int, int], ...]
    port_from: tuple[int, int]
    port_to: tuple[int, int]
    params: tuple[int, ...]


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_gadget(
    kind: str,
    *,
    length: int | None = None,
    blocks: int | None = None,
) -> Gadget:
    """Construct a gadget template.

    Args:
        kind: ``square-path`` (requires ``length >= 2``) or ``backbone``
            (requires ``blocks >= 2``).

    Returns:
        The template with its canonical ports.

    Raises:
        InputError: On an unknown kind or out-of-range parameters.
    """
    if kind == SQUARE_PATH:
        if length is None or length < 2:
            raise InputError(f"square-path needs length >= 2, got {length}")
        edges = sorted(
            _norm(i, j)
            for i in range(length)
            for j in (i + 1, i + 2)
            if j < length
        )
        return Gadget(
            kind=SQUARE_PATH,
            labels=length,
            edges=tuple(edges),
            port_from=(0, 1),
            port_to=(length - 2, length - 1),
            params=(length,),
        )
    if kind == BACKBONE:
        if blocks is None or blocks < 2:
            raise InputError(f"backbone needs blocks >= 2, got {blocks}")
        return _build_backbone(blocks)
    raise InputError(f"unknown gadget kind {kind!r}")


def backbone_label(i: int, j: int, blocks: int) -> int:
    """Label index of slot ``j`` (1..4) in block ``i`` (1..blocks)."""
    if not (1 <= i <= blocks and 1 <= j <= 4):
        raise InputError(f"block slot ({i}, {j}) out of range for {blocks} blocks")
    return (i - 1) * 4 + (j - 1)


def _quad_edges(a1: int, a2: int, b1: int, b2: int) -> list[tuple[int, int]]:
    """Edges of the square path on the four-label sequence (a1, a2, b1, b2)."""
    return [
        _norm(a1, a2),
        _norm(a2, b1),
        _norm(b1, b2),
        _norm(a1, b1),
        _norm(a2, b2),
    ]


def _build_backbone(blocks: int) -> Gadget:
    w = lambda i, j: backbone_label(i, j, blocks)  # noqa: E731
    pairs: set[tuple[int, int]] = set()
    # First block carries both ports as plain edges.
    pairs.add(_norm(w(1, 1), w(1, 2)))
    pairs.add(_norm(w(1, 3), w(1, 4)))
    # Every later block is internally a square path on its four slots.
    for i in range(2, blocks + 1):
        pairs.update(_quad_edges(w(i, 1), w(i, 2), w(i, 3), w(i, 4)))
    # Entry side of the first block hooks into the second block.
    pairs.update(_quad_edges(w(1, 1), w(1, 2), w(2, 2), w(2, 1)))
    # Exit halves hook two blocks ahead.
    for i in range(1, blocks - 1):
        pairs.update(_quad_edges(w(i, 4), w(i, 3), w(i + 2, 2), w(i + 2, 1)))
    # The final two blocks close off the far end.
    pairs.update(
        _quad_edges(w(blocks - 1, 4), w(blocks - 1, 3), w(blocks, 3), w(blocks, 4))
    )
    edges = tuple(sorted(pairs))
    if len(edges) != 8 * blocks - 3:
        raise AssertionError(
            f"backbone on {blocks} blocks built {len(edges)} edges, "
            f"expected {8 * blocks - 3}"
        )
    return Gadget(
        kind=BACKBONE,
        labels=4 * blocks,
        edges=edges,
        port_from=(w(1, 2), w(1, 1)),
        port_to=(w(1, 4), w(1, 3)),
        params=(blocks,),
    )


# -- embeddings --------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """An assignment of gadget labels to host-graph vertices.

    ``vertices[i]`` is the host vertex playing label ``i``.
    """

    gadget: Gadget
    vertices: tuple[int, ...]

    @property
    def port_from_image(self) -> tuple[int, int]:
        a, b = self.gadget.port_from
        return (self.vertices[a], self.vertices[b])

    @property
    def port_to_image(self) -> tuple[int, int]:
        a, b = self.gadget.port_to
        return (self.vertices[a], self.vertices[b])


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of an embedding check; ``reason`` explains the first failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


#: The one passing result, shared: the checks return it on every success.
_VALID = ValidationResult(True, None)


def validate_embedding(
    g: Graph,
    emb: Embedding,
    connect_from: tuple[int, int] | None = None,
    connect_to: tuple[int, int] | None = None,
) -> ValidationResult:
    """Check that an embedding realizes its gadget inside a host graph.

    Verifies the label count, injectivity, vertex range, presence of every
    template edge in the host, and — when given — exact ordered agreement of
    the port images with ``connect_from`` / ``connect_to``.
    """
    gad = emb.gadget
    verts = emb.vertices
    if len(verts) != gad.labels:
        return ValidationResult(
            False, f"embedding has {len(verts)} vertices for {gad.labels} labels"
        )
    if len(set(verts)) != len(verts):
        return ValidationResult(False, "embedding is not injective")
    n = g.n
    for v in verts:
        if not 0 <= v < n:
            return ValidationResult(False, f"vertex {v} outside host range")
    rows = g.rows
    # One pass over the template edges, in order: each is one bit of a row.
    for i, j in gad.edges:
        u, v = verts[i], verts[j]
        if not rows[u] >> v & 1:
            return ValidationResult(
                False,
                f"template edge ({i}, {j}) maps to missing host edge ({u}, {v})",
            )
    if connect_from is not None:
        a, b = gad.port_from
        if (verts[a], verts[b]) != tuple(connect_from):
            return ValidationResult(
                False,
                f"entry port maps to {emb.port_from_image}, expected {tuple(connect_from)}",
            )
    if connect_to is not None:
        a, b = gad.port_to
        if (verts[a], verts[b]) != tuple(connect_to):
            return ValidationResult(
                False,
                f"exit port maps to {emb.port_to_image}, expected {tuple(connect_to)}",
            )
    return _VALID


# -- sequence helpers --------------------------------------------------------


def square_path_pairs(seq: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """All pairs of sequence entries at positional distance one or two."""
    out = []
    for i in range(len(seq)):
        for j in (i + 1, i + 2):
            if j < len(seq):
                out.append(_norm(seq[i], seq[j]))
    return tuple(out)


def _missing_edge(u: int, v: int) -> ValidationResult:
    a, b = _norm(u, v)
    return ValidationResult(False, f"missing edge ({a}, {b})")


def is_square_path(g: Graph, seq: Sequence[int]) -> ValidationResult:
    """Whether ``seq`` traces the square of a path in ``g``.

    The pairs are tested in the order of :func:`square_path_pairs`, so the
    reason names the first missing one.

    Raises:
        InputError: If an entry of a repetition-free ``seq`` is not a vertex.
    """
    if len(set(seq)) != len(seq):
        return ValidationResult(False, "sequence repeats a vertex")
    g.check_vertices(seq)
    if len(seq) < 2:
        return _VALID
    rows = g.rows
    # One pass: entry i against entries i + 1 and i + 2, each pair one AND
    # of entry i's row with the other entry's bit.
    marks = [1 << v for v in seq]
    for u, near, far in zip(seq, marks[1:], marks[2:]):
        row = rows[u]
        if not row & near:
            return _missing_edge(u, near.bit_length() - 1)
        if not row & far:
            return _missing_edge(u, far.bit_length() - 1)
    if not rows[seq[-2]] & marks[-1]:
        return _missing_edge(seq[-2], seq[-1])
    return _VALID


# -- absorber traversal ------------------------------------------------------


def absorber_traversal(
    backbone: Sequence[T],
    connector_interiors: Sequence[Sequence[T]],
    x: T,
    mode: str,
) -> tuple[T, ...]:
    """Traversal order of an absorber unit.

    An absorber unit consists of a backbone on ``blocks`` blocks, a special
    vertex ``x`` attached to the first block, and ``blocks - 1`` connector
    paths whose interiors are given.  The two traversal modes walk every
    backbone slot and every connector interior, starting at slot ``(1, 1),
    (1, 2)`` and ending at ``(blocks, 3), (blocks, 4)``:

    * ``include`` passes through ``x`` right after the entry pair;
    * ``exclude`` covers the same ground while avoiding ``x``.

    Args:
        backbone: The backbone's vertices in label order (see
            :func:`backbone_label`); its length is ``4 * blocks``.
        connector_interiors: Interior vertex sequences of the connectors
            between consecutive blocks (may be empty sequences).
        x: The special vertex, inserted verbatim by ``include``.
        mode: ``include`` or ``exclude``.

    Returns:
        The walk as a tuple of backbone vertices, connector interior
        vertices and (for ``include``) ``x``.
    """
    blocks = len(backbone) // 4
    if blocks < 2 or len(backbone) % 4:
        raise InputError(
            "absorber traversal needs a backbone of 4 * blocks vertices with "
            f"blocks >= 2, got {len(backbone)}"
        )
    if len(connector_interiors) != blocks - 1:
        raise InputError(
            f"expected {blocks - 1} connector interiors, got {len(connector_interiors)}"
        )
    if mode not in ("include", "exclude"):
        raise InputError(f"mode must be include or exclude, got {mode!r}")
    runs = _traversal_runs(blocks, mode)
    slots = (*backbone, x)
    out = list(runs[0](slots))
    for run, interior in zip(runs[1:], connector_interiors):
        out += interior if mode == "include" else reversed(interior)
        out += run(slots)
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _traversal_runs(blocks: int, mode: str) -> tuple[Callable, ...]:
    """The backbone runs of a ``mode`` unit walk on ``blocks`` blocks, as
    getters of their labels (label ``4 * blocks`` stands for ``x``).

    The walk is run 0, connector interior 0, run 1, interior 1, and so on;
    ``exclude`` reverses each interior.  Built once per ``blocks`` value.
    """

    def w(i: int, j: int) -> int:
        return backbone_label(i, j, blocks)

    if mode == "include":
        runs = [(w(1, 1), w(1, 2), 4 * blocks, w(1, 3), w(1, 4))]
        runs += [(w(i, 1), w(i, 2), w(i, 3), w(i, 4)) for i in range(2, blocks + 1)]
    else:
        runs = [(w(1, 1), w(1, 2), w(2, 2), w(2, 1))]
        # Each later run walks back out of block i - 2 and into block i.
        runs += [
            (w(i - 2, 4), w(i - 2, 3), w(i, 2), w(i, 1)) for i in range(3, blocks + 1)
        ]
        runs.append((w(blocks - 1, 4), w(blocks - 1, 3), w(blocks, 3), w(blocks, 4)))
    return tuple(operator.itemgetter(*run) for run in runs)
