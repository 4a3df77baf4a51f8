"""Gadget templates, their host embeddings, and square-path checks.

A *gadget* is a small labeled graph template together with two ordered
two-vertex ports.  Embedding a gadget into a host graph realizes a structure
that can be concatenated with others through its ports.  The one kind is
``square-path``: the square of a path on ``length`` labels, in which every
pair of labels at distance at most two along the path is an edge.

All labels are integers ``0..k-1``.  Ports are ordered pairs of labels; the
port orientation is what makes concatenation sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphcore import Graph, InputError

SQUARE_PATH = "square-path"


@dataclass(frozen=True)
class Gadget:
    """A labeled template graph with ordered entry and exit ports.

    Attributes:
        kind: ``square-path``.
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
) -> Gadget:
    """Construct a gadget template.

    Args:
        kind: ``square-path`` (requires ``length >= 2``).

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
    raise InputError(f"unknown gadget kind {kind!r}")


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
