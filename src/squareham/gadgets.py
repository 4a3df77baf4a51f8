"""Square-path checks.

A *square path* is a sequence of distinct vertices in which every two
entries at distance one or two along the sequence are adjacent: the square
of a path.  A connection is one whose first two and last two vertices are
two prescribed ordered host edges, its ports.

:func:`is_square_path` is the one square-path check: a short sequence runs
one loop, each entry against the two before it, and a long one, or an
``int64`` array, one pair pass.  The pair pass, :func:`_first_gap`, is the
package's one gather of distance-1 and distance-2 pairs on the packed rows;
the certificate check and the absorber audit run it too.  Each names the
first fault from the pass that accepts a good sequence.
:func:`validate_embedding`, the connector's success check, is that check
and then the two ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphcore import Graph, InputError, check_graph, check_ints, vertex_ids


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a check; ``reason`` explains the first failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


#: The one passing result, shared: the checks return it on every success.
_VALID = ValidationResult(True, None)


def _missing_edge(u: int, v: int) -> ValidationResult:
    a, b = (u, v) if u < v else (v, u)
    return ValidationResult(False, f"missing edge ({a}, {b})")


#: Shortest sequence :func:`is_square_path` checks in bulk, by one pair
#: pass on ``g.packed``.  Warm, bulk and loop meet near 72 vertices, but in
#: a solve the first numpy calls after pure Python cost more: bulk from 80
#: took a G(200, .7) audit from 130 to 185 us.  Interleaved solves did best
#: from 160 to 320 (2-vCPU VM).
BULK_PATH_LEN = 160


def is_square_path(g: Graph, seq: Sequence[int]) -> ValidationResult:
    """Whether ``seq`` traces the square of a path in ``g``.

    The range check comes first, then repeats, then the pairs in position
    order, each entry against the next and then the one after, so the
    reason names the first missing one.  A sequence of
    :data:`BULK_PATH_LEN` or more integers, or an ``int64`` array of any
    length, is checked by one pair pass, :func:`_first_gap`; a shorter one
    by one loop, which tests each entry's type and range as it reads it.

    Raises:
        InputError: If ``seq`` is not a sequence of vertices of ``g``.
    """
    if type(g) is not Graph:  # a Graph needs no call
        check_graph(g)
    try:
        k = len(seq)
        bulk = k >= BULK_PATH_LEN or type(seq) is np.ndarray
        if bulk and (ids := vertex_ids(seq)) is not None:
            if k and (ids.min() < 0 or ids.max() >= g.n):
                g.check_vertices(ids)
            seen = np.zeros(g.n, bool)
            seen[ids] = True
            if np.count_nonzero(seen) != k:
                return ValidationResult(False, "sequence repeats a vertex")
            gap = _first_gap(g, ids)
            if gap is None:
                return _VALID
            i, d = gap
            return _missing_edge(int(ids[i]), int(ids[i + d]))
        if len(set(seq)) != k:
            return _read(g, seq, ValidationResult(False, "sequence repeats a vertex"))
        if k < 2:
            return _read(g, seq, _VALID)
        n, rows = g.n, g.rows
        # Each entry against the two before it, the farther one first: that
        # order meets the pairs in position order.  An entry that is not a
        # plain int vertex ends the loop, and the sequence is read below.
        entries = iter(seq)
        u, v = next(entries), next(entries)
        if type(u) is type(v) is int and 0 <= u < n and 0 <= v < n:
            if not rows[v] >> u & 1:
                return _read(g, seq, _missing_edge(u, v))
            for w in entries:
                if type(w) is not int or not 0 <= w < n:
                    break
                row = rows[w]
                if not row >> u & 1:
                    return _read(g, seq, _missing_edge(u, w))
                if not row >> v & 1:
                    return _read(g, seq, _missing_edge(v, w))
                u, v = v, w
            else:
                return _VALID
    except TypeError:
        pass
    return is_square_path(g, g.check_vertices(seq))


def _read(g: Graph, seq: Sequence, result: ValidationResult) -> ValidationResult:
    """``result``, which :func:`is_square_path` met before it read all of
    ``seq``, once every entry is read as a vertex of ``g``: a non-vertex
    after a fault is still an :class:`InputError`."""
    g.check_vertices(seq)
    return result


def _first_gap(g: Graph, ids: np.ndarray) -> tuple[int, int] | None:
    """The first place ``i`` and distance ``d`` at which ``ids[i]`` and
    ``ids[i + d]`` are no edge of ``g``, ``d = 1`` before ``d = 2``, or
    ``None``: one gather on ``g.packed`` for the vertex array ``ids``,
    whose entries are not checked."""
    # Each entry against the next, then each against the one after that.
    found = g.has_edges(
        np.concatenate((ids[:-1], ids[:-2])), np.concatenate((ids[1:], ids[2:]))
    )
    if found.all():
        return None
    # Column i holds entry i's pair at distance 1 over its pair at distance
    # 2 (the last column has none), so the first column with a miss is the
    # first fault's place.
    i = int(np.append(found, 1).reshape(2, -1).min(axis=0).argmin())
    return i, 1 if found[i] == 0 else 2


def read_ports(
    frm: tuple[int, int], to: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two ports of a connection as pairs of plain ints, or
    :class:`InputError` unless each is a pair of integers.  This is the
    connector's one port reader; plain ints need no further call."""
    try:
        (a, b), (c, d) = frm, to
    except (TypeError, ValueError):
        message = f"job ports must be two ordered pairs: {frm!r} -> {to!r}"
        raise InputError(message) from None
    if not (type(a) is type(b) is type(c) is type(d) is int):
        a, b, c, d = check_ints("a port vertex", (a, b, c, d))
    return (a, b), (c, d)


def validate_embedding(
    g: Graph,
    path: Sequence[int],
    connect_from: tuple[int, int],
    connect_to: tuple[int, int],
) -> ValidationResult:
    """Check that ``path`` is a square path in ``g`` whose first two
    vertices are ``connect_from`` and whose last two are ``connect_to``, in
    order: :func:`is_square_path`, then each port.

    Raises:
        InputError: As :func:`is_square_path`, or on a port that is not a
            pair of integers.
    """
    entry, exit_ = read_ports(connect_from, connect_to)
    check = is_square_path(g, path)
    if not check:
        return check
    for name, got, want in (("entry", path[:2], entry), ("exit", path[-2:], exit_)):
        if tuple(got) != want:
            got = check_ints("a vertex", got)
            return ValidationResult(False, f"{name} port is {got}, expected {want}")
    return _VALID
