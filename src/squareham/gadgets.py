"""Square-path checks.

A *square path* is a sequence of distinct vertices in which every two
entries at distance one or two along the sequence are adjacent: the square
of a path.  A connection is one whose first two and last two vertices are
two prescribed ordered host edges, its ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphcore import Graph, InputError, check_int, vertex_ids


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a check; ``reason`` explains the first failure."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


#: The one passing result, shared: the checks return it on every success.
_VALID = ValidationResult(True, None)


#: ``v -> 1 << v`` for a plain int ``v``, and NotImplemented for any other.
_BIT = (1).__lshift__


def _missing_edge(u: int, v: int) -> ValidationResult:
    a, b = (u, v) if u < v else (v, u)
    return ValidationResult(False, f"missing edge ({a}, {b})")


#: Shortest sequence :func:`is_square_path` checks in bulk, by gathers on
#: ``g.packed``, and shortest walk whose absorbees
#: :func:`~squareham.absorber.verify_absorber` checks in bulk.  Warm, bulk
#: and loop meet near 72 vertices, but in a solve the first numpy calls
#: after pure Python cost more: bulk from 80 took a G(200, .7) audit from
#: 130 to 185 us.  Interleaved solves did best from 160 to 320 (2-vCPU VM).
BULK_PATH_LEN = 160


def is_square_path(g: Graph, seq: Sequence[int]) -> ValidationResult:
    """Whether ``seq`` traces the square of a path in ``g``.

    The pairs are tested position by position, each entry against the next
    and then the one after, so the reason names the first missing one.
    Entries may be numpy integers; they are read as ints.  A sequence of
    :data:`BULK_PATH_LEN` or more vertices is first checked in one bulk
    pass, and the loop runs only to name the first fault.

    Raises:
        InputError: If ``seq`` is not a sequence of vertices of ``g``.
    """
    try:
        k = len(seq)
        if k >= BULK_PATH_LEN and _square_path_holds(g, seq):
            return _VALID
        # An id of any size is rejected before a bit is built from it.
        if k and not (0 <= min(seq) and max(seq) < g.n):
            g.check_vertices(seq)
        if len(set(seq)) != k:
            return ValidationResult(False, "sequence repeats a vertex")
        if k < 2:
            return _VALID
        rows = g.rows
        # One pass: entry i against entries i + 1 and i + 2, each pair one
        # AND of entry i's row with the other entry's bit.  An entry that is
        # not a plain int has no bit, so its AND raises TypeError, unless a
        # fault before it decides the result first.
        marks = [*map(_BIT, seq)]
        for u, near, far in zip(seq, marks[1:], marks[2:]):
            row = rows[u]
            if not row & near:
                return _missing_edge(u, near.bit_length() - 1)
            if not row & far:
                return _missing_edge(u, far.bit_length() - 1)
        if not rows[seq[-2]] & marks[-1]:
            return _missing_edge(seq[-2], seq[-1])
        return _VALID
    except TypeError:
        pass
    # Numpy integers are read as ints, and anything else is no vertex.
    try:
        vertices = list(seq)
    except TypeError:
        raise InputError(f"a vertex sequence must be iterable, got {seq!r}") from None
    for v in vertices:
        check_int("a vertex", v)
    return is_square_path(g, [int(v) for v in vertices])


def _square_path_holds(g: Graph, seq: Sequence[int]) -> bool:
    """Whether ``seq`` is a square path of integer vertices of ``g``, by
    gathers on ``g.packed``; ``False`` says only that some check fails."""
    ids = vertex_ids(seq)
    if ids is None or ids.min() < 0 or ids.max() >= g.n:
        return False
    seen = np.zeros(g.n, bool)
    seen[ids] = True
    if np.count_nonzero(seen) != len(ids):
        return False
    # Each entry against the next, then each against the one after that.
    return g.has_edges(
        np.concatenate((ids[:-1], ids[:-2])), np.concatenate((ids[1:], ids[2:]))
    )


def validate_embedding(
    g: Graph,
    path: Sequence[int],
    connect_from: tuple[int, int],
    connect_to: tuple[int, int],
) -> ValidationResult:
    """Check that ``path`` is a square path in ``g`` whose first two
    vertices are ``connect_from`` and whose last two are ``connect_to``, in
    order.

    A short path of plain ints, a connection, is checked in one pass; the
    checks of :func:`is_square_path` and then of each port run only to
    name the first fault, or on any other path.

    Raises:
        InputError: As :func:`is_square_path`, or on a port that is not
            iterable.
    """
    try:
        if _short_connection_holds(g, path, connect_from, connect_to):
            return _VALID
    except (TypeError, ValueError):
        pass
    check = is_square_path(g, path)
    if not check:
        return check
    for name, got, want in (
        ("entry", path[:2], connect_from),
        ("exit", path[-2:], connect_to),
    ):
        try:
            want = tuple(want)
        except TypeError:
            raise InputError(f"the {name} port must be a pair, got {want!r}") from None
        if tuple(got) != want:
            reason = f"{name} port is {_ints(got)}, expected {_ints(want)}"
            return ValidationResult(False, reason)
    return _VALID


def _ints(pair: Sequence) -> tuple:
    """``pair`` as a tuple, numpy integers read as ints, so that a reason
    reads the same whichever kind of integer it names."""
    return tuple(int(v) if isinstance(v, np.integer) else v for v in pair)


def _short_connection_holds(
    g: Graph, path: Sequence[int], frm: tuple[int, int], to: tuple[int, int]
) -> bool:
    """Whether ``path``, of 2 to ``BULK_PATH_LEN - 1`` plain-int vertices,
    passes every check of :func:`validate_embedding`, in one pass over it;
    ``False`` says only that some check fails or the path is of another
    kind.  Raises ``TypeError`` or ``ValueError`` on ports that are not
    pairs, or on a path whose entries cannot be hashed."""
    (a, b), (c, d) = frm, to
    if not (2 <= len(path) < BULK_PATH_LEN):
        return False
    if not (path[0] == a and path[1] == b and path[-2] == c and path[-1] == d):
        return False
    if len(set(path)) != len(path):
        return False
    n, rows = g.n, g.rows
    # Each vertex against the two before it.
    entries = iter(path)
    u, v = next(entries), next(entries)
    if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n):
        return False
    if not rows[u] >> v & 1:
        return False
    for w in entries:
        if type(w) is not int or not 0 <= w < n:
            return False
        row = rows[w]
        if not (row >> v & 1 and row >> u & 1):
            return False
        u, v = v, w
    return True
