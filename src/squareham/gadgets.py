"""Square-path checks.

A *square path* is a sequence of distinct vertices in which every two
entries at distance one or two along the sequence are adjacent: the square
of a path.  A connection is one whose first two and last two vertices are
two prescribed ordered host edges, its ports.

:func:`is_square_path` is the one square-path check: a short sequence runs
one loop, each entry against the two before it, and a long one one gather
on the packed rows.  Either names the first fault from the pass that
accepts a good sequence.  :func:`validate_embedding`, the connector's
success check, is that check and then the two ports.
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


def _missing_edge(u: int, v: int) -> ValidationResult:
    a, b = (u, v) if u < v else (v, u)
    return ValidationResult(False, f"missing edge ({a}, {b})")


#: Shortest sequence :func:`is_square_path` checks in bulk, by one gather
#: on ``g.packed``, and shortest walk whose absorbees
#: :func:`~squareham.absorber.verify_absorber` checks in bulk.  Warm, bulk
#: and loop meet near 72 vertices, but in a solve the first numpy calls
#: after pure Python cost more: bulk from 80 took a G(200, .7) audit from
#: 130 to 185 us.  Interleaved solves did best from 160 to 320 (2-vCPU VM).
#: The walks of G(200, .) absorbers fall below it, the larger ones above.
BULK_PATH_LEN = 160


def is_square_path(g: Graph, seq: Sequence[int]) -> ValidationResult:
    """Whether ``seq`` traces the square of a path in ``g``.

    The range check comes first, then repeats, then the pairs in position
    order, each entry against the next and then the one after, so the
    reason names the first missing one.  Entries may be numpy integers;
    they give the answer their int values give.  A sequence of
    :data:`BULK_PATH_LEN` or more integers is checked by one gather, whose
    per-pair result names the fault; a shorter one by one loop.

    Raises:
        InputError: If ``seq`` is not a sequence of vertices of ``g``.
    """
    try:
        k = len(seq)
        if k >= BULK_PATH_LEN:
            ids = vertex_ids(seq)
            if ids is not None:
                return _bulk_square_path(g, ids)
        # An id of any size is rejected before a row is read for it.
        if k and not (0 <= min(seq) and max(seq) < g.n):
            g.check_vertices(seq)
        if len(set(seq)) != k:
            return ValidationResult(False, "sequence repeats a vertex")
        if k < 2:
            return _VALID
        rows = g.rows
        # Each entry against the two before it, the farther one first: that
        # order meets the pairs in position order.  An entry that is not an
        # integer raises TypeError, unless a fault before it decides the
        # result first; a numpy one shifts in numpy, or raises
        # OverflowError on a row wider than its type.
        entries = iter(seq)
        u, v = next(entries), next(entries)
        if not rows[v] >> u & 1:
            return _missing_edge(u, v)
        for w in entries:
            row = rows[w]
            if not row >> u & 1:
                return _missing_edge(u, w)
            if not row >> v & 1:
                return _missing_edge(v, w)
            u, v = v, w
        return _VALID
    except (TypeError, OverflowError):
        pass
    # Numpy integers are read as ints, and anything else is no vertex.
    try:
        vertices = list(seq)
    except TypeError:
        raise InputError(f"a vertex sequence must be iterable, got {seq!r}") from None
    for v in vertices:
        check_int("a vertex", v)
    return is_square_path(g, [int(v) for v in vertices])


def _bulk_square_path(g: Graph, ids: np.ndarray) -> ValidationResult:
    """:func:`is_square_path` on a sequence read as the ``int64`` array
    ``ids``, in one pass."""
    if ids.min() < 0 or ids.max() >= g.n:
        g.check_vertices(ids)
    seen = np.zeros(g.n, bool)
    seen[ids] = True
    if np.count_nonzero(seen) != len(ids):
        return ValidationResult(False, "sequence repeats a vertex")
    # Each entry against the next, then each against the one after that.
    found = g.has_edges(
        np.concatenate((ids[:-1], ids[:-2])), np.concatenate((ids[1:], ids[2:]))
    )
    if found.all():
        return _VALID
    # Column i holds entry i's pair at distance 1 over its pair at distance
    # 2 (the last column has none), so the first column with a miss is the
    # first fault's place.
    i = np.append(found, 1).reshape(2, -1).min(axis=0).argmin()
    d = 1 if found[i] == 0 else 2
    return _missing_edge(int(ids[i]), int(ids[i + d]))


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
        InputError: As :func:`is_square_path`, or on a port that is not
            iterable.
    """
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
