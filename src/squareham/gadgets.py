"""Square-path checks.

A *square path* is a sequence of distinct vertices in which every two
entries at distance one or two along the sequence are adjacent: the square
of a path.  A connection is one whose first two and last two vertices are
two prescribed ordered host edges, its ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphcore import Graph, InputError, check_int


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


def is_square_path(g: Graph, seq: Sequence[int]) -> ValidationResult:
    """Whether ``seq`` traces the square of a path in ``g``.

    The pairs are tested position by position, each entry against the next
    and then the one after, so the reason names the first missing one.
    Entries may be numpy integers; they are read as ints.

    Raises:
        InputError: If ``seq`` is not a sequence of vertices of ``g``.
    """
    try:
        k = len(seq)
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


def validate_embedding(
    g: Graph,
    path: Sequence[int],
    connect_from: tuple[int, int],
    connect_to: tuple[int, int],
) -> ValidationResult:
    """Check that ``path`` is a square path in ``g`` whose first two
    vertices are ``connect_from`` and whose last two are ``connect_to``, in
    order.

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
            reason = f"{name} port is {tuple(got)}, expected {want}"
            return ValidationResult(False, reason)
    return _VALID
