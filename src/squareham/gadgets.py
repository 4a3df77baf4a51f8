"""Square-path checks.

A *square path* is a sequence of distinct vertices in which every two
entries at distance one or two along the sequence are adjacent: the square
of a path.  A connection is one whose first two and last two vertices are
two prescribed ordered host edges, its ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphcore import Graph


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


def is_square_path(g: Graph, seq: Sequence[int]) -> ValidationResult:
    """Whether ``seq`` traces the square of a path in ``g``.

    The pairs are tested position by position, each entry against the next
    and then the one after, so the reason names the first missing one.

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


def validate_embedding(
    g: Graph,
    path: Sequence[int],
    connect_from: tuple[int, int] | None = None,
    connect_to: tuple[int, int] | None = None,
) -> ValidationResult:
    """Check that ``path`` is a square path in ``g`` whose first two
    vertices are ``connect_from`` and whose last two are ``connect_to``, in
    order; a port left ``None`` is not checked.

    Raises:
        InputError: As :func:`is_square_path`.
    """
    check = is_square_path(g, path)
    if not check:
        return check
    for name, got, want in (
        ("entry", path[:2], connect_from),
        ("exit", path[-2:], connect_to),
    ):
        if want is not None and tuple(got) != tuple(want):
            return ValidationResult(
                False, f"{name} port is {tuple(got)}, expected {tuple(want)}"
            )
    return _VALID
