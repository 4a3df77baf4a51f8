"""Graph representation, seeded randomness, and counting primitives.

Vertices are dense integers ``0..n-1``.  Real thresholds (degree floors,
codegree floors, density windows) are compared in floating point with a
small absolute slack to absorb rounding.

Each adjacency row is one Python ``int`` bitset (bit ``v`` of row ``u`` is
the pair ``uv``), so "is ``v`` adjacent to every vertex of a placed set" is
one AND of rows and one bit test.  One rule holds across the package: a
vertex set is such an ``int`` bitset, and a sequence carries order (paths,
certificates, witnesses, and report fields that go to JSON).  The
adversary's attack class, an index array for numpy, is the one exception.
:meth:`Graph.check_mask` checks a bitset's type and range, :func:`bits` and
:func:`mask_of` convert between bitsets and ascending vertex lists, and
:func:`pick_bit` turns a draw into one set bit without listing.  Numpy work
reads two bulk views of the rows, never edited and each built at most once
per graph: :attr:`Graph.packed`, the rows as bytes, which whole-path
passes gather from (:meth:`Graph.has_edges`, one flag per pair, so a check
names its first fault from the pass that accepts a good input), and the
boolean matrix, unpacked from it for BLAS.  Graphs from outside edges go
through the validating :class:`Graph` constructor;
:func:`gnp_generate` writes its rows straight into packed bytes, a block of
rows at a time, and hands that array to the graph as its packed view, and
graphs derived from another graph (edge deletion) are built from the
parent's rows.  Every codegree and triangle count comes from one symmetric
``A·Aᵀ`` product over the matrix, squared in float32 by BLAS.  The square
of a graph less the edges inside a vertex set is taken from its host's
square by one thin correction product on that set's rows, not squared
again.  Both products are exact: every entry is an integer of at most
``n``, and float32 holds every integer up to 2^24 exactly (a graph on 2^24
vertices would need a 256 TiB matrix).  A triangle count is a row dot of
the square with the float32 adjacency (:func:`_row_dots`, the one other
kernel), exact in float32 up to n = 4096 and by float32 chunks beyond.

Every argument is read by one rule, here: a vertex, count or seed is a
Python or numpy integer, never a ``bool``, read as a plain ``int``
(:func:`check_int`, and :func:`check_ints` for a sequence of them); a
vertex set is a plain ``int`` bitset; a graph is a :class:`Graph`
(:func:`check_graph`).  Anything else raises :class:`InputError`.  A hot
entry point tests ``type(x) is int`` inline and reads only on a miss.

Seeded randomness follows one rule: numpy for bulk draws, SplitMix64 per
pick.  Permutations, G(n, p) rows and experiment samples come
from a numpy generator made by :func:`rng_for`.  A search that picks one
vertex at a time turns each draw of a :func:`splitmix64` stream into a
candidate with :func:`pick_bit`.  The stream makes one numpy call per
block of draws, not one per pick, after a short head of scalar draws, and
a pick reads the next draw from a list; that pick is not uniform over the
candidates (:func:`pick_bit` gives its odds).

Each graph counts its degrees once, when it is built, from the rows it is
built on (:attr:`Graph.degrees`); the edge count is their half-sum.
"""

from __future__ import annotations

import array
import itertools
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

#: Absolute slack used when comparing measured integers against real thresholds.
DEFAULT_SLACK = 1e-9


class InputError(ValueError):
    """Raised when an operation receives structurally invalid input."""


def check_int(name: str, value: object, low: int | None = None) -> int:
    """``value`` as a plain ``int``, or :class:`InputError` unless it is an
    integer, a Python or numpy ``int`` but not a ``bool``, and at least
    ``low`` when one is given.  ``name`` says what the value is in the
    message.  This is the package's one rule for an integer argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise InputError(f"{name} must be {bound}, got {value}")
    return int(value)


def check_ints(name: str, values: object) -> tuple[int, ...]:
    """The entries of the iterable ``values`` as a tuple of plain ints, each
    read by :func:`check_int` under ``name``; a tuple of plain ints is
    returned as it is."""
    try:
        out = tuple(values)
    except TypeError:
        raise InputError(f"expected integers, got {type(values).__name__}") from None
    for v in out:
        if type(v) is not int:  # plain ints need no call
            return tuple([check_int(name, v) for v in out])
    return out


def check_graph(g: object, name: str = "g") -> None:
    """Raise :class:`InputError` naming ``name`` unless ``g`` is a :class:`Graph`."""
    if not isinstance(g, Graph):
        raise InputError(f"{name} must be a Graph, got {type(g).__name__}")


def check_sequence(name: str, value: object) -> None:
    """Raise :class:`InputError` naming ``name`` unless ``value`` is a sequence."""
    if not isinstance(value, Sequence):
        raise InputError(f"{name} must be a sequence, got {type(value).__name__}")


def check_vertex_count(name: str, value: object) -> int:
    """:func:`check_int` with a floor of 0 and a ceiling of ``sys.maxsize``,
    the longest list of rows that can be indexed; a larger count is
    rejected before anything is allocated."""
    if check_int(name, value, 0) > sys.maxsize:
        raise InputError(f"{name} must be at most {sys.maxsize}, got {value}")
    return int(value)


def check_probability(name: str, value: object) -> None:
    """Raise :class:`InputError` unless ``value`` is a real number (not a
    ``bool``) in ``[0, 1]``; NaN and the infinities are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    if not (0.0 <= value <= 1.0):
        raise InputError(f"{name} must lie in [0, 1], got {value}")


def rng_for(seed: int, *salt: int) -> np.random.Generator:
    """Derive an independent, reproducible generator from a seed and salt path.

    Args:
        seed: Base 64-bit seed.
        salt: Optional non-negative integers identifying the consumer; distinct
            salt paths yield statistically independent streams.

    Returns:
        A ``numpy`` generator that depends only on ``(seed, *salt)``.

    Raises:
        InputError: If the seed or a salt is not an integer or is negative.
    """
    seed, *salt = check_ints("a seed or salt", (seed, *salt))
    if seed < 0 or any(s < 0 for s in salt):
        raise InputError(f"seed and salt must be non-negative, got {(seed, *salt)}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(salt)))


#: Draws :func:`splitmix64` mixes one at a time before its first block.  A
#: block costs 8 to 11 us of numpy calls whatever its size, the cost of
#: about 20 scalar draws; most connector streams stop within 32 draws, and
#: a cover stream runs to hundreds.
_SCALAR_DRAWS = 32

#: Draws in :func:`splitmix64`'s first block; each next block doubles, up
#: to :data:`_BLOCK_CAP`, so a failing sparse search that draws for a long
#: time holds at most one list of that many ints.
_FIRST_BLOCK = 64
_BLOCK_CAP = 4096


def splitmix64(seed: int) -> Iterator[int]:
    """The SplitMix64 stream of 64-bit draws seeded by ``seed`` modulo 2^64
    (Steele, Lea and Flood 2014).

    Draw ``i`` (from 1) mixes ``seed + i * gamma`` modulo 2^64, so a run of
    draws is one vectorised mix.  The first :data:`_SCALAR_DRAWS` are mixed
    one at a time on Python ints, for the short streams; after them each
    block is mixed at once in wrapping ``uint64`` arithmetic and handed out
    from a list of Python ints.  Either way the stream is the same.
    """
    gamma, m64 = 0x9E3779B97F4A7C15, (1 << 64) - 1
    mul1, mul2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    state = seed & m64
    for _ in range(_SCALAR_DRAWS):
        state = state + gamma & m64
        z = (state ^ state >> 30) * mul1 & m64
        z = (z ^ z >> 27) * mul2 & m64
        yield z ^ z >> 31
    size = _FIRST_BLOCK
    while True:
        z = np.arange(1, size + 1, dtype=np.uint64)
        z *= gamma
        z += state
        z ^= z >> 30
        z *= mul1
        z ^= z >> 27
        z *= mul2
        z ^= z >> 31
        yield from z.tolist()
        state = state + size * gamma & m64
        size = min(2 * size, _BLOCK_CAP)


#: ``_BYTE_BITS[b]`` is the byte with only bit ``b`` set.
_BYTE_BITS = np.array([1 << b for b in range(8)], np.uint8)


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    Adjacency is held as one Python ``int`` bitset per vertex (the rows):
    bit ``v`` of ``rows[u]`` is set exactly when ``uv`` is an edge.  Each
    view serves one kind of work.  The rows serve picks: hot callers test
    candidates with row algebra (``rows[u] >> v & 1``, ``&`` of several
    rows against a pool mask) instead of per-pair lookups, and
    :meth:`is_subgraph_of` reads them, skipping each row two graphs share.
    :attr:`packed` serves bulk passes over a whole path: it holds the rows
    as bytes, and :meth:`has_edges` tests many pairs in one gather, with
    one flag per pair.
    :attr:`matrix`, unpacked from it, serves BLAS.  Both bulk views are
    built once, on first use, and cached; a generated graph holds its
    packed view from birth.  :attr:`degrees` is counted from the rows when
    the graph is built.  :meth:`neighbors` builds a fresh frozenset per
    call and is meant for tests and cold paths.  ``Graph(n, edges)``
    validates outside edges; derived graphs are built from the parent's
    rows without re-validating them.  Instances are safe to share across
    threads.
    """

    __slots__ = ("n", "_rows", "_degrees", "_edge_count", "_matrix", "_packed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        n = check_vertex_count("vertex count", n)
        rows = [0] * n
        if not isinstance(edges, Iterable):
            raise InputError(f"edges must be iterable, got {type(edges).__name__}")
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError) as exc:
                raise InputError(f"edge {edge!r} is not a vertex pair") from exc
            u, v = check_int("edge endpoint", u), check_int("edge endpoint", v)
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(tuple(rows))

    @classmethod
    def _from_rows(
        cls, rows: tuple[int, ...], packed: np.ndarray | None = None
    ) -> "Graph":
        """A graph on already symmetric, loop-free rows (not re-validated);
        ``packed``, if given, is those rows as :func:`packed_rows` lays
        them out, and becomes the graph's packed view."""
        g = cls.__new__(cls)
        g._set_rows(rows, packed)
        return g

    def _set_rows(
        self, rows: tuple[int, ...], packed: np.ndarray | None = None
    ) -> None:
        self.n = len(rows)
        self._rows = rows
        degrees = np.fromiter(map(int.bit_count, rows), np.intp, self.n)
        degrees.flags.writeable = False
        self._degrees = degrees
        self._edge_count = int(degrees.sum()) // 2
        self._matrix: np.ndarray | None = None
        if packed is not None:
            packed.flags.writeable = False
        self._packed = packed

    # -- basic views ------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._edge_count

    @property
    def degrees(self) -> np.ndarray:
        """The degree of every vertex, a read-only ``intp`` array counted
        once, when the graph is built."""
        return self._degrees

    @property
    def rows(self) -> tuple[int, ...]:
        """The adjacency bitsets, indexed by vertex (an immutable tuple)."""
        return self._rows

    def row(self, v: int) -> int:
        """The adjacency bitset of vertex ``v`` (checked)."""
        return self._rows[self.check_vertex(v)]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as lexicographically sorted ``(u, v)`` pairs with ``u < v``."""
        return tuple(
            (u, u + 1 + v)
            for u, row in enumerate(self._rows)
            for v in bits(row >> (u + 1))
        )

    def has_edge(self, u: int, v: int) -> bool:
        return self._rows[self.check_vertex(u)] >> self.check_vertex(v) & 1 == 1

    def neighbors(self, v: int) -> frozenset[int]:
        """The neighbours of ``v`` as a new frozenset (derived, not cached)."""
        return frozenset(bits(self.row(v)))

    def degree(self, v: int) -> int:
        return self.row(v).bit_count()

    def check_vertex(self, v: int) -> int:
        """``v`` as a plain ``int``, or :class:`InputError` unless it is a
        vertex of this graph: an integer by :func:`check_int`'s rule, in
        ``0..n-1``."""
        if type(v) is not int:  # a plain int needs no call
            v = check_int("a vertex", v)
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return v

    def check_vertices(self, vs: Iterable[int]) -> tuple[int, ...]:
        """``vs`` read by :func:`check_ints`, or :class:`InputError` unless
        every entry is a vertex of this graph."""
        vs = check_ints("a vertex", vs)
        if vs:
            self.check_vertex(min(vs))
            self.check_vertex(max(vs))
        return vs

    def check_mask(self, mask: int, name: str = "vertex mask") -> None:
        """Raise :class:`InputError` unless ``mask`` is a bitset of vertices
        of this graph: a plain ``int``, non-negative, with no bit at or
        above ``n``.  ``name`` says what the mask is in the message."""
        if type(mask) is not int:
            kind = type(mask).__name__
            raise InputError(f"a {name} must be an int bitset, got {kind}")
        if mask < 0 or mask >> self.n:
            raise InputError(f"{name} holds bits outside 0..{self.n - 1}")

    @property
    def packed(self) -> np.ndarray:
        """The rows as a read-only ``n x ceil(n/8)`` ``uint8`` array in the
        :func:`packed_rows` layout, built on first use and cached."""
        if self._packed is None:
            self._packed = packed_rows(self._rows, self.n)
        return self._packed

    @property
    def matrix(self) -> np.ndarray:
        """Boolean adjacency matrix, unpacked from :attr:`packed` and cached."""
        if self._matrix is None:
            self._matrix = np.unpackbits(
                self.packed, axis=1, count=self.n, bitorder="little"
            ).view(bool)
        return self._matrix

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Whether ``(us[i], vs[i])`` is an edge, for each ``i``: one gather
        on :attr:`packed`.  ``us`` and ``vs`` are integer arrays of one
        shape whose entries are vertices; they are not checked.  The
        result is a ``uint8`` array of that shape, nonzero where the pair
        is an edge, so a caller takes ``.all()`` and reads a fault's place
        from the same array."""
        return self.packed[us, vs >> 3] & _BYTE_BITS[vs & 7]

    # -- derived graphs ---------------------------------------------------

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "Graph":
        """A copy of this graph with the given pairs deleted.

        Pairs that are not edges (missing, self or out-of-range pairs) are
        ignored.  Rows no pair touches are shared with this graph.

        Raises:
            InputError: If ``edges`` is not an iterable of integer pairs.
        """
        n = self.n
        drop: dict[int, int] = {}
        try:
            for u, v in edges:
                u, v = check_int("an edge end", u), check_int("an edge end", v)
                if 0 <= u < n and 0 <= v < n:
                    drop[u] = drop.get(u, 0) | 1 << v
                    drop[v] = drop.get(v, 0) | 1 << u
        except (TypeError, ValueError) as err:  # an InputError is a ValueError
            raise InputError(f"edges must be pairs of vertices: {err}") from None
        rows = (row & ~drop[u] if u in drop else row for u, row in enumerate(self._rows))
        return Graph._from_rows(tuple(rows))

    def remove_edges_within(self, vs: Iterable[int]) -> "Graph":
        """A copy of this graph with every edge inside ``vs`` deleted.

        Rows outside ``vs`` are shared with this graph; rows inside are
        ANDed with the complement of ``vs``.

        Raises:
            InputError: If an entry of ``vs`` is not a vertex.
        """
        vs = self.check_vertices(vs)
        outside = ~mask_of(vs)
        rows = list(self._rows)
        for u in vs:
            rows[u] &= outside
        return Graph._from_rows(tuple(rows))

    def remove_marked_edges(self, marked: np.ndarray) -> "Graph":
        """A copy of this graph without the pairs marked in ``marked``.

        ``marked`` is a boolean ``n x n`` matrix whose entry ``(u, v)``
        marks the pair ``uv``, as :meth:`remove_edges` reads it.  Each row
        of it ORed with its transpose is packed into one bitset; rows no
        pair touches are shared with this graph.
        """
        if getattr(marked, "shape", None) != (self.n, self.n) or marked.dtype != bool:
            raise InputError(f"marked must be a boolean {self.n} x {self.n} array")
        packed = np.packbits(marked | marked.T, axis=1, bitorder="little")
        rows = []
        for row, drop in zip(self._rows, packed):
            gone = int.from_bytes(drop.tobytes(), "little")
            rows.append(row & ~gone if gone else row)
        return Graph._from_rows(tuple(rows))

    def is_subgraph_of(self, other: "Graph") -> tuple[bool, tuple[int, int] | None]:
        """Whether every edge of this graph is an edge of ``other``, read off
        the rows; rows shared with ``other``, as every row an edge deletion
        left alone is, are skipped.

        Returns:
            ``(True, None)`` or ``(False, offending_edge)``, where the
            offending edge is the first one in :meth:`edges` order.  Rows are
            symmetric, so in the first row ``u`` that is not a subset every
            extra neighbour is larger than ``u``.

        Raises:
            InputError: If ``other`` is not a graph on as many vertices.
        """
        check_graph(other, "other")
        if self.n != other.n:
            raise InputError(
                f"a graph on {self.n} vertices is no subgraph of one on {other.n}"
            )
        changed = map(operator.is_not, self._rows, other._rows)
        for u in itertools.compress(itertools.count(), changed):
            row = self._rows[u] & ~other._rows[u]
            if row:
                return False, (u, (row & -row).bit_length() - 1)
        return True, None

    # -- helpers ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count})"


#: Most set bits :func:`bits` lists with a lowest-bit loop.  Both that loop
#: (per bit) and the numpy unpacking (per call) cost time linear in the
#: mask's width, so the crossover, about 24 bits, holds at every width.
_SMALL_MASK_BITS = 24


def bits(mask: int) -> list[int]:
    """The set bits of a non-negative ``mask``, in ascending order.  Only
    library code calls it, with plain ints, so a ``bool`` is read as one."""
    if mask < 0:
        raise InputError(f"a vertex mask must be non-negative, got {mask}")
    if mask.bit_count() <= _SMALL_MASK_BITS:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def pick_bit(mask: int, draw: int) -> int:
    """The lowest set bit of a positive ``mask`` at or above the offset
    ``draw % mask.bit_length()``, found by one shift; the top bit is set, so
    there is one.  Of any ``mask.bit_length()`` consecutive draws,
    ``v - prev(v)`` pick the set bit ``v`` (``prev(v)`` is the next lower
    set bit, -1 below the lowest), so the pick is not uniform.

    Raises:
        InputError: If ``mask`` is not positive.
    """
    if mask <= 0:
        raise InputError(f"a pick needs a positive vertex mask, got {mask}")
    r = draw % mask.bit_length()
    above = mask >> r
    return r + (above & -above).bit_length() - 1


def packed_rows(rows: Sequence[int], n: int) -> np.ndarray:
    """Row bitsets of an ``n``-vertex graph as a ``len(rows) x ceil(n/8)``
    ``uint8`` array: bit ``v`` of a row is bit ``v % 8`` of byte ``v // 8``.

    This is the layout of :attr:`Graph.packed`, the one caller; every
    other reader gathers the rows it needs from that cached view.
    """
    width = (n + 7) // 8
    return np.frombuffer(
        b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8
    ).reshape(len(rows), width)


def vertex_ids(seq: Sequence[int] | np.ndarray) -> np.ndarray | None:
    """The entries of a tuple or list as an ``int64`` array, for bulk
    passes; or ``None`` when ``seq`` is of another kind or an entry is not
    an integer (Python or numpy, not ``bool``) that fits in 64 bits.  A
    bool reads as 0 or 1, so only the places that read so are tested for
    one.  A one-dimensional ``int64`` array is returned as it is, so a pass
    can hand its array on to the next; an array of another kind gives
    ``None``.  Entries are not range-checked: the caller compares the
    array with its graph."""
    if type(seq) is np.ndarray:
        return seq if seq.dtype == np.int64 and seq.ndim == 1 else None
    if type(seq) is not tuple and type(seq) is not list:
        return None  # a bytes initializer would be read as machine values
    try:
        ids = np.frombuffer(array.array("q", seq), np.int64)
    except (TypeError, OverflowError):
        return None
    for i in np.flatnonzero(ids <= 1).tolist():
        if type(seq[i]) is bool:
            return None
    return ids


#: Places :func:`mask_of` builds each bit up by, shifting the mask down at
#: the end: a plain int still costs one shift and one OR, and ``2^64``, the
#: bit it shifts, fits no numpy integer, so a numpy shift raises
#: OverflowError instead of wrapping at 64 bits.
_MASK_OFFSET = 64
_MASK_ONE = 1 << _MASK_OFFSET


def mask_of(vs: Iterable[int]) -> int:
    """The bitset with bit ``v`` set for every ``v`` in ``vs``; an entry
    that does not shift as a plain int is read by :func:`check_ints`.  Only
    library code calls it, with plain ints, so no entry's type is tested
    and a ``bool`` is read as an int.

    Raises:
        InputError: If ``vs`` is not iterable or an entry is not a
            non-negative integer small enough to shift by.
    """
    # A shift too large to allocate raises MemoryError, and a larger one
    # OverflowError.
    mask, one, v = 0, _MASK_ONE, vs
    try:
        for v in vs:
            mask |= one << v
    except (TypeError, ValueError, OverflowError, MemoryError):
        if type(v) is int:
            message = f"vertices must be non-negative integers, got {v!r}"
            raise InputError(message) from None
        # The rest is read as ints: an iterator resumes after v, and a
        # sequence starts over, which sets no new bit.
        rest = vs if v is vs else itertools.chain((v,), vs)
        mask |= mask_of(check_ints("a vertex", rest)) << _MASK_OFFSET
    return mask >> _MASK_OFFSET


def complete_graph(n: int) -> Graph:
    """The complete graph K_n."""
    n = check_vertex_count("vertex count", n)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# -- seeded generation ----------------------------------------------------

#: Most uniforms :func:`gnp_generate` draws at once (64 KiB of float64s).
_GNP_DRAW_CAP = 1 << 13

#: Rows :func:`gnp_generate` fills per block, a whole number of bytes of
#: rows (a multiple of 8).
_GNP_BLOCK_ROWS = 64


def gnp_generate(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph G(n, p) from a deterministic seeded stream.

    Each unordered pair is included independently with probability ``p``; the
    same ``(n, p, seed)`` always reproduces the identical graph.  The rows
    are generated as one packed array, ``n * ceil(n/8)`` bytes, which the
    graph keeps as its :attr:`~Graph.packed` view, so no bulk pass builds
    it again.  Memory beyond the rows and that array is one more packed
    copy while the array is handed from numpy to bytes, and one block's
    work, about ``4 * 64 * n`` bytes plus 64 KiB of uniforms: O(n**2 / 8)
    in all, not a byte per pair (G(5000, .5) peaks at 6.6 MB, 3.5 MB of
    them the rows).

    Args:
        n: Vertex count, an integer in ``0..sys.maxsize``.
        p: Edge probability, a real number in ``[0, 1]``.
        seed: Stream seed, a non-negative integer.

    Raises:
        InputError: If an argument is not of its kind or lies out of range.
    """
    n = check_vertex_count("n", n)
    check_probability("p", p)
    packed = _gnp_packed(n, float(p), rng_for(seed, 0))
    data = packed.tobytes()
    width = (n + 7) // 8
    # Slicing one bytes object is about twice as fast as reading numpy rows.
    rows = tuple(
        int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width or 1)
    )
    return Graph._from_rows(rows, packed)


def _gnp_packed(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """The rows of G(n, p) as :func:`packed_rows` lays them out, generated
    one block of :data:`_GNP_BLOCK_ROWS` rows at a time.

    Vertex u draws n - 1 - u uniforms for the pairs (u, u+1..n-1), in
    vertex order; that draw order fixes which graph a seed gives.  The
    uniform stream does not depend on how it is split into ``rng.random``
    calls, so a block draws its rows' uniforms in runs of at most
    :data:`_GNP_DRAW_CAP` and the boolean mask assignment lays them out on
    the block's upper triangle in that row-major order.  A block starts on
    a whole byte of columns, so its own rows take the packed block, and
    every later row takes the packed contiguous transpose in the block's
    byte columns: the pair uv lands in both rows, each bit once.
    """
    width = (n + 7) // 8
    packed = np.zeros((n, width), np.uint8)
    rows = min(_GNP_BLOCK_ROWS, n)
    cols = np.arange(n)
    # Row i of a block starting at column u0 holds pair (u0 + i, u0 + c)
    # at column c: its pairs are the columns above i.  Columns at or below
    # i are never written, so the buffer's lower part stays clear.
    upper = cols > cols[:rows, None]
    block = np.zeros((rows, n), bool)
    draws = np.empty(rows * n, bool)
    uniforms = np.empty(min(_GNP_DRAW_CAP, rows * n))
    u0 = 0
    while u0 < n - 1:
        size, w = min(rows, n - u0), n - u0
        count = size * w - size * (size + 1) // 2
        for at in range(0, count, _GNP_DRAW_CAP):
            k = min(_GNP_DRAW_CAP, count - at)
            rng.random(out=uniforms[:k])
            np.less(uniforms[:k], p, out=draws[at : at + k])
        view = block[:size, :w]
        view[upper[:size, :w]] = draws[:count]
        b0 = u0 // 8
        packed[u0 : u0 + size, b0:] = np.packbits(view, axis=1, bitorder="little")
        packed[u0:, b0 : b0 + (size + 7) // 8] |= np.packbits(
            np.ascontiguousarray(view.T), axis=1, bitorder="little"
        )
        u0 += size
    return packed


# -- statistics ------------------------------------------------------------


def edges_within(g: Graph, s: int) -> int:
    """Number of edges with both endpoints in the bitset ``s`` (checked by
    :meth:`Graph.check_mask`)."""
    g.check_mask(s)
    rows = g.rows
    return sum((rows[u] & s).bit_count() for u in bits(s)) // 2


def _product(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b`` of two float32 0/1 matrices, written into ``out`` when it is
    given; with :func:`_row_dots`, one of the package's two matrix kernels.

    Every entry of the result counts the ones two rows share, so it is an
    integer of at most the inner dimension, which is at most ``n``.  Float32
    holds every integer up to 2^24 exactly, so every partial sum and the
    result are exact for any graph whose matrix fits in memory (2^24
    vertices would need a 256 TiB matrix).  numpy sends ``a @ a.T`` of one
    buffer to BLAS ``ssyrk``, which computes one triangle and mirrors it,
    also when the result goes to ``out``.
    """
    return np.matmul(a, b, out=out)


#: Float32 holds every integer up to this one exactly.
_FLOAT32_EXACT = 1 << 24


def _row_dots(sq: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``(sq * a).sum(axis=1)`` by ``np.vecdot``, for float32 ``n x n``
    matrices of integers from 0 to ``n``, ``a`` a 0/1 adjacency.

    A row has ``n`` terms of at most ``n``, so every partial sum, in any
    order, is an integer below ``n^2``: exact in float32 while
    ``n^2 <= 2^24`` (n <= 4096).  A wider graph sums float32 dots of
    ``floor(2^24 / n)`` columns each in float64, exact below 2^53.
    """
    n = max(len(a), 1)
    width = _FLOAT32_EXACT // n
    cols = [slice(at, at + width) for at in range(0, n, width)]
    dots = [np.vecdot(sq[:, c], a[:, c]) for c in cols]
    return dots[0] if len(dots) == 1 else np.sum(dots, axis=0, dtype=np.float64)


def _square(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The float32 adjacency ``A`` of ``g`` and ``A·A``, every entry an exact
    integer (see :func:`_product`): entry ``(u, v)`` of the square counts
    the common neighbours of ``u`` and ``v``, the triangles on an edge.

    The matrix is symmetric, so ``A·A = A·Aᵀ``, the symmetric product.

    The two are the halves of one ``(2, n, n)`` float32 block, so neither
    is freed alone.  glibc serves the first such block by ``mmap``, and
    freeing it raises its mmap threshold to the block's ``8 n^2`` bytes
    and its trim threshold to twice that, above everything a seed of
    :func:`~squareham.adversary.resilience_experiment` holds at once
    (about ``13 n^2`` bytes).  So later blocks come from the heap, which
    keeps its pages mapped from one seed to the next; two ``4 n^2``
    arrays would leave the threshold below the seed's heap, which is then
    trimmed at the end of every seed and faulted in again by the next.
    glibc caps the mmap threshold at 32 MiB, so this holds up to
    n = 2048.  A threaded OpenBLAS mallocs a job buffer of about 512 KiB
    per product, which tips a seed at n = 400 over the threshold.
    """
    block = np.empty((2, g.n, g.n), np.float32)
    a, sq = block
    np.copyto(a, g.matrix)
    _product(a, a.T, out=sq)
    return a, sq


def _square_less_within(
    g: Graph, vs: Iterable[int], a: np.ndarray, sq: np.ndarray
) -> None:
    """Turn ``a, sq = _square(g)`` in place into the pair of ``g`` less the
    edges inside ``vs`` (:meth:`Graph.remove_edges_within`).

    Deleting the ``vs x vs`` block ``A11`` of ``A`` changes only the rows
    and columns of ``vs`` of ``A·A``: row ``u`` of ``vs`` loses
    ``A11[u]·[A11 A12]``, the common neighbours inside ``vs``, and the
    rest follows by symmetry.  The correction is one thin product, exact
    by the argument of :func:`_product`, and each difference is an exact
    integer between 0 and ``n``.  One gather of the rows of ``vs`` serves
    the product and clearing ``A11``.

    Raises:
        InputError: If an entry of ``vs`` is not a vertex.
    """
    vs = g.check_vertices(vs)
    idx = np.unique(np.fromiter(vs, dtype=np.intp, count=len(vs)))
    rows = a[idx]
    cut = _product(rows[:, idx], rows)
    rows[:, idx] = 0
    a[idx] = rows
    del rows  # so that at most two |vs| x n arrays are live at once
    fixed = sq[idx]
    fixed -= cut
    sq[idx] = fixed
    sq[:, idx] = fixed.T


def triangle_profile(g: Graph) -> np.ndarray:
    """Per-vertex triangle counts, computed in bulk.

    Row ``v`` of the exact ``A·A`` of :func:`_square` dotted with row ``v``
    of ``A`` counts each triangle at ``v`` twice (:func:`_row_dots`).

    Returns:
        An ``int64`` array ``t`` with ``t[v]`` the number of triangles at ``v``;
        ``t.sum()`` equals three times the total triangle count.
    """
    return _triangles(*_square(g))


def _triangles(a: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """:func:`triangle_profile` of the graph with float32 adjacency ``a``
    from its square ``sq``."""
    return _row_dots(sq, a).astype(np.int64) // 2


# -- family membership -----------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the dense-subgraph family: degree and codegree floors.

    Membership requires every vertex to keep degree at least ``(2/3 + alpha)np``
    and every edge to lie on at least ``alpha n p^2`` triangles, where ``n``
    is the vertex count of the graph checked.
    """

    alpha: float
    p: float

    def __post_init__(self) -> None:
        check_probability("p", self.p)
        if self.p == 0:
            raise InputError(f"p must be positive, got {self.p}")
        a = self.alpha
        if isinstance(a, bool) or not isinstance(a, numbers.Real) or not 0 < a < np.inf:
            raise InputError(f"alpha must be a finite positive real, got {a!r}")


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a family-membership check with worst witnesses."""

    ok: bool
    degree_threshold: float
    min_degree: int
    min_degree_vertex: int | None
    codegree_threshold: float
    min_codegree: int | None
    min_codegree_edge: tuple[int, int] | None


def check_family_membership(
    gamma: Graph, g: Graph, params: FamilyParams
) -> MembershipReport:
    """Check the degree/codegree floors of the dense-subgraph family.

    The degrees are :attr:`Graph.degrees`, and the codegrees of the edges
    are read off :func:`_square`, taken only when ``g`` has an edge.

    Args:
        gamma: Host graph.
        g: Candidate spanning subgraph of ``gamma`` (checked).
        params: Degree floor ``(2/3 + alpha)np`` and codegree floor
            ``alpha n p^2``, with ``n`` the vertex count of ``g``.

    Returns:
        A report carrying the minimizing vertex and edge.

    Raises:
        InputError: If ``g`` is not a spanning subgraph of ``gamma``.
    """
    check_graph(gamma, "gamma")
    check_graph(g)
    if not isinstance(params, FamilyParams):
        raise InputError(f"params must be FamilyParams, got {type(params).__name__}")
    ok_sub, offending = g.is_subgraph_of(gamma)
    if not ok_sub:
        raise InputError(f"edge {offending} of the subgraph is not a host edge")
    deg_thr = (2.0 / 3.0 + params.alpha) * g.n * params.p
    codeg_thr = params.alpha * g.n * params.p**2

    min_deg_v = int(np.argmin(g.degrees)) if g.n else None
    min_deg = int(g.degrees[min_deg_v]) if g.n else 0

    # First minimum over the upper triangle in row-major order, which is
    # the order of g.edges().  The square's adjacency half is not read
    # again, so it holds the codegrees on the edges and inf elsewhere.
    min_codeg, min_codeg_e = None, None
    if g.edge_count:
        on_edge, sq = _square(g)
        on_edge.fill(np.inf)
        np.copyto(on_edge, sq, where=np.triu(g.matrix, 1))
        flat = int(np.argmin(on_edge))
        min_codeg, min_codeg_e = int(on_edge.flat[flat]), divmod(flat, g.n)

    ok = min_deg >= deg_thr - DEFAULT_SLACK and (
        min_codeg is None or min_codeg >= codeg_thr - DEFAULT_SLACK
    )
    return MembershipReport(
        ok=ok,
        degree_threshold=deg_thr,
        min_degree=min_deg,
        min_degree_vertex=min_deg_v,
        codegree_threshold=codeg_thr,
        min_codegree=min_codeg,
        min_codegree_edge=min_codeg_e,
    )
