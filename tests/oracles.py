"""Earlier versions of library functions, kept as references.

The list-based versions are the functions as they were before their vertex
sets became ``int`` bitsets; the bitset versions must match them draw for
draw.  The looped checks are the checks as they were before each became one
pass over a precomputed table or a bulk pass over the packed rows, whose
per-pair result names the first fault; the current ones must return the
same result, the same first fault and the same message.  The looped least
codegree is the family check's codegree minimum counted edge by edge off
the rows, with no matrix; the check must name the same count and edge.
The scalar SplitMix64 is the stream as it was before it was computed in
numpy blocks; the current one must give the same draws.
"""

from squareham.absorber import Absorber, AbsorberVerification
from squareham.gadgets import ValidationResult
from squareham.graphcore import Graph
from squareham.hamiltonian import Certificate, CertificateCheck


def scalar_splitmix64(seed: int):
    """SplitMix64 (Steele, Lea and Flood 2014), one draw at a time on
    Python ints: advance the state by gamma, then mix it."""
    m64 = (1 << 64) - 1
    state = seed & m64
    while True:
        state = state + 0x9E3779B97F4A7C15 & m64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 & m64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & m64
        yield z ^ z >> 31


def looped_min_codegree(g: Graph) -> tuple[int | None, tuple[int, int] | None]:
    """The least common-neighbour count of an edge and the first edge, in
    ``g.edges()`` order, that has it; ``(None, None)`` with no edge."""
    rows, least, first = g.rows, None, None
    for u, v in g.edges():
        shared = (rows[u] & rows[v]).bit_count()
        if least is None or shared < least:
            least, first = shared, (u, v)
    return least, first


def square_path_edge_oracle(length: int) -> set[tuple[int, int]]:
    """All label pairs at distance one or two along a path."""
    return {
        (i, j)
        for i in range(length)
        for j in range(i + 1, min(i + 3, length))
    }


def square_path_pairs(seq) -> tuple[tuple[int, int], ...]:
    """All pairs of sequence entries at positional distance one or two,
    each as ``(smaller, larger)``, position by position."""
    out = []
    for i in range(len(seq)):
        for j in (i + 1, i + 2):
            if j < len(seq):
                u, v = seq[i], seq[j]
                out.append((u, v) if u < v else (v, u))
    return tuple(out)


def looped_is_square_path(g: Graph, seq) -> ValidationResult:
    """``is_square_path`` by ``square_path_pairs``, pair by pair, for a
    sequence of integers: the range check, then repeats, then each pair."""
    for v in seq:
        g.check_vertex(v)
    if len(set(seq)) != len(seq):
        return ValidationResult(False, "sequence repeats a vertex")
    for u, v in square_path_pairs(seq):
        if not g.has_edge(u, v):
            return ValidationResult(False, f"missing edge ({u}, {v})")
    return ValidationResult(True, None)


def looped_verify_certificate(g: Graph, cert: Certificate) -> CertificateCheck:
    """``verify_certificate`` for a permutation of ``0..n-1``: positions in
    order, distance 1 before distance 2 at each."""
    order, n = cert.order, g.n
    for i in range(n):
        for d in (1, 2):
            u, v = order[i], order[(i + d) % n]
            if not g.has_edge(u, v):
                return CertificateCheck(False, i, d, (min(u, v), max(u, v)))
    return CertificateCheck(True, None, None, None)


def looped_validate_embedding(
    g: Graph, path, connect_from, connect_to
) -> ValidationResult:
    """``validate_embedding`` one check after another, for a sequence of
    integers: the range check, repeats, then each close pair, then each
    port."""
    for v in path:
        g.check_vertex(v)
    if len(set(path)) != len(path):
        return ValidationResult(False, "sequence repeats a vertex")
    for u, v in square_path_pairs(path):
        if not g.has_edge(u, v):
            return ValidationResult(False, f"missing edge ({u}, {v})")
    if tuple(path[:2]) != tuple(connect_from):
        return ValidationResult(
            False, f"entry port is {tuple(path[:2])}, expected {tuple(connect_from)}"
        )
    if tuple(path[-2:]) != tuple(connect_to):
        return ValidationResult(
            False, f"exit port is {tuple(path[-2:])}, expected {tuple(connect_to)}"
        )
    return ValidationResult(True, None)


def looped_splice(g: Graph, paths: list[list[int]], q: int) -> bool:
    """``_insert_into_paths`` as a loop over every position of every path."""
    row = g.row(q)
    for path in paths:
        for i in range(1, len(path)):
            anchors = [path[i - 1], path[i]]
            if i >= 2:
                anchors.append(path[i - 2])
            if i + 1 < len(path):
                anchors.append(path[i + 1])
            if all(row >> v & 1 for v in anchors):
                path.insert(i, q)
                return True
    return False


def looped_verify_absorber(g: Graph, a: Absorber) -> AbsorberVerification:
    """``verify_absorber`` absorbee by absorbee: the walk by
    ``looped_is_square_path``, then each absorbee's place, spacing and
    bridge edges, each with ``Graph.has_edge``."""
    walk, xs = a.walk, a.absorbees
    g.check_vertices(walk)
    g.check_vertices(xs)
    check = looped_is_square_path(g, walk)
    if not check.ok:
        return AbsorberVerification(False, 1, {"subset": (), "reason": check.reason})
    place = {v: i for i, v in enumerate(walk)}
    last = None
    for k, x in enumerate(xs):
        i = place.get(x)
        if i is None:
            fault = "absorbee not on the walk"
        elif not 2 <= i <= len(walk) - 3:
            fault = "absorbee on an end pair of the walk"
        elif last is not None and i <= last:
            fault = "absorbee out of walk order or repeated"
        elif last is not None and i < last + 3:
            fault = "absorbee fewer than 3 places after the one before"
        elif not g.has_edge(walk[i - 2], walk[i + 1]):
            fault = f"missing bridge edge ({walk[i - 2]}, {walk[i + 1]})"
        elif not g.has_edge(walk[i - 1], walk[i + 2]):
            fault = f"missing bridge edge ({walk[i - 1]}, {walk[i + 2]})"
        else:
            last = i
            continue
        return AbsorberVerification(False, k + 2, {"subset": (x,), "reason": fault})
    return AbsorberVerification(True, len(xs) + 1, None)
