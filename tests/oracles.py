"""Vertex-list versions of functions that now take and return bitsets.

Each is the library function as it was before its vertex sets became
``int`` bitsets, kept as the reference that the bitset version must match
draw for draw.
"""

import numpy as np

from squareham.graphcore import Graph, mask_of, rng_for
from squareham.hamiltonian import almost_spanning_square_path


def listed_random_partition(universe, sizes, seed) -> list[tuple[int, ...]]:
    """``random_partition`` on a vertex iterable: sorted class tuples."""
    pool = sorted(set(universe))
    rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed, 1)
    perm = [pool[i] for i in rng.permutation(len(pool)).tolist()]
    classes = []
    at = 0
    for s in sizes:
        classes.append(tuple(sorted(perm[at : at + s])))
        at += s
    return classes


def listed_cover(
    g: Graph, u_prime, eps: float, seed: int, class_floor: int, budget: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The paths and leftover of ``cover_with_square_paths`` on a vertex
    iterable, carrying sorted tuples from class to class."""
    u = sorted(set(u_prime))
    msize = len(u)
    if msize == 0:
        return (), ()
    q = 1
    while msize // 2 ** (q + 1) >= class_floor:
        q += 1
    sizes = [msize // 2**i for i in range(1, q + 1)]
    sizes[-1] += msize - sum(sizes)
    carry: tuple[int, ...] = ()
    paths = []
    for i, cls in enumerate(listed_random_partition(u, sizes, rng_for(seed, 43))):
        pool = sorted(set(carry) | set(cls))
        res = almost_spanning_square_path(
            g, eps=eps, seed=seed * 101 + i, budget=budget, verts=mask_of(pool)
        )
        if len(res.path) >= 2:
            paths.append(res.path)
            carry = tuple(sorted(set(pool) - set(res.path)))
        else:
            carry = tuple(pool)
    return tuple(paths), carry
