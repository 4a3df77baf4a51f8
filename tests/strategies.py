"""Shared hypothesis strategies for the test suite."""

from hypothesis.strategies import (
    DataObject,
    SearchStrategy,
    builds,
    floats,
    integers,
    just,
    lists,
    one_of,
    sampled_from,
)

from squareham import Graph, gnp_generate


def seeds() -> SearchStrategy[int]:
    return integers(min_value=0, max_value=2**31 - 1)


def gnp_graphs(
    min_n: int = 1, max_n: int = 12, min_p: float = 0.0, max_p: float = 1.0
) -> SearchStrategy[Graph]:
    """Seeded sparse-to-dense random graphs of bounded order."""
    return builds(
        gnp_generate,
        integers(min_value=min_n, max_value=max_n),
        floats(min_value=min_p, max_value=max_p, allow_nan=False),
        seeds(),
    )


def host_holding(draw: DataObject, n: int, pairs, cut_most: int = 3) -> Graph:
    """A random host on ``n`` vertices, sometimes complete, that holds every
    pair of distinct vertices in ``pairs`` but up to ``cut_most`` of them,
    drawn to be cut."""
    pairs = [(u, v) for u, v in pairs if u != v]
    p = draw.draw(one_of(floats(0, 0.3), just(1.0)))
    g = Graph(n, [*gnp_generate(n, p, draw.draw(seeds())).edges(), *pairs])
    if not pairs:
        return g
    return g.remove_edges(draw.draw(lists(sampled_from(pairs), max_size=cut_most)))
