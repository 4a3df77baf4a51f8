"""The input contract of the checks the bulk passes serve.

Malformed input of any kind raises :class:`InputError` and nothing else,
and numpy integers give the answer their plain-int values give.
"""

import numpy as np
from hypothesis import given
from hypothesis.strategies import (
    SearchStrategy,
    booleans,
    builds,
    data,
    floats,
    integers,
    just,
    none,
    one_of,
    sampled_from,
    text,
)

from squareham import (
    Absorber,
    Certificate,
    InputError,
    gnp_generate,
    is_square_path,
    validate_embedding,
    verify_absorber,
    verify_certificate,
)
from squareham.gadgets import BULK_PATH_LEN
from squareham.graphcore import mask_of, rng_for

from strategies import seeds

N = 200
HOST = gnp_generate(N, 0.95, 1)
# Lengths on both sides of the bulk passes.
LENGTHS = [5, 8, 90, BULK_PATH_LEN, N]


def malformed() -> SearchStrategy:
    """Floats, NaN, bools, strings, None, ints beyond 64 bits or below 0,
    and objects of no number type."""
    return one_of(
        floats(allow_nan=True, allow_infinity=True),
        just(float("nan")),
        booleans(),
        text(max_size=4),
        none(),
        integers(min_value=2**64),
        integers(max_value=-1),
        builds(object),
    )


def _only_input_error(call) -> None:
    try:
        call()
    except InputError:
        pass


@given(data())
def test_the_checks_raise_only_input_error_on_malformed_input(draw) -> None:
    bad = draw.draw(malformed())
    k = draw.draw(sampled_from(LENGTHS))
    path = list(range(k))
    j = draw.draw(integers(0, k - 1))
    spoiled = path[:j] + [bad] + path[j + 1 :]
    arg = draw.draw(sampled_from([bad, spoiled, tuple(spoiled), [bad] * 3]))
    ends = ((0, 1), (k - 2, k - 1))
    calls = [
        lambda: is_square_path(HOST, arg),
        lambda: validate_embedding(HOST, arg, *ends),
        lambda: validate_embedding(HOST, path, arg, ends[1]),
        lambda: validate_embedding(HOST, path, ends[0], arg),
        lambda: validate_embedding(HOST, path, (0, bad), ends[1]),
        lambda: verify_certificate(HOST, arg),
        lambda: verify_certificate(HOST, Certificate(arg)),
        lambda: verify_absorber(HOST, arg),
        lambda: verify_absorber(HOST, Absorber(arg, (2,))),
        lambda: verify_absorber(HOST, Absorber(tuple(path), arg)),
        lambda: mask_of(arg),
    ]
    for call in calls:
        _only_input_error(call)


@given(data())
def test_numpy_integers_give_the_plain_int_answer(draw) -> None:
    # Hosts a little sparser than complete, so some checks fail and their
    # reasons are compared too.
    g = gnp_generate(N, draw.draw(floats(0.85, 1)), draw.draw(seeds()))
    kind = draw.draw(sampled_from([np.int64, np.int32, np.uint16, np.uint64]))
    order = [int(v) for v in rng_for(draw.draw(seeds()), 10).permutation(N)]
    k = draw.draw(sampled_from(LENGTHS))
    path = order[:k]
    ends = [
        draw.draw(sampled_from([tuple(path[:2]), tuple(path[-2:]), tuple(path[1::-1])]))
        for _ in range(2)
    ]
    xs = path[2 : k - 2 : draw.draw(integers(3, 9))]

    def numpy(seq):
        return tuple(kind(v) for v in seq)

    assert is_square_path(g, numpy(path)) == is_square_path(g, path)
    assert is_square_path(g, np.array(path, kind)) == is_square_path(g, path)
    assert validate_embedding(g, numpy(path), *map(numpy, ends)) == validate_embedding(
        g, path, *ends
    )
    assert verify_certificate(g, Certificate(numpy(order))) == verify_certificate(
        g, Certificate(tuple(order))
    )
    assert verify_absorber(g, Absorber(numpy(path), numpy(xs))) == verify_absorber(
        g, Absorber(tuple(path), tuple(xs))
    )
    assert mask_of(numpy(path)) == mask_of(path)
    assert mask_of(iter(numpy(path))) == mask_of(path)
