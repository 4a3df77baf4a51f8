"""The input contract: every argument is read by graphcore's one rule.

Malformed input of any kind raises :class:`InputError` and nothing else, a
``bool`` is never a vertex or a bitset, and numpy integers give the answer
their plain-int values give.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
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

import squareham
from squareham import (
    Absorber,
    AttackResult,
    Certificate,
    ConnectResult,
    FailureReport,
    FamilyParams,
    Graph,
    InfeasibilityWitness,
    InputError,
    PipelineConfig,
    RetentionProfile,
    absorb,
    brute_force_square_ham,
    build_single_absorbers,
    chain_absorbers,
    check_family_membership,
    complete_absorbers,
    complete_graph,
    connect_one,
    find_infeasibility_witness,
    find_square_ham,
    gnp_generate,
    hall_saturating_matching,
    is_square_path,
    k3_attack,
    max_triangle_packing,
    prune_triangle_poor_edges,
    resilience_experiment,
    rng_for,
    triangle_retention_profile,
    validate_embedding,
    verify_absorber,
    verify_certificate,
    verify_witness,
)
from squareham.cli import read_graph, run_command
from squareham.gadgets import BULK_PATH_LEN
from squareham.graphcore import mask_of
from squareham.hamiltonian import (
    build_absorber,
    cover_with_square_paths,
    match_leftover,
)

from strategies import seeds

N = 200
HOST = gnp_generate(N, 0.95, 1)
# Lengths on both sides of the bulk passes.
LENGTHS = [5, 8, 90, BULK_PATH_LEN, N]
# A host whose rows fit an int64, so a numpy vertex may shift in numpy.
SMALL_N = 63


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


def _only_input_error(call, strict: bool = False) -> None:
    """Run ``call``; it may return or raise :class:`InputError`, and must
    raise it when ``strict``."""
    try:
        call()
    except InputError:
        return
    assert not strict, "a malformed argument was accepted"


@given(data())
def test_the_checks_raise_only_input_error_on_malformed_input(draw) -> None:
    bad = draw.draw(malformed())
    k = draw.draw(sampled_from(LENGTHS))
    path = list(range(k))
    j = draw.draw(integers(0, k - 1))
    spoiled = path[:j] + [bad] + path[j + 1 :]
    arg = draw.draw(sampled_from([bad, spoiled, tuple(spoiled), [bad] * 3]))
    ends = ((0, 1), (k - 2, k - 1))
    # A bool is no vertex wherever it stands; mask_of, which only library
    # code calls, reads it as an int.
    strict = isinstance(bad, bool)
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
    ]
    for call in calls:
        _only_input_error(call, strict)
    _only_input_error(lambda: mask_of(arg))


@given(data())
def test_numpy_integers_give_the_plain_int_answer(draw) -> None:
    # Hosts a little sparser than complete, so some checks fail and their
    # reasons are compared too.
    n = draw.draw(sampled_from([N, SMALL_N]))
    g = gnp_generate(n, draw.draw(floats(0.85, 1)), draw.draw(seeds()))
    kind = draw.draw(sampled_from([np.int64, np.int32, np.uint16, np.uint64]))
    order = [int(v) for v in rng_for(draw.draw(seeds()), 10).permutation(n)]
    k = draw.draw(sampled_from([k for k in LENGTHS if k < n] + [n]))
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


def test_numpy_seeds_give_the_plain_int_answer() -> None:
    # Each seed is read as an int where it is checked; a numpy one once
    # overflowed in the SplitMix64 draws.
    everything = (1 << N) - 1
    plain = PipelineConfig(seed=3)
    for seed in (np.int64(3), np.uint32(3), np.int16(3)):
        config = PipelineConfig(seed=seed)
        assert config == plain and type(config.seed) is int
        assert find_square_ham(HOST, config=config) == find_square_ham(
            HOST, config=plain
        )
        covered = cover_with_square_paths(HOST, everything, seed)
        assert covered == cover_with_square_paths(HOST, everything, 3)
        units = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
        pool = everything & ~1023
        assert chain_absorbers(HOST, units, pool, seed) == chain_absorbers(
            HOST, units, pool, 3
        )
        assert connect_one(HOST, (0, 1), (5, 6), pool, 8, seed) == connect_one(
            HOST, (0, 1), (5, 6), pool, 8, 3
        )


G = gnp_generate(N, 0.9, 1)
WITNESS = InfeasibilityWitness("low-degree", (0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: G.has_edge(0.5, 1),
        lambda: G.has_edge(None, 1),
        lambda: G.has_edge(1, "a"),
        lambda: G.row(1.5),
        lambda: G.neighbors("a"),
        lambda: G.degree(None),
    ],
    ids=[
        "has_edge-float",
        "has_edge-None",
        "has_edge-str",
        "row-float",
        "neighbors-str",
        "degree-None",
    ],
)
def test_vertex_checks_raise_only_input_error(call) -> None:
    # Each once raised TypeError.
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: G.remove_edges([(0.5, 1)]),
        lambda: G.remove_edges([(0, None)]),
        lambda: G.remove_edges([(0, 1, 2)]),
        lambda: G.remove_edges(5),
        lambda: prune_triangle_poor_edges(G, "a"),
        lambda: prune_triangle_poor_edges(G, 1.5),
        lambda: prune_triangle_poor_edges(None, 3),
        lambda: find_square_ham(None),
        lambda: find_square_ham(G, gamma_host=5),
        lambda: find_square_ham(G, config=5),
        lambda: find_square_ham(G, config=None),
        lambda: verify_certificate(None, Certificate(tuple(range(N)))),
        lambda: verify_witness(None, WITNESS),
        lambda: verify_witness(G, None),
        lambda: cover_with_square_paths(None, 3, 0),
        lambda: k3_attack(None, 0.05, 1),
        lambda: connect_one(None, (0, 1), (2, 3), 0, 5, 0),
        lambda: is_square_path(None, [0, 1, 2]),
        lambda: validate_embedding(None, [0, 1, 2, 3], (0, 1), (2, 3)),
        lambda: verify_absorber(None, Absorber((0, 1, 2, 3, 4), (2,))),
        lambda: verify_absorber(G, None),
        lambda: chain_absorbers(None, [(0, 1, 2, 3, 4)], 0, 0),
        lambda: build_single_absorbers(None, 1, 2),
        lambda: match_leftover(None, 1, 2),
        lambda: build_absorber(None, 1, 0),
        lambda: triangle_retention_profile(None, G),
        lambda: triangle_retention_profile(G, None),
        lambda: max_triangle_packing(None),
        lambda: brute_force_square_ham(None),
        lambda: find_infeasibility_witness(None),
        lambda: hall_saturating_matching(None),
        lambda: absorb(None, 0),
        lambda: G.is_subgraph_of(None),
        lambda: G.remove_edges_within(None),
        lambda: G.remove_marked_edges(None),
    ],
    ids=[
        "remove_edges-float",
        "remove_edges-None",
        "remove_edges-triple",
        "remove_edges-int",
        "prune-str",
        "prune-float",
        "prune-graph-None",
        "find-graph-None",
        "find-gamma_host-int",
        "find-config-int",
        "find-config-None",
        "verify_certificate-graph-None",
        "verify_witness-graph-None",
        "verify_witness-witness-None",
        "cover-graph-None",
        "k3_attack-graph-None",
        "connect_one-graph-None",
        "is_square_path-graph-None",
        "validate_embedding-graph-None",
        "verify_absorber-graph-None",
        "verify_absorber-absorber-None",
        "chain_absorbers-graph-None",
        "build_single_absorbers-graph-None",
        "match_leftover-graph-None",
        "build_absorber-graph-None",
        "profile-before-None",
        "profile-after-None",
        "packing-graph-None",
        "brute_force-graph-None",
        "witness_search-graph-None",
        "hall-None",
        "absorb-absorber-None",
        "is_subgraph_of-None",
        "remove_edges_within-None",
        "remove_marked_edges-None",
    ],
)
def test_entry_checks_raise_only_input_error(call) -> None:
    # Each once raised TypeError or AttributeError; each graph argument is
    # read by graphcore.check_graph.
    with pytest.raises(InputError):
        call()


def test_removed_edges_read_numpy_integers_as_ints() -> None:
    # A numpy end once shifted as an int64, which overflows from bit 63.
    pairs = [(0, 1), (3, 150), (199, 64)]
    for kind in (np.int64, np.uint16):
        typed = [(kind(u), kind(v)) for u, v in pairs]
        assert G.remove_edges(typed) == G.remove_edges(pairs)
    assert G.remove_edges(pairs).edge_count < G.edge_count


def test_vertex_checks_read_numpy_integers_as_ints() -> None:
    for kind in (np.int64, np.int32, np.uint16, np.uint64):
        u, v = kind(0), kind(1)
        assert G.has_edge(u, v) == G.has_edge(0, 1)
        assert G.has_edge(kind(3), kind(150)) == G.has_edge(3, 150)
        assert G.row(u) == G.row(0)
        assert G.neighbors(v) == G.neighbors(1)
        assert G.degree(v) == G.degree(1)


def test_a_unit_that_is_no_star_core_is_rejected_with_input_error() -> None:
    # The audit of the chained absorber fails on the bad unit's own pairs;
    # the units are checked only then, so the pipeline pays nothing.
    g = complete_graph(12).remove_edges([(0, 2)])
    units = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
    with pytest.raises(InputError, match=r"unit \(0, 1, 2, 3, 4\)"):
        chain_absorbers(g, units, (1 << 12) - 1, 1)
    # Its bridge pair u1 v1 missing: the unit with x is a square path, the
    # one without it is not.
    g = complete_graph(12).remove_edges([(5, 8)])
    with pytest.raises(InputError, match=r"unit \(5, 6, 7, 8, 9\)"):
        chain_absorbers(g, units, (1 << 12) - 1, 1)
    absorber, fail = chain_absorbers(complete_graph(12), units, (1 << 12) - 1, 1)
    assert fail is None and verify_absorber(complete_graph(12), absorber).ok


K10 = complete_graph(10)
K_BULK = complete_graph(BULK_PATH_LEN + 2)
BULK_WALK = (0, True, *range(2, BULK_PATH_LEN + 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_square_path(K10, [True, 2, 3]),
        lambda: is_square_path(K10, [0, 2, 3, False]),
        lambda: is_square_path(K10, [True]),
        lambda: is_square_path(K_BULK, BULK_WALK),
        lambda: validate_embedding(K10, [0, 1, 2, 3], (False, 1), (2, 3)),
        lambda: verify_absorber(K10, Absorber((0, True, 2, 3, 4), (2,))),
        lambda: verify_absorber(K10, Absorber((0, 1, 2, 3, 4), (True,))),
        lambda: verify_absorber(K_BULK, Absorber(BULK_WALK, (4,))),
        lambda: chain_absorbers(K10, [(0, True, 2, 3, 4)], 0, 0),
        lambda: K10.has_edge(True, 2),
        lambda: K10.check_mask(True),
        lambda: K10.check_vertices([0, True, 2]),
        lambda: complete_absorbers(True, [(1, 2, 3, 4)]),
        lambda: absorb(Absorber((0, 1, 2, 3, 4), (2,)), True),
        lambda: K10.remove_edges_within([True, 5]),
        lambda: Certificate((True, 0, 2)),
        lambda: InfeasibilityWitness("low-degree", (True,)),
        lambda: connect_one(K10, (True, 2), (3, 4), 0, 5, 0),
        lambda: connect_one(K10, (0, 1), (2, 3), True, 5, 0),
        lambda: K10.remove_edges([(True, 5)]),
        lambda: max_triangle_packing(K10, (True,)),
    ],
    ids=[
        "is_square_path-first",
        "is_square_path-after-a-fault",
        "is_square_path-alone",
        "is_square_path-bulk",
        "validate_embedding-port",
        "verify_absorber-walk",
        "verify_absorber-absorbee",
        "verify_absorber-bulk-walk",
        "chain_absorbers-unit",
        "has_edge",
        "check_mask",
        "check_vertices",
        "complete_absorbers",
        "absorb",
        "remove_edges_within",
        "Certificate",
        "InfeasibilityWitness",
        "connect_one-port",
        "connect_one-reservoir",
        "remove_edges",
        "max_triangle_packing",
    ],
)
def test_a_bool_is_never_a_vertex_or_a_bitset(call) -> None:
    # The first eight once read True as vertex 1 or bitset 1.
    with pytest.raises(InputError):
        call()


# -- the whole public surface ------------------------------------------------

ALL10 = (1 << 10) - 1
UNIT_PAIR = [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
ABSORBER = Absorber((0, 1, 2, 3, 4), (2,))

#: Every public callable with one valid argument tuple, and the positions
#: that hold a bitset: a bitset is a plain int, so numpy is not read there.
SURFACE = {
    "Absorber": (Absorber, ((0, 1, 2, 3, 4), (2,)), ()),
    "AttackResult": (AttackResult, ((0,), (1,), K10, 0), ()),
    "Certificate": (Certificate, ((0, 1, 2),), ()),
    "ConnectResult": (ConnectResult, (True, (0, 1, 2, 3), None), ()),
    "FailureReport": (FailureReport, ("absorber", {"x": 1}, None), ()),
    "FamilyParams": (FamilyParams, (0.1, 0.5), ()),
    "Graph": (Graph, (10, [(0, 1), (2, 3)]), ()),
    "InfeasibilityWitness": (InfeasibilityWitness, ("low-degree", (0,)), ()),
    "InputError": (InputError, ("message",), ()),
    "PipelineConfig": (PipelineConfig, (3,), ()),
    "RetentionProfile": (RetentionProfile, ((1,), (1,), 1.0, 1.0) + (None,) * 4, ()),
    "absorb": (absorb, (ABSORBER, 0b100), (1,)),
    "brute_force_square_ham": (brute_force_square_ham, (K10,), ()),
    "build_single_absorbers": (build_single_absorbers, (K10, 1, ALL10 & ~1), (1, 2)),
    "chain_absorbers": (chain_absorbers, (K10, UNIT_PAIR, 0, 1), (2,)),
    "check_family_membership": (
        check_family_membership, (K10, K10, FamilyParams(0.1, 0.5)), ()
    ),
    "complete_absorbers": (complete_absorbers, (1, [(1, 2, 3, 4)]), (0,)),
    "complete_graph": (complete_graph, (5,), ()),
    "connect_one": (connect_one, (K10, (0, 1), (2, 3), ALL10 & ~15, 6, 1), (3,)),
    "find_infeasibility_witness": (find_infeasibility_witness, (K10,), ()),
    "find_square_ham": (find_square_ham, (K10, K10, PipelineConfig(1)), ()),
    "gnp_generate": (gnp_generate, (12, 0.5, 1), ()),
    "hall_saturating_matching": (hall_saturating_matching, ((0b01, 0b10),), (0,)),
    "is_square_path": (is_square_path, (K10, (0, 1, 2, 3)), ()),
    "k3_attack": (k3_attack, (K10, 0.05, 1), ()),
    "max_triangle_packing": (max_triangle_packing, (K10, (0,)), ()),
    "prune_triangle_poor_edges": (prune_triangle_poor_edges, (K10, 3), ()),
    # Only a malformed path is ever passed, so no file is read.
    "read_graph": (read_graph, ("graph.edges",), ()),
    "resilience_experiment": (resilience_experiment, (12, 0.5, 0.05, 1, 1), ()),
    "rng_for": (rng_for, (1, 2), ()),
    "triangle_retention_profile": (
        triangle_retention_profile, (K10, K10.remove_edges([(0, 1)]), 0.5, 0.05), ()
    ),
    "validate_embedding": (validate_embedding, (K10, (0, 1, 2, 3), (0, 1), (2, 3)), ()),
    "verify_absorber": (verify_absorber, (K10, ABSORBER), ()),
    "verify_certificate": (
        verify_certificate, (K10, Certificate(tuple(range(10)))), ()
    ),
    "verify_witness": (verify_witness, (K10, WITNESS), ()),
    # Public entry points below the package's exports.
    "build_absorber": (build_absorber, (K10, 1, 1), (1,)),
    "cover_with_square_paths": (cover_with_square_paths, (K10, ALL10, 1), (1,)),
    "match_leftover": (match_leftover, (K10, 1, 2), (1, 2)),
    **{
        f"Graph.{name}": (getattr(K10, name), args, bitsets)
        for name, args, bitsets in (
            ("row", (1,), ()),
            ("edges", (), ()),
            ("has_edge", (0, 1), ()),
            ("neighbors", (1,), ()),
            ("degree", (1,), ()),
            ("check_vertex", (1,), ()),
            ("check_vertices", ((1, 2),), ()),
            ("check_mask", (3, "mask"), (0,)),
            ("remove_edges", ([(0, 1)],), ()),
            ("remove_edges_within", ((1, 2),), ()),
            ("remove_marked_edges", (np.zeros((10, 10), bool),), ()),
            ("is_subgraph_of", (K10,), ()),
        )
    },
}

#: Graph.has_edges takes vertex arrays unchecked, by contract: it serves the
#: bulk passes, which have read their vertices already.
UNCHECKED = {"Graph.has_edges"}

#: A file path is well formed as a string, so a string names a missing file.
IO_ERRORS = {"read_graph": OSError}


def test_the_surface_table_holds_every_public_callable() -> None:
    exported = {
        name for name in squareham.__all__ if callable(getattr(squareham, name))
    }
    methods = {
        f"Graph.{name}"
        for name, member in vars(Graph).items()
        if not name.startswith("_") and callable(member)
    }
    assert exported | methods <= set(SURFACE) | UNCHECKED


def _numpy(value):
    """``value`` with every plain int, in tuples and lists too, as a numpy
    integer."""
    if type(value) is int:
        return np.int64(value)
    if isinstance(value, (tuple, list)):
        return type(value)(_numpy(v) for v in value)
    return value


def _answer(value):
    """A value to compare results by: a numpy generator by its state."""
    if isinstance(value, np.random.Generator):
        return value.bit_generator.state
    return value


@pytest.mark.parametrize("name", sorted(SURFACE))
def test_every_public_callable_reads_its_arguments_by_one_rule(name) -> None:
    fn, args, bitsets = SURFACE[name]
    allowed = (InputError, IO_ERRORS.get(name, InputError))
    if name not in IO_ERRORS:
        plain = _answer(fn(*args))
        for i, value in enumerate(args):
            if i not in bitsets and _numpy(value) is not value:
                typed = args[:i] + (_numpy(value),) + args[i + 1 :]
                assert _answer(fn(*typed)) == plain, (name, i)
    if not args:
        return

    stray_graphs = builds(Graph, just(3), just(()))

    @settings(max_examples=25)
    @given(integers(0, len(args) - 1), one_of(malformed(), stray_graphs))
    def spoiled(i, bad) -> None:
        try:
            fn(*args[:i], bad, *args[i + 1 :])
        except allowed:
            pass

    spoiled()


# -- the command line ---------------------------------------------------------

#: One valid call of every subcommand; ``GRAPH``, ``CERT`` and ``ABSORBER``
#: stand for files that hold K10, a certificate and an absorber on it.
CLI_CALLS = {
    "generate": ["generate", "-n", "10", "-p", "0.5", "--seed", "1"],
    "attack": ["attack", "--graph", "GRAPH", "--gamma", "0.05", "--seed", "1"],
    "profile": ["profile", "--before", "GRAPH", "--after", "GRAPH",
                "--p-hint", "0.5", "--gamma", "0.05"],
    "find": ["find", "--graph", "GRAPH", "--host", "GRAPH", "--seed", "1"],
    "verify": ["verify", "--graph", "GRAPH", "--certificate", "CERT"],
    "connect": ["connect", "--graph", "GRAPH", "--pairs", "0,1,2,3", "--w", "4,5,6",
                "--length", "6", "--exclude", "7", "--seed", "1"],
    "absorber-build": ["absorber", "build", "--graph", "GRAPH", "--x", "0",
                       "--seed", "1"],
    "absorber-verify": ["absorber", "verify", "--graph", "GRAPH",
                        "--absorber", "ABSORBER"],
    "experiment": ["experiment", "-n", "12", "-p", "0.5", "--gamma", "0.05",
                   "--seeds", "1", "--jobs", "1"],
    "cover": ["cover", "--graph", "GRAPH", "--verts", "0,1,2,3", "--seed", "1"],
}

NOT_INTEGERS = ["1.5", "abc", "", "True", "nan"]
NOT_REALS = ["nan", "abc", "", "-0.5", "1.5"]
NOT_VERTICES = ["1.5", "a", "True", "-1", "10", "9" * 30]
NOT_GRAPHS = ["abc", b"\xff\xfe\x00", "{", "null", "[1, 2]", '{"n": 3.5, "edges": []}',
              "3 1\n0 5\n", "3 2\n0 1\n1 0\n", '{"n": 3, "edges": [[0, true]]}']
NOT_RECORDS = ["null", "[1, 2]", "{}", b"\xff\xfe\x00", '{"order": 5}',
               '{"order": [true, 0, 2, 3, 4, 5, 6, 7, 8, 9]}', '{"witness": 5}',
               '{"walk": [1.5, 2, 0, 3, 4], "absorbees": [0]}',
               '{"walk": [0, 1, 2, 3, 4], "absorbees": [99]}']

#: Malformed values of each option; a bytes or file value is written to a
#: file whose path is passed.
CLI_BAD = {
    "-n": [*NOT_INTEGERS, "-1", str(2**64)],
    "--seed": [*NOT_INTEGERS, "-1"],
    "--length": [*NOT_INTEGERS, "3", str(2**64)],
    "--seeds": [*NOT_INTEGERS, "-1", str(2**64)],
    "--jobs": [*NOT_INTEGERS, "0"],
    "-p": NOT_REALS,
    "--p-hint": NOT_REALS,
    "--gamma": [*NOT_REALS, "0.5", "inf"],
    "--w": NOT_VERTICES,
    "--exclude": NOT_VERTICES,
    "--verts": NOT_VERTICES,
    "--x": [*NOT_VERTICES, "0,0"],
    "--pairs": ["0,1,2", "0,1,2,3,4", "0,1,2,3.5", "a,b,c,d", "0,1,2,True",
                "0,1;2,3", "0,1,2,10", "0,0,2,3", "-1,1,2,3"],
    "--graph": NOT_GRAPHS,
    "--host": NOT_GRAPHS,
    "--before": NOT_GRAPHS,
    "--after": NOT_GRAPHS,
    "--certificate": NOT_RECORDS,
    "--absorber": NOT_RECORDS,
}
FILE_OPTIONS = {
    "--graph", "--host", "--before", "--after", "--certificate", "--absorber"
}


def _cli_files(tmp_path) -> dict[str, str]:
    files = {
        "GRAPH": "".join(f"{line}\n" for line in ["10 45", *(
            f"{u} {v}" for u in range(10) for v in range(u + 1, 10)
        )]),
        "CERT": json.dumps({"order": list(range(10))}),
        "ABSORBER": json.dumps({"walk": [0, 1, 2, 3, 4], "absorbees": [2]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    return files


def _argv(name: str, files: dict[str, str]) -> list[str]:
    return [files.get(token, token) for token in CLI_CALLS[name]]


@pytest.mark.parametrize("name", sorted(CLI_CALLS))
def test_every_subcommand_runs_on_its_valid_call(name, tmp_path, capsys) -> None:
    assert run_command(_argv(name, _cli_files(tmp_path))) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, option, value",
    [
        pytest.param(name, option, value, id=f"{name}{option}={value!r}")
        for name, argv in sorted(CLI_CALLS.items())
        for option in argv
        if option in CLI_BAD
        for value in CLI_BAD[option]
    ],
)
def test_every_subcommand_exits_2_on_a_malformed_value(
    name, option, value, tmp_path, capsys
) -> None:
    argv = _argv(name, _cli_files(tmp_path))
    if option in FILE_OPTIONS:
        bad = tmp_path / "bad"
        bad.write_bytes(value if isinstance(value, bytes) else value.encode())
        value = str(bad)
    argv[argv.index(option) + 1] = value
    assert run_command(argv) == 2
    capsys.readouterr()
