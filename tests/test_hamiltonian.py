import dataclasses
import hashlib
import itertools
import json
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import (
    booleans,
    data,
    integers,
    permutations,
    sets,
)

from squareham import (
    Absorber,
    Certificate,
    Graph,
    FailureReport,
    InfeasibilityWitness,
    InputError,
    PipelineConfig,
    absorber,
    brute_force_square_ham,
    complete_graph,
    connector,
    find_infeasibility_witness,
    find_square_ham,
    gnp_generate,
    hamiltonian,
    is_square_path,
    k3_attack,
    verify_certificate,
    verify_witness,
)
from squareham.hamiltonian import (
    STAGES,
    BruteForceResult,
    cover_with_square_paths,
    jsonable,
    match_leftover,
)
from squareham.cli import _read_record, failure_report_to_json_obj
from squareham.graphcore import mask_of

from oracles import looped_splice
from strategies import gnp_graphs, seeds


def square_cycle_host(n: int) -> Graph:
    edges = {
        tuple(sorted((i, (i + d) % n))) for i in range(n) for d in (1, 2)
    }
    return Graph(n, sorted(edges))


@given(permutations(list(range(8))))
def test_certificates_on_complete_hosts_always_verify(order: list[int]) -> None:
    g = complete_graph(8)
    check = verify_certificate(g, Certificate(tuple(order)))
    assert check.ok
    assert check.missing is None


def test_verification_pinpoints_the_first_gap() -> None:
    n = 9
    host = square_cycle_host(n)
    cert = Certificate(tuple(range(n)))
    assert verify_certificate(host, cert).ok
    broken = host.remove_edges([(2, 4)])
    check = verify_certificate(broken, cert)
    assert not check.ok
    assert check.missing == (2, 4)
    assert check.position == 2
    assert check.distance == 2


def test_square_cycle_membership_on_its_exact_edge_set() -> None:
    n = 8
    g = square_cycle_host(n)
    assert verify_certificate(g, Certificate(tuple(range(n)))).ok
    rotated = tuple((i + 3) % n for i in range(n))
    assert verify_certificate(g, Certificate(rotated)).ok
    swapped = verify_certificate(g, Certificate((0, 2, 1, 3, 4, 5, 6, 7)))
    assert not swapped.ok and swapped.missing == (1, 4)
    with pytest.raises(InputError):
        verify_certificate(g, Certificate((0, 1, 2, 3, 4, 5, 6, 6)))


def test_verification_rejects_malformed_certificates() -> None:
    g = complete_graph(6)
    with pytest.raises(InputError):
        verify_certificate(g, Certificate((0, 1, 2, 3, 4, 4)))
    with pytest.raises(InputError):
        verify_certificate(g, Certificate((0, 1, 2)))
    with pytest.raises(InputError):
        verify_certificate(complete_graph(2), Certificate((0, 1)))
    # A scalar once raised TypeError in len(), and a float vertex passed the
    # permutation check (5.0 == 5), then raised in a shift.
    for order in (5, None, set(range(6))):
        with pytest.raises(InputError, match="^a certificate order must be a sequence"):
            verify_certificate(g, Certificate(order))
    for order in ((0, 1, 2, 3, 4, 5.0), (0, 1, 2, 3, 4, True)):
        with pytest.raises(InputError, match="^a certificate vertex must be an integer"):
            verify_certificate(g, Certificate(order))
    assert verify_certificate(g, Certificate([0, 1, 2, 3, 4, 5])).ok


@given(integers(min_value=3, max_value=9))
def test_exhaustive_search_succeeds_on_complete_hosts(n: int) -> None:
    res = brute_force_square_ham(complete_graph(n))
    assert res.status == "found"
    assert verify_certificate(complete_graph(n), res.certificate).ok


def test_exhaustive_search_proves_absence_on_a_path() -> None:
    g = Graph(8, [(i, i + 1) for i in range(7)])
    res = brute_force_square_ham(g)
    assert res.status == "none"
    assert res.certificate is None


def test_exhaustive_search_respects_its_budget(monkeypatch) -> None:
    # The search reads its budget at call time.
    monkeypatch.setattr(hamiltonian, "_EXHAUSTIVE_BUDGET", 50)
    g = gnp_generate(40, 0.5, 0)
    res = brute_force_square_ham(g)
    assert res.status == "unknown"
    assert res.nodes <= 51


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _exhaustive_row(res: BruteForceResult) -> list:
    order = res.certificate and list(res.certificate.order)
    return [res.status, order, res.nodes]


def test_exhaustive_search_outputs_are_pinned(monkeypatch) -> None:
    # 45 hosts hold a square cycle and 75 do not, over 19,766 nodes.
    rows = [
        _exhaustive_row(brute_force_square_ham(gnp_generate(n, p, s)))
        for n in range(3, 13)
        for p in (0.4, 0.6, 0.8, 0.95)
        for s in range(3)
    ]
    assert _digest(rows) == (
        "3a630c6c845616f31bb3fd2945c5505170ae67709ec6d336e97eb4ad160594e6"
    )
    # G(20, .6, 0) takes 845 nodes: a budget of 50 cuts the search at its
    # 51st, and one of 1000 lets it finish.
    g = gnp_generate(20, 0.6, 0)
    monkeypatch.setattr(hamiltonian, "_EXHAUSTIVE_BUDGET", 50)
    assert _exhaustive_row(brute_force_square_ham(g)) == ["unknown", None, 51]
    monkeypatch.setattr(hamiltonian, "_EXHAUSTIVE_BUDGET", 1000)
    status, order, nodes = _exhaustive_row(brute_force_square_ham(g))
    assert (status, nodes) == ("found", 845)
    assert _digest(order) == (
        "56afc2afdd10e0caf8b73fbfe137453c12b920d9437b5f9ac70af28afee2d8ba"
    )


def test_exhaustive_search_goes_deeper_than_the_recursion_limit() -> None:
    # The first branch closes the cycle: one node per vertex placed before
    # the last, 1,198 levels deep.
    assert sys.getrecursionlimit() < 1198
    res = brute_force_square_ham(gnp_generate(1200, 0.9, 1))
    assert (res.status, res.nodes) == ("found", 1198)
    assert _digest(list(res.certificate.order)) == (
        "210284275f6f9ff43f513eb1794e9ab6affdaddaf69d723f01feb1adeab33d76"
    )


@settings(max_examples=30)
@given(gnp_graphs(min_n=5, max_n=10, min_p=0.3, max_p=1.0))
def test_small_instance_results_match_exhaustive_existence(g) -> None:
    outcome = find_square_ham(g)
    oracle = brute_force_square_ham(g)
    if isinstance(outcome, Certificate):
        assert oracle.status == "found"
        assert verify_certificate(g, outcome).ok
    else:
        assert oracle.status == "none"
        assert outcome.stage in STAGES


@settings(max_examples=10)
@given(integers(min_value=0, max_value=30))
def test_almost_spanning_paths_are_square_and_meet_coverage(seed: int) -> None:
    g = gnp_generate(80, 0.6, seed)
    path = hamiltonian._grow_square_path(g.rows, (1 << g.n) - 1, seed)
    assert is_square_path(g, path).ok
    assert len(path) >= (1 - hamiltonian._COVER_EPS) * g.n
    assert len(path) == len(set(path))


def test_almost_spanning_is_deterministic() -> None:
    g = gnp_generate(80, 0.6, 4)
    everything = (1 << g.n) - 1
    a = hamiltonian._grow_square_path(g.rows, everything, 9)
    assert a == hamiltonian._grow_square_path(g.rows, everything, 9)


def test_a_hopeless_search_stops_at_its_step_budget(monkeypatch) -> None:
    # C_40 has no triangle, so no search reaches its target of 30 vertices;
    # each search stops after 50 steps per vertex of its set, and a step
    # picks at most twice.
    picks = 0
    splitmix = hamiltonian.splitmix64

    def counting(seed):
        nonlocal picks
        for draw in splitmix(seed):
            picks += 1
            yield draw

    monkeypatch.setattr(hamiltonian, "splitmix64", counting)
    n = 40
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    assert len(hamiltonian._grow_square_path(g.rows, (1 << n) - 1, 3)) == 2
    assert 0 < picks <= 2 * 50 * n
    picks = 0
    cover = cover_with_square_paths(g, (1 << n) - 1, seed=3)
    assert all(len(p) == 2 for p in cover.paths)
    assert 0 < picks <= 2 * 50 * n


@settings(max_examples=10)
@given(integers(min_value=0, max_value=30))
def test_cover_paths_are_disjoint_square_and_account_for_everything(
    seed: int,
) -> None:
    g = gnp_generate(120, 0.6, seed)
    targets = [v for v in range(g.n) if v % 3 != 0]
    res = cover_with_square_paths(g, mask_of(targets), seed=seed)
    seen: set[int] = set()
    for path in res.paths:
        assert is_square_path(g, path).ok
        assert not set(path) & seen
        seen |= set(path)
    assert seen | set(res.leftover) == set(targets)
    assert not seen & set(res.leftover)
    assert res.leftover_fraction == len(res.leftover) / len(targets)
    assert res.leftover_fraction <= hamiltonian._COVER_EPS


def test_cover_rejects_vertices_outside_the_host() -> None:
    g = gnp_generate(20, 0.5, 0)
    for u_prime in (mask_of([5, 25]), 1 << 20, -1):
        with pytest.raises(InputError):
            cover_with_square_paths(g, u_prime, seed=0)


def unspliced_cover(g: Graph, u_prime: int, seed: int) -> hamiltonian.CoverResult:
    """The cover with its splice patched out: the searches' paths and the
    vertices they left."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hamiltonian, "_insert_into_paths", lambda g, paths, q: False)
        return cover_with_square_paths(g, u_prime, seed)


def spliced_by_loop(g: Graph, u_prime: int, seed: int) -> hamiltonian.CoverResult:
    """The unspliced cover with the position loop's splice applied to each
    vertex it left, in ascending order."""
    res = unspliced_cover(g, u_prime, seed)
    paths = [list(path) for path in res.paths]
    leftover = tuple(q for q in res.leftover if not looped_splice(g, paths, q))
    fraction = len(leftover) / max(1, u_prime.bit_count())
    return hamiltonian.CoverResult(tuple(map(tuple, paths)), leftover, fraction)


@settings(max_examples=40, deadline=None)
@given(
    gnp_graphs(min_n=1, max_n=100, min_p=0.5),
    integers(min_value=0, max_value=(1 << 100) - 1),
    seeds(),
)
# The search leaves 3 vertices, and two of them splice.
@example(gnp_generate(30, 0.6, 0), (1 << 30) - 1, 4)
def test_a_sampled_cover_splices_what_its_searches_left(
    g: Graph, targets: int, seed: int
) -> None:
    u_prime = targets & ((1 << g.n) - 1)
    res = cover_with_square_paths(g, u_prime, seed)
    assert res == spliced_by_loop(g, u_prime, seed)


@settings(max_examples=60, deadline=None)
@given(
    gnp_graphs(min_n=1, max_n=80),
    integers(min_value=0, max_value=(1 << 80) - 1),
    seeds(),
)
# The first host stops at the floor after two searches, the second after
# one, and the sparse one after a missed target.
@example(gnp_generate(200, 0.5, 1), (1 << 200) - 1, 0)
@example(gnp_generate(100, 0.5, 3), (1 << 100) - 1, 7)
@example(gnp_generate(90, 0.2, 4), (1 << 90) - 1, 2)
def test_the_cover_stops_at_the_floor_or_after_a_missed_target(
    g: Graph, targets: int, seed: int
) -> None:
    # Read from the searches' result alone, before the splice.  Search k
    # ran on its path, the later paths and the leftover, and every search
    # but the last met its 3/4 target.  The loop ended because fewer than
    # _COVER_FLOOR vertices were left or because its last search missed; a
    # search on a set that spans no edge keeps no path.
    res = unspliced_cover(g, targets & ((1 << g.n) - 1), seed)
    share = 1 - hamiltonian._COVER_EPS
    left = len(res.leftover)
    sizes = [len(path) for path in res.paths]
    searched = [sum(sizes[k:]) + left for k in range(len(sizes))]
    assert all(size >= share * m for size, m in zip(sizes[:-1], searched))
    if left < hamiltonian._COVER_FLOOR:
        return
    rest = mask_of(res.leftover)
    if any(g.row(v) & rest for v in res.leftover):
        assert sizes and sizes[-1] < share * searched[-1]


@settings(max_examples=60)
@given(gnp_graphs(min_n=2, max_n=14, min_p=0.3), data())
def test_a_straggler_splices_where_the_position_loop_put_it(g, data) -> None:
    q = data.draw(integers(min_value=0, max_value=g.n - 1))
    rest = [v for v in data.draw(permutations(range(g.n))) if v != q]
    cuts = data.draw(sets(integers(min_value=0, max_value=len(rest)), max_size=4))
    cuts = sorted(cuts)
    paths = [rest[a:b] for a, b in zip([0, *cuts], [*cuts, len(rest)])]
    expected = [list(p) for p in paths]
    fits = looped_splice(g, expected, q)
    assert hamiltonian._insert_into_paths(g, paths, q) == fits
    assert paths == expected


def test_leftover_matching_pairs_into_the_absorbee_set() -> None:
    g = complete_graph(12)
    res = match_leftover(g, mask_of([0, 1, 2]), mask_of([3, 4, 5, 6]))
    assert res.status == "matched"
    assert [q for q, _ in res.pairs] == [0, 1, 2]
    matched = [x for _, x in res.pairs]
    assert len(set(matched)) == 3
    assert set(matched) <= {3, 4, 5, 6}
    for q, x in res.pairs:
        assert g.has_edge(q, x)
    with pytest.raises(InputError):
        match_leftover(g, mask_of([0, 1]), mask_of([1, 2]))
    for q_set, anchors in ((-1, 1 << 3), (1, -1), (1 << 12, 1 << 3), (1, 1 << 12)):
        with pytest.raises(InputError):
            match_leftover(g, q_set, anchors)


def test_leftover_matching_reports_deficiency() -> None:
    g = gnp_generate(10, 0.0, 0)
    res = match_leftover(g, mask_of([0, 1]), mask_of([2, 3]))
    assert res.status == "deficient"
    assert (res.pairs, res.violator, res.neighborhood) == ((), (0, 1), ())


def test_every_absorbee_may_anchor_a_straggler(monkeypatch) -> None:
    # The cover leaves three vertices of G(400, .3, 0) at seed 0, and the
    # leftover matching may pair each with any absorbee of the attempt.
    asked = []
    build, match = hamiltonian.build_absorber, hamiltonian.match_leftover

    def building(g, xs, seed):
        asked.append(xs)
        return build(g, xs, seed)

    def matching(g, q_set, anchors):
        asked.append((q_set, anchors))
        return match(g, q_set, anchors)

    monkeypatch.setattr(hamiltonian, "build_absorber", building)
    monkeypatch.setattr(hamiltonian, "match_leftover", matching)
    hamiltonian._attempt(gnp_generate(400, 0.3, 0), PipelineConfig(seed=0), 0)
    xs, (q_set, anchors) = asked
    assert xs.bit_count() == round(hamiltonian._ABSORBEE_SHARE * 400)
    assert q_set.bit_count() == 3 and anchors == xs


def test_an_attempt_draws_one_numpy_generator(monkeypatch) -> None:
    # The absorbee set is an attempt's one bulk draw; every later random
    # choice reads a SplitMix64 stream.
    keys = []
    draw = hamiltonian.rng_for

    def counting(*key):
        keys.append(key)
        return draw(*key)

    monkeypatch.setattr(hamiltonian, "rng_for", counting)
    g = gnp_generate(400, 0.3, 0)
    for restart in range(2):
        hamiltonian._attempt(g, PipelineConfig(seed=0), restart)
    assert keys == [(0, 53), (7_919, 53)]


def test_a_failed_threading_names_its_stragglers(monkeypatch) -> None:
    # The three stragglers of G(400, .3, 0) at seed 0 each take one of the
    # 44 absorbees as anchor, and the fuel is the other 41.
    def failing(g, a, pieces, fuel, seed):
        assert fuel.bit_count() == 41
        return None, {}

    monkeypatch.setattr(hamiltonian, "_assemble_cycle", failing)
    out = hamiltonian._attempt(gnp_generate(400, 0.3, 0), PipelineConfig(seed=0), 0)
    assert out.stage == "connecting"
    assert out.diagnostics == {"stragglers": 3, "plan": {"x": 44}}


def test_pipeline_succeeds_and_certifies_on_a_dense_instance() -> None:
    g = gnp_generate(100, 0.6, 12)
    outcome = find_square_ham(g, config=PipelineConfig(seed=12))
    assert isinstance(outcome, Certificate)
    assert verify_certificate(g, outcome).ok


def test_pipeline_is_deterministic() -> None:
    g = gnp_generate(100, 0.6, 3)
    cfg = PipelineConfig(seed=8)
    first = find_square_ham(g, config=cfg)
    second = find_square_ham(g, config=cfg)
    assert type(first) == type(second)
    if isinstance(first, Certificate):
        assert first.order == second.order


def test_pipeline_audits_absorbers_with_more_than_63_absorbees() -> None:
    # |X| = 65 on this host: more subsets than a 64-bit mask can index.
    g = gnp_generate(1300, 0.6, 1)
    out = find_square_ham(g, config=PipelineConfig(seed=1))
    assert isinstance(out, (Certificate, FailureReport))
    if isinstance(out, Certificate):
        assert verify_certificate(g, out).ok


def test_pipeline_failure_reports_name_a_stage(monkeypatch) -> None:
    monkeypatch.setattr(hamiltonian, "_RESTARTS", 2)
    g = gnp_generate(100, 0.05, 0)
    outcome = find_square_ham(g, config=PipelineConfig(seed=0))
    assert isinstance(outcome, FailureReport)
    assert outcome.stage in STAGES
    assert outcome.diagnostics


def test_pipeline_delegates_small_hosts_to_exhaustive_search() -> None:
    # Two disjoint K_5: 4-regular with independence number 2 <= 10 // 3, so
    # no witness shows and only the exhaustive search can say "no".
    g = Graph(10, [(u, v) for u, v in itertools.combinations(range(10), 2)
                   if u // 5 == v // 5])
    assert find_infeasibility_witness(g) is None
    outcome = find_square_ham(g)
    assert isinstance(outcome, FailureReport)
    assert outcome.stage == "partition"
    assert outcome.diagnostics["mode"] == "small-instance-delegation"
    assert outcome.diagnostics["brute_status"] == "none"


# The ids keep the 8-vertex backbone size these cases once also ran with.
@pytest.mark.parametrize("n", [41, 58], ids=["41-8", "58-8"])
def test_hosts_no_reservoir_plan_fits_go_to_exhaustive_search(
    monkeypatch, n: int
) -> None:
    # Up to 58 vertices the exhaustive search answers, and the pipeline
    # never runs.
    def unreachable(*args, **kwargs):
        pytest.fail("the pipeline ran on a host for exhaustive search")

    monkeypatch.setattr(hamiltonian, "_attempt", unreachable)
    g = complete_graph(n)
    out = find_square_ham(g)
    assert isinstance(out, Certificate) and verify_certificate(g, out).ok


def test_small_host_failures_carry_a_witness_when_one_shows(monkeypatch) -> None:
    # K_{5,7}: its side of 7 is independent with 7 > 12 // 3, so the
    # witness answers before the exhaustive search runs.
    g = Graph(12, [(u, v) for u in range(5) for v in range(5, 12)])
    outcome = find_square_ham(g)
    assert isinstance(outcome, FailureReport)
    assert outcome.diagnostics == {"mode": "infeasibility-witness"}
    assert outcome.witness.kind == "independent-set"
    assert verify_witness(g, outcome.witness).ok
    # The witness answers alone: the exhaustive search never runs.
    def unreachable(*args, **kwargs):
        pytest.fail("the exhaustive search ran after a witness showed")

    monkeypatch.setattr(hamiltonian, "brute_force_square_ham", unreachable)
    assert find_square_ham(g) == outcome


def test_pipeline_checks_the_host_relation() -> None:
    g = complete_graph(30)
    tiny = gnp_generate(30, 0.1, 0)
    with pytest.raises(InputError, match=r"edge \(0, 1\)"):
        find_square_ham(g, gamma_host=tiny)


def test_pipeline_names_both_vertex_counts_when_the_host_differs_in_size() -> None:
    g = complete_graph(30)
    with pytest.raises(InputError, match="on 30 vertices is no subgraph of one on 31"):
        find_square_ham(g, gamma_host=complete_graph(31))


def test_config_validation_rejects_nonsense() -> None:
    with pytest.raises(InputError, match="seed must be non-negative"):
        PipelineConfig(seed=-1)
    for value in (1.5, True, "8"):
        with pytest.raises(InputError, match="seed must be an integer"):
            PipelineConfig(seed=value)


def test_pipeline_rejects_a_negative_seed() -> None:
    # n = 20 takes the brute-force path, which draws no random numbers.
    for g in (gnp_generate(100, 0.6, 1), gnp_generate(20, 0.9, 1)):
        with pytest.raises(InputError):
            find_square_ham(g, config=PipelineConfig(seed=-1))


def outcome_digest(outcome: Certificate | FailureReport) -> str:
    if isinstance(outcome, Certificate):
        obj = jsonable(outcome)
    else:
        obj = failure_report_to_json_obj(outcome)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_default_config_outputs_are_pinned() -> None:
    # Refactors of the pipeline must not move seeded default-config outputs.
    g = gnp_generate(200, 0.5, 1)
    pinned = {
        0: "de84870a4f5890ac108373d19eb5d551182246b16d8a46f089521780649c88ee",
        3: "a2958948171e3dc926d6e9492b6be7b539c5c2f61f31af62d92369156d040ca9",
    }
    for seed, digest in pinned.items():
        outcome = find_square_ham(g, config=PipelineConfig(seed=seed))
        assert isinstance(outcome, Certificate)
        assert outcome_digest(outcome) == digest
    host = gnp_generate(400, 0.5, 5)
    attacked = k3_attack(host, 0.05, 5).attacked
    outcome = find_square_ham(
        attacked, gamma_host=host, config=PipelineConfig(seed=0)
    )
    assert isinstance(outcome, FailureReport)
    assert verify_witness(attacked, outcome.witness).ok
    assert (outcome.stage, outcome.diagnostics["mode"]) == (
        "partition", "infeasibility-witness"
    )
    # The witness-first report, without and with its witness.
    assert outcome_digest(dataclasses.replace(outcome, witness=None)) == (
        "26c0355e0ad158b27d096ed7f26de5236794588c7ffe566c40774a99162ec77c"
    )
    assert outcome_digest(outcome) == (
        "72eb7fde952d1ab88291121b609dd3d4e3eba964c451ea7900fba5bb8ac29ea4"
    )
    outcome = find_square_ham(gnp_generate(800, 0.7, 1), config=PipelineConfig(seed=0))
    assert isinstance(outcome, Certificate)
    assert outcome_digest(outcome) == (
        "1c1ea7bfa2e4a698a89ca99e969947c8ace168c42e7af4bfbd2fa2f68a0cec5b"
    )


@pytest.mark.parametrize(
    "p, h, seed, restart, certified, digest",
    [
        # The last of the 8 restarts fails at connecting.
        (0.3, 395, 2, 7, False,
         "6ffcb64056ac1ec0d8260545142663295748d12a7cdddb785c1966aec8f004a0"),
        # Restart 0 fails at connecting and restart 1 certifies.
        (0.3, 0, 1, 0, True,
         "03fe070704b9aea365f24b7c87a896cb5cb7c174f976dbe7e21a5a8a8db17c71"),
    ],
    # Named by the path each case takes, so a re-pinned digest keeps its id.
    ids=["all-fail", "second-certifies"],
)
def test_outputs_through_the_threading_failure_path_are_pinned(
    p: float, h: int, seed: int, restart: int, certified: bool, digest: str
) -> None:
    # Pruning failed threading probes must not move any outcome.
    g = gnp_generate(400, p, h)
    config = PipelineConfig(seed=seed)
    failed = hamiltonian._attempt(g, config, restart)
    assert isinstance(failed, FailureReport) and failed.stage == "connecting"
    outcome = find_square_ham(g, config=config)
    assert isinstance(outcome, Certificate) == certified
    assert outcome_digest(outcome) == digest


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# (n, p, seed) -> digests of the cover's searches (paths and leftover,
# before the splice) and of one search's path on all of G(n, p, 1).
COVER_PINS = {
    (200, 0.5, 0): (
        "86e58b67bb55c4af49661c61fe8b8bd92197eee44c7c4c4fcc4f7a107904557d",
        "5fc30ddad489e4649d10955ebace74c6bc68fabcc83187177a520f17fa6f11d2",
    ),
    (200, 0.5, 5): (
        "3bec696815faccd2f022eac9392679b06e287c850d92e4cb5c7c7dbcedb39376",
        "aba42a0023940a0ce1254abf26fcac75b371a449d697699aa4178c5b310aed75",
    ),
    (800, 0.7, 0): (
        "2a9b4d1754f6c0f210731abb3b48337beaf8e98cac2ae586e044706e55532839",
        "b48c79eb09d727515c653ce98f7d76277b6cc54ffdaccad7b99c33027164dfbf",
    ),
    (800, 0.7, 5): (
        "0775728a5dca5ff1709cd7dd590c487bec245008d0a1c75e582043877b303e25",
        "5745d0d914e557f2dec456318ec08800bf47490070cff841c1c1fd432fd06406",
    ),
}


@pytest.mark.parametrize("n, p, seed", sorted(COVER_PINS))
def test_cover_outputs_are_pinned(n: int, p: float, seed: int) -> None:
    # Refactors of the cover must not move its seeded paths.
    g = gnp_generate(n, p, 1)
    cover = unspliced_cover(g, (1 << n) - 1, seed)
    path = hamiltonian._grow_square_path(g.rows, (1 << n) - 1, seed)
    cover_obj = [[list(q) for q in cover.paths], list(cover.leftover)]
    assert (json_digest(cover_obj), json_digest(list(path))) == COVER_PINS[n, p, seed]


@pytest.mark.parametrize("n, p, seed", sorted(COVER_PINS))
def test_the_cover_splices_what_its_searches_left(n: int, p: float, seed: int) -> None:
    # The searches leave 6, 1 and 1 vertices on three of the four hosts,
    # and the splice takes every one of them.
    g = gnp_generate(n, p, 1)
    everything = (1 << n) - 1
    assert cover_with_square_paths(g, everything, seed) == spliced_by_loop(
        g, everything, seed
    )


def test_a_threading_probe_is_one_job_with_the_probe_seed(monkeypatch) -> None:
    # Each probe asks connect_one once, for a path of up to eight vertices
    # through the fuel not yet consumed, with the seed of its place in the
    # threading; the direct arc is that job's length 4.
    asked = []
    connect = hamiltonian.connect_one

    def recording(g, *job):
        res = connect(g, *job)
        asked.append((*job, len(res.path)))
        return res

    monkeypatch.setattr(hamiltonian, "connect_one", recording)
    fuel = sum(1 << v for v in range(6, 12))
    # The walk's exit pair is (0, 1) and its entry pair (2, 3).
    a = Absorber((2, 3, 0, 1), ())
    g = complete_graph(12).remove_edges([(0, 2)])
    suffix, info = hamiltonian._assemble_cycle(g, a, [], fuel, 3)
    assert len(suffix) == 1 and info == {"consumed": 1 << suffix[0]}
    assert asked == [((0, 1), (2, 3), fuel, 8, 3 * 7919 + 1, 5)]
    asked.clear()
    # On a complete host every probe is a direct arc.
    g = complete_graph(12)
    assert hamiltonian._assemble_cycle(g, a, [(4, 5)], fuel, 3) == (
        (4, 5), {"consumed": 0}
    )
    assert asked == [
        ((0, 1), (4, 5), fuel, 8, 3 * 7919, 4),
        ((4, 5), (2, 3), fuel, 8, 3 * 7919 + 1, 4),
    ]


def test_the_sweep_stops_at_the_host_size(monkeypatch) -> None:
    # Six vertices hold no square path of length 7, which the threading
    # once asked for here and raised InputError.  Lengths 4 and 5 need the
    # missing edge 1-2, and length 6 fails on the pool {4, 5}.
    g = gnp_generate(6, 0.7, 1)
    asked, searched = [], []
    connect = hamiltonian.connect_one

    def recording(g, frm, to, w, length, seed):
        asked.append(length)
        return connect(g, frm, to, w, length, seed)

    def searching(fn):
        def spy(g, ends, pool, length, seed):
            searched.append(length)
            return fn(g, ends, pool, length, seed)

        return spy

    monkeypatch.setattr(hamiltonian, "connect_one", recording)
    monkeypatch.setattr(connector, "_direct_connect", searching(connector._direct_connect))
    a = Absorber((2, 3, 0, 1), ())
    suffix, _ = hamiltonian._assemble_cycle(g, a, [], 0b110000, 0)
    assert suffix is None
    assert asked == [6] and searched == [6]


def _threading_states(monkeypatch) -> tuple:
    """The host G(400, .3, 0), every probe of its failing seed-1 threading
    as ``(state, frm, to)``, and each state's exit pair, pieces left and
    the absorber and pieces of its call.  A state is one call of the
    search, told apart by its frame: two states in a row can sit at the
    same position with different pieces left."""
    g = gnp_generate(400, 0.3, 0)
    probes, states, calls = [], {}, []
    connect, assemble = hamiltonian.connect_one, hamiltonian._assemble_cycle

    def recording(g, frm, to, *job):
        state = sys._getframe(1)
        while state.f_code.co_name != "dfs":
            state = state.f_back
        probes.append((state, frm, to))
        local = state.f_locals
        states.setdefault(state, (local["cur"], local["remaining"], *calls[-1]))
        return connect(g, frm, to, *job)

    def capturing(g, a, pieces, *args):
        calls.append((a, pieces))
        return assemble(g, a, pieces, *args)

    monkeypatch.setattr(hamiltonian, "connect_one", recording)
    monkeypatch.setattr(hamiltonian, "_assemble_cycle", capturing)
    failed = hamiltonian._attempt(g, PipelineConfig(seed=1), 0)
    assert failed.stage == "connecting" and probes
    return g, probes, states


def test_the_threading_tests_each_arc_once_per_state(monkeypatch) -> None:
    # A state hands each of its piece orientations to one probe, so one
    # state never repeats a pair.
    _, probes, _ = _threading_states(monkeypatch)
    assert len(set(probes)) == len(probes)


def test_the_threading_probes_direct_arcs_first(monkeypatch) -> None:
    # A state probes its piece orientations in the oracle's order: those
    # that meet its exit pair in a square path first, then by piece, each
    # forward before reversed.  A failing state probes them all, and a
    # state the budget cuts a prefix.
    g, probes, states = _threading_states(monkeypatch)
    probed = {}
    for state, _, to in probes:
        probed.setdefault(state, []).append(to)
    jumped = 0
    for state, (cur, remaining, a, pieces) in states.items():
        if not remaining:
            assert probed[state] == [a.entry]
            continue
        order = [
            ori[:2]
            for pi in remaining
            for ori in (pieces[pi], pieces[pi][::-1])
        ]
        order.sort(key=lambda to: not is_square_path(g, (*cur, *to)).ok)
        assert probed[state] == order[: len(probed[state])]
        jumped += order[0] != pieces[remaining[0]][:2]
    # The ranking moves some state's first probe off its lowest piece.
    assert jumped


def test_the_threading_keeps_no_record_between_calls(monkeypatch) -> None:
    # The threading keeps nothing between calls: not on the host, not in a
    # module, not in a cache.  So the same call again makes the same
    # searches.
    g = gnp_generate(400, 0.3, 0)
    captured = []
    assemble = hamiltonian._assemble_cycle
    asked = []
    connect = hamiltonian.connect_one

    def capturing(*args):
        captured.append(args)
        return assemble(*args)

    def recording(g, *job):
        asked.append(job)
        return connect(g, *job)

    monkeypatch.setattr(hamiltonian, "_assemble_cycle", capturing)
    monkeypatch.setattr(hamiltonian, "connect_one", recording)

    def state():
        return [getattr(g, name) for name in type(g).__slots__]

    failed = hamiltonian._attempt(g, PipelineConfig(seed=1), 0)
    assert failed.stage == "connecting" and len(captured) == 1
    first = list(asked)
    assert first
    before = state()
    for _ in range(2):
        asked.clear()
        suffix, info = assemble(*captured[0])
        assert suffix is None and info == {
            k: failed.diagnostics[k] for k in info
        }
        assert asked == first
    assert state() == before


def test_every_pipeline_search_passes_the_names_the_benchmark_wraps(
    monkeypatch,
) -> None:
    # The traced benchmark names each connection after its call site by
    # wrapping connect_one in absorber and hamiltonian, and counts searches
    # and pool sizes at connector._direct_connect.  A search that ran
    # outside those two names would never be named, so every one of them
    # must run inside one of them.
    calls = {"absorber": 0, "hamiltonian": 0}
    inside = []
    searches = []

    def naming(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            inside.append(key)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    def searching(fn):
        def spy(*args, **kwargs):
            searches.append(tuple(inside))
            return fn(*args, **kwargs)

        return spy

    for key, module in (("absorber", absorber), ("hamiltonian", hamiltonian)):
        monkeypatch.setattr(module, "connect_one", naming(key, module.connect_one))
    monkeypatch.setattr(connector, "_direct_connect", searching(connector._direct_connect))
    # On a dense host every unit meets the next in the direct arc, so the
    # absorber makes no call; on G(400, .3, 2) one absorbee takes a plain
    # core and its link is a search.
    host = gnp_generate(400, 0.5, 5)
    attacked = k3_attack(host, 0.05, 5).attacked
    for g, gamma_host in ((gnp_generate(400, 0.3, 2), None), (attacked, host)):
        find_square_ham(g, gamma_host=gamma_host, config=PipelineConfig(seed=0))
    assert calls["absorber"] > 0 and calls["hamiltonian"] > 0
    assert searches and all(len(names) == 1 for names in searches)
    assert {names[0] for names in searches} == {"absorber", "hamiltonian"}


@pytest.mark.parametrize("n, p", [(200, 0.5), (400, 0.35), (800, 0.7)])
def test_a_dense_absorber_is_its_units_end_to_end(monkeypatch, n, p) -> None:
    # On a dense host each core is chained onto the one before, so the
    # absorber needs no link: its walk is five vertices per absorbee.  A
    # link search brought back into the dense absorber fails here.
    built = []
    build = hamiltonian.build_absorber

    def building(*args, **kwargs):
        out = build(*args, **kwargs)
        built.append(out[0])
        return out

    monkeypatch.setattr(hamiltonian, "build_absorber", building)
    for h in range(2):
        g = gnp_generate(n, p, h)
        for seed in range(3):
            outcome = find_square_ham(g, config=PipelineConfig(seed=seed))
            assert isinstance(outcome, Certificate)
    assert built and None not in built
    for a in built:
        assert len(a.walk) == 5 * len(a.absorbees)


def test_every_search_gets_its_pool_as_a_mask_that_len_counts(monkeypatch) -> None:
    # The traced benchmark averages len(pool) at connector._direct_connect
    # into connector.pool.mean: the reservoir less the ports.  The job's
    # reservoir is seen where the pipeline calls connect_one.
    sizes, jobs = [], []
    direct = connector._direct_connect

    def asking(connect):
        def recording(g, frm, to, w, length, seed):
            jobs.append((frm, to, w))
            return connect(g, frm, to, w, length, seed)

        return recording

    def checking(g, ends, pool, *args, **kwargs):
        frm, to, w = jobs[-1]
        assert ends == (frm, to)
        ports = 1 << frm[0] | 1 << frm[1] | 1 << to[0] | 1 << to[1]
        assert pool == w & ~ports
        assert len(pool) == (w & ~ports).bit_count()
        sizes.append(len(pool))
        return direct(g, ends, pool, *args, **kwargs)

    for module in (absorber, hamiltonian):
        monkeypatch.setattr(module, "connect_one", asking(module.connect_one))
    monkeypatch.setattr(connector, "_direct_connect", checking)
    out = find_square_ham(gnp_generate(200, 0.5, 1), config=PipelineConfig(seed=0))
    assert isinstance(out, Certificate)
    assert sizes and max(sizes) > 0


def test_each_built_absorber_is_audited_once(monkeypatch) -> None:
    # chain_absorbers runs the one absorber audit, through the absorber
    # module's name; nothing downstream of build_absorber audits again.
    built, audits = [], []
    build = hamiltonian.build_absorber
    verify = absorber.verify_absorber

    def building(*args, **kwargs):
        out = build(*args, **kwargs)
        built.append(out[0] is not None)
        return out

    def auditing(*args, **kwargs):
        audits.append(args[1])
        return verify(*args, **kwargs)

    monkeypatch.setattr(hamiltonian, "build_absorber", building)
    monkeypatch.setattr(absorber, "verify_absorber", auditing)
    find_square_ham(gnp_generate(200, 0.5, 1), config=PipelineConfig(seed=0))
    assert sum(built) >= 1
    assert len(audits) == sum(built)


def test_the_plan_fits_from_59_vertices_and_keeps_the_absorbee_share(
    monkeypatch,
) -> None:
    # 58 vertices end in the exhaustive search, 59 run the pipeline.
    searched = []

    def searching(g, *args, **kwargs):
        searched.append(g.n)
        return BruteForceResult("unknown", None, 0)

    monkeypatch.setattr(hamiltonian, "brute_force_square_ham", searching)
    out = find_square_ham(complete_graph(58))
    assert out.stage == "partition"
    assert out.diagnostics["mode"] == "small-instance-delegation"
    g = complete_graph(59)
    out = find_square_ham(g)
    assert isinstance(out, Certificate) and verify_certificate(g, out).ok
    assert searched == [58]
    # The absorbee set is 11% of the host, drawn whole, and the rest of
    # the host is the absorber's pool; the plan reports only its size.
    drawn = []

    def failing(g, xs, seed):
        drawn.append(xs.bit_count())
        return None, {"absorbee": 0, "pool_degree": 0, "free": 0, "nodes": 0}

    monkeypatch.setattr(hamiltonian, "build_absorber", failing)
    for n, x in ((59, 6), (200, 22), (400, 44), (2000, 220)):
        out = hamiltonian._attempt(complete_graph(n), PipelineConfig(), 0)
        assert out.stage == "absorber" and out.diagnostics["plan"] == {"x": x}
        assert drawn.pop() == x == round(hamiltonian._ABSORBEE_SHARE * n)


@pytest.mark.parametrize("host", [1000, 1001])
def test_large_hosts_certify_on_the_first_attempt(host) -> None:
    # G(1000,.5) is off the benchmark's grid.  Its 100 units take 400 of
    # the 900 vertices outside the absorbee set; the last core search still
    # finds a core.
    g = gnp_generate(1000, 0.5, host)
    outcome = hamiltonian._attempt(g, PipelineConfig(seed=0), 0)
    assert isinstance(outcome, Certificate)
    assert verify_certificate(g, outcome).ok


@pytest.mark.parametrize("host", [9000, 9001])
def test_sparse_hosts_certify_through_one_star_pool(host) -> None:
    # G(1000,.3) is off the benchmark's grid.  Here v1 and v2 each need a
    # common neighbour of three vertices, which the host outside the
    # absorbee set, less the earlier cores, still holds for every absorbee.
    g = gnp_generate(1000, 0.3, host)
    outcome = find_square_ham(g, config=PipelineConfig(seed=0))
    assert isinstance(outcome, Certificate)
    assert verify_certificate(g, outcome).ok


@pytest.mark.parametrize("n, p", [(1000, 0.25), (2000, 0.2)])
def test_sparse_hosts_certify_with_the_whole_host_as_the_pool(n, p) -> None:
    # Off the benchmark's grid.  Fixed-size pools of 7x + 14 and 6x + 7
    # vertices left some absorbee without a core on these hosts at seed 0;
    # the rest of the host outside the absorbee set holds a core for every
    # absorbee.
    g = gnp_generate(n, p, 9000)
    outcome = find_square_ham(g, config=PipelineConfig(seed=0))
    assert isinstance(outcome, Certificate)
    assert verify_certificate(g, outcome).ok


def test_the_core_search_finds_cores_where_the_matching_rounds_found_none() -> None:
    # Off the benchmark's grid.  Four rounds of matching, each picking u1,
    # u2, v1 or v2 for every absorbee with no look-ahead, failed every
    # restart here in the third or fourth round.  One search per absorbee
    # finds every core, and the solve certifies.
    outcome = find_square_ham(
        gnp_generate(1000, 0.2, 9000), config=PipelineConfig(seed=0)
    )
    assert not (isinstance(outcome, FailureReport) and outcome.stage == "absorber")


def test_certificate_and_failure_serialization_round_trip() -> None:
    cert = Certificate((2, 0, 1, 3))
    clone = _read_record(Certificate, jsonable(cert))
    assert clone == cert
    report = FailureReport("covering", {"leftover": [1, 2]})
    obj = failure_report_to_json_obj(report)
    assert obj["stage"] == "covering"
    assert obj["diagnostics"]["leftover"] == [1, 2]
    for bad in ({"not-order": []}, {"order": 5}, {"order": [0, 1.5, 2]}):
        with pytest.raises(InputError):
            _read_record(Certificate, bad)
    with pytest.raises(InputError):
        FailureReport("no-such-stage", {"a": 1})
    with pytest.raises(InputError):
        FailureReport("covering", {})


@settings(max_examples=150)
@given(gnp_graphs(min_n=1, max_n=11))
def test_witnesses_appear_only_on_hosts_without_a_square_cycle(g) -> None:
    witness = find_infeasibility_witness(g)
    if witness is None:
        return
    assert brute_force_square_ham(g).status == "none"
    assert verify_witness(g, witness).ok


def greedy_independent_set(g: Graph) -> list[int]:
    """The minimum-degree greedy, one vertex per step, as a reference."""
    rows, alive, chosen = g.rows, (1 << g.n) - 1, []
    while alive:
        v = min(
            (u for u in range(g.n) if alive >> u & 1),
            key=lambda u: (rows[u] & alive).bit_count(),
        )
        chosen.append(v)
        alive &= ~(rows[v] | 1 << v)
    return chosen


def ascending_independent_set(g: Graph) -> list[int]:
    """Each vertex in ascending (degree, id) order that no vertex taken
    before it sees, as a reference."""
    taken = []
    for v in sorted(range(g.n), key=lambda u: (g.degree(u), u)):
        if not any(g.rows[v] >> u & 1 for u in taken):
            taken.append(v)
    return taken


@settings(max_examples=60)
@given(gnp_graphs(min_n=3, max_n=60, min_p=0.3), seeds(), booleans())
# A host large enough for the search to stop early, without and with a witness.
@example(gnp_generate(300, 0.5, 7), 7, False)
@example(gnp_generate(300, 0.5, 7), 7, True)
# Attacked hosts whose searches take degree-1 picks and isolated batches.
@example(gnp_generate(400, 0.5, 1), 1, True)
@example(gnp_generate(600, 0.7, 1), 1, True)
# Below 5 vertices a low degree proves nothing, so only the two passes answer.
@example(complete_graph(3), 0, False)
@example(Graph(3, [(0, 1), (1, 2)]), 0, False)
@example(complete_graph(4), 0, False)
@example(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 0, False)
def test_witness_search_matches_the_ascending_pass_then_the_greedy(
    g, seed, attack
) -> None:
    if attack:
        g = k3_attack(g, 0.05, seed).attacked
    witness = find_infeasibility_witness(g)
    low = [v for v in range(g.n) if g.degree(v) < 4] if g.n >= 5 else []
    if low:
        assert witness == InfeasibilityWitness("low-degree", (low[0],))
        return
    # The ascending pass answers with its first n // 3 + 1 takes.
    ascending = ascending_independent_set(g)
    greedy = greedy_independent_set(g)
    if len(ascending) > g.n // 3:
        expected = InfeasibilityWitness(
            "independent-set", tuple(ascending[: g.n // 3 + 1])
        )
    elif len(greedy) > g.n // 3:
        expected = InfeasibilityWitness("independent-set", tuple(greedy))
    else:
        expected = None
    assert witness == expected


def test_attacked_hosts_never_reach_the_greedy(monkeypatch) -> None:
    # The attacked class is the lowest-degree vertices, so the ascending
    # pass proves every attacked host; a feasible G(800, .5) falls through
    # to the greedy once, which finds nothing either.
    calls = []
    greedy = hamiltonian._min_degree_greedy

    def spy(g):
        calls.append(greedy(g))
        return calls[-1]

    monkeypatch.setattr(hamiltonian, "_min_degree_greedy", spy)
    for n, p in ((400, 0.5), (600, 0.5), (600, 0.7)):
        for s in range(4):
            g = k3_attack(gnp_generate(n, p, s), 0.05, s).attacked
            witness = find_infeasibility_witness(g)
            assert witness.kind == "independent-set"
            assert verify_witness(g, witness).ok
    assert calls == []
    assert find_infeasibility_witness(gnp_generate(800, 0.5, 1)) is None
    assert calls == [None]


def test_witness_search_counts_past_a_byte() -> None:
    # Vertex 0 ties for the lowest degree, so its kill takes the 300-clique
    # ``inner`` along; each ``far`` vertex loses 300 and each ``near`` one
    # 250.  The ``far`` vertices are then isolated and come before any
    # ``near`` pick; a count that wrapped at 256 would put them after.
    inner, far, near = range(1, 301), range(301, 481), range(481, 532)
    edges = [(0, v) for v in inner]
    edges += itertools.combinations(inner, 2)
    edges += [(u, v) for u in far for v in inner]
    edges += [(u, v) for u in near for v in range(1, 251)]
    edges += itertools.combinations(near, 2)
    g = Graph(532, edges)
    expected = (0, *far, near[0])
    assert tuple(greedy_independent_set(g)) == expected
    assert hamiltonian._min_degree_greedy(g) == InfeasibilityWitness(
        "independent-set", expected
    )
    # Vertex 0 and every far and near vertex have degree 300, so the
    # ascending pass takes 0 and far vertices until it passes n // 3 = 177.
    assert find_infeasibility_witness(g) == InfeasibilityWitness(
        "independent-set", (0, *range(301, 478))
    )


@pytest.mark.parametrize("attack", [False, True])
def test_witness_search_chunks_change_no_pick(monkeypatch, attack) -> None:
    # One row per chunk, and chunks that end mid-kill, against one chunk
    # that takes a whole kill.
    hosts = [gnp_generate(300, 0.5, s) for s in (1, 2)] + [gnp_generate(600, 0.7, 1)]
    search = find_infeasibility_witness
    if attack:
        # The ascending pass proves these, so the greedy is called directly.
        hosts = [k3_attack(g, 0.05, 1).attacked for g in hosts]
        search = hamiltonian._min_degree_greedy
    for g in hosts:
        monkeypatch.setattr(hamiltonian, "_WITNESS_CHUNK_BYTES", g.n * g.n)
        whole = search(g)
        for chunk_rows in (1, 7):
            monkeypatch.setattr(hamiltonian, "_WITNESS_CHUNK_BYTES", chunk_rows * g.n)
            assert search(g) == whole
        assert (whole is not None) == attack


@pytest.mark.parametrize("attack", [False, True])
def test_witness_search_recounts_and_subtractions_agree(monkeypatch, attack) -> None:
    # Every update a subtraction, the shipped mix, and every update a
    # recount give the same degrees, so the same picks.
    hosts = [gnp_generate(300, p, s) for p, s in ((0.3, 1), (0.5, 2), (0.7, 3))]
    search = find_infeasibility_witness
    if attack:
        # The ascending pass proves these, so the greedy is called directly.
        hosts = [k3_attack(g, 0.05, 1).attacked for g in hosts]
        search = hamiltonian._min_degree_greedy
    for g in hosts:
        found = set()
        for share in (0, hamiltonian._RECOUNT_SHARE, g.n):
            monkeypatch.setattr(hamiltonian, "_RECOUNT_SHARE", share)
            found.add(search(g))
        assert len(found) == 1
        assert (found.pop() is not None) == attack


def test_witness_search_memory_is_set_by_the_chunk() -> None:
    # The first kill on G(1500, .5) takes about 750 rows, over 1 MB
    # unpacked at once; in chunks the search stays within two of them.
    g = gnp_generate(1500, 0.5, 1)
    tracemalloc.start()
    try:
        assert find_infeasibility_witness(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * hamiltonian._WITNESS_CHUNK_BYTES


@pytest.mark.parametrize("p, recount", [(0.7, True), (0.3, False)])
def test_witness_search_memory_is_set_by_the_chunk_in_either_update(p, recount) -> None:
    # On G(1500, .7) the first kill leaves 501 alive rows against 999
    # dying ones, and still lets the set pass n // 3, so the alive rows are
    # recounted; on G(1500, .3) the 389 dying rows are subtracted.  Either
    # way the search stays within two chunks.
    g = gnp_generate(1500, p, 1)
    rows = g.rows
    dying = 1 + min(row.bit_count() for row in rows)
    alive = g.n - dying
    assert 1 + alive > g.n // 3
    assert (alive <= dying) == recount
    assert (alive <= hamiltonian._RECOUNT_SHARE * dying) == recount
    assert g._packed is not None
    tracemalloc.start()
    try:
        assert find_infeasibility_witness(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * hamiltonian._WITNESS_CHUNK_BYTES


def test_witness_search_caches_no_matrix() -> None:
    g = k3_attack(gnp_generate(400, 0.5, 1), 0.05, 1).attacked
    assert g._matrix is None
    assert find_infeasibility_witness(g).kind == "independent-set"
    assert g._matrix is None


def test_a_wrong_witness_fails_the_solve(monkeypatch) -> None:
    # find_square_ham checks the witness it returns, as brute force checks
    # its certificate; on K_5 an edge is more than n // 3 vertices.
    monkeypatch.setattr(
        hamiltonian,
        "find_infeasibility_witness",
        lambda g: InfeasibilityWitness("independent-set", (0, 1)),
    )
    with pytest.raises(AssertionError, match="vertices 0 and 1 are adjacent"):
        find_square_ham(complete_graph(5))


def test_witness_search_prefers_a_low_degree_vertex() -> None:
    g = complete_graph(9).remove_edges([(4, v) for v in (0, 5, 6, 7, 8)])
    assert find_infeasibility_witness(g) == InfeasibilityWitness("low-degree", (4,))
    assert find_infeasibility_witness(complete_graph(9)) is None
    # Below n = 5 every vertex of the square of C_n has degree n - 1 < 4.
    assert find_infeasibility_witness(complete_graph(4)) is None


def test_witness_verification_rejects_broken_proofs() -> None:
    # Vertices 0..3 are isolated; 4..9 form a clique.
    g = Graph(10, [(u, v) for u in range(4, 10) for v in range(u + 1, 10)])
    assert verify_witness(g, InfeasibilityWitness("independent-set", (0, 1, 2, 3))).ok
    assert verify_witness(g, InfeasibilityWitness("low-degree", (0,))).ok
    wrong = [
        InfeasibilityWitness("independent-set", (0, 1, 2, 4, 5)),  # adjacent pair
        InfeasibilityWitness("independent-set", (0, 1, 2)),  # 3 <= 10 // 3
        InfeasibilityWitness("low-degree", (4,)),  # degree 5
    ]
    for witness in wrong:
        check = verify_witness(g, witness)
        assert not check.ok and check.reason
    # The square of C_4 is K_4, so degree 0 proves nothing there.
    tiny = Graph(4, [(1, 2), (2, 3), (1, 3)])
    assert not verify_witness(tiny, InfeasibilityWitness("low-degree", (0,))).ok
    malformed = [
        InfeasibilityWitness("independent-set", (0, 1, 2, 2)),  # repeated
        InfeasibilityWitness("independent-set", (0, 1, 2, 10)),  # out of range
        InfeasibilityWitness("independent-set", (-1, 0, 1, 2)),
        InfeasibilityWitness("low-degree", (0, 1)),
    ]
    for witness in malformed:
        with pytest.raises(InputError):
            verify_witness(g, witness)
    with pytest.raises(InputError):
        InfeasibilityWitness("odd-cycle", (0,))
    for vertex in (2.5, True, "0"):
        with pytest.raises(InputError):
            InfeasibilityWitness("low-degree", (vertex,))
    # Vertices that are not a sequence once raised TypeError on iteration.
    for vertices in (5, None, {0, 1}):
        with pytest.raises(InputError, match="^witness vertices must be a sequence"):
            InfeasibilityWitness("low-degree", vertices)
    with pytest.raises(InputError):
        verify_witness(Graph(2, []), InfeasibilityWitness("low-degree", (0,)))


def test_witness_json_round_trip() -> None:
    witness = InfeasibilityWitness("independent-set", (3, 0, 7))
    report = FailureReport("connecting", {"a": 1}, witness)
    obj = json.loads(json.dumps(failure_report_to_json_obj(report)))
    assert obj["witness"] == {"kind": "independent-set", "vertices": [3, 0, 7]}
    assert _read_record(InfeasibilityWitness, obj["witness"]) == witness
    assert "witness" not in failure_report_to_json_obj(
        FailureReport("connecting", {"a": 1})
    )
    for bad in (None, {}, {"kind": "low-degree"}, {"kind": "x", "vertices": [1]},
                {"kind": "low-degree", "vertices": ["a"]}):
        with pytest.raises(InputError):
            _read_record(InfeasibilityWitness, bad)


def record_attempts(monkeypatch) -> list[int]:
    restarts: list[int] = []
    attempt = hamiltonian._attempt

    def recording(g, config, restart):
        restarts.append(restart)
        return attempt(g, config, restart)

    monkeypatch.setattr(hamiltonian, "_attempt", recording)
    return restarts


def record_witness_searches(monkeypatch) -> list[int]:
    searched: list[int] = []
    search = hamiltonian.find_infeasibility_witness

    def recording(g):
        searched.append(g.n)
        return search(g)

    monkeypatch.setattr(hamiltonian, "find_infeasibility_witness", recording)
    return searched


def test_attacked_hosts_get_a_witness_before_any_attempt(monkeypatch) -> None:
    host = gnp_generate(100, 0.6, 1)
    attacked = k3_attack(host, 0.05, 1).attacked
    restarts = record_attempts(monkeypatch)
    searched = record_witness_searches(monkeypatch)
    outcome = find_square_ham(attacked, host, PipelineConfig(seed=0))
    assert restarts == [] and searched == [100]
    assert isinstance(outcome, FailureReport)
    assert outcome.witness.kind == "independent-set"
    assert verify_witness(attacked, outcome.witness).ok
    assert not verify_witness(host, outcome.witness).ok


# On G(200, .5, 3), seeds 0 and 15 certify at restart 0.  G(400, .3, 395)
# with seed 1 certifies at restart 0, with seed 4 at restart 3, and with
# seed 2 fails all 8 restarts.
RESTART_HOSTS = {(200, 0.5): 3, (400, 0.3): 395}


@pytest.mark.parametrize(
    "n, p, seed, attempts",
    [(200, 0.5, 0, 1), (200, 0.5, 15, 1), (400, 0.3, 1, 1), (400, 0.3, 4, 4),
     (400, 0.3, 2, 8)],
    ids=["dense-first", "dense-first-again", "sparse-first", "sparse-after-failures",
         "sparse-all-fail"],
)
def test_gnp_restarts_are_untouched_by_the_witness_search(
    monkeypatch, n, p, seed, attempts
) -> None:
    g = gnp_generate(n, p, RESTART_HOSTS[n, p])
    config = PipelineConfig(seed=seed)
    expected = []
    for restart in range(hamiltonian._RESTARTS):
        expected.append(hamiltonian._attempt(g, config, restart))
        if isinstance(expected[-1], Certificate):
            break
    assert len(expected) == attempts
    restarts = record_attempts(monkeypatch)
    searched = record_witness_searches(monkeypatch)
    outcome = find_square_ham(g, config=config)
    assert searched == [n]
    assert restarts == list(range(len(expected)))
    assert outcome == expected[-1]
    if isinstance(outcome, FailureReport):
        assert outcome.witness is None
