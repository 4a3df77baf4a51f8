import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis.strategies import floats, integers, sampled_from

import squareham
from squareham import (
    InputError,
    complete_graph,
    gnp_generate,
    k3_attack,
    max_triangle_packing,
    prune_triangle_poor_edges,
    triangle_retention_profile,
)
from squareham import adversary
from squareham.adversary import attack_class_size, resilience_experiment
from squareham.cli import experiment_report_to_csv
from squareham import graphcore
from squareham.graphcore import (
    Graph,
    bits,
    edges_within,
    mask_of,
    rng_for,
    triangle_profile,
)

from strategies import gnp_graphs, seeds


@given(integers(min_value=3, max_value=5000), floats(min_value=0.0, max_value=0.49))
def test_attack_class_size_matches_exact_ceiling(n: int, gamma: float) -> None:
    frac = Fraction(gamma).limit_denominator(10**9)
    expected = math.ceil((Fraction(1, 3) + 2 * frac / 3) * n)
    assert attack_class_size(n, gamma) == expected


def test_attack_class_size_known_values() -> None:
    assert attack_class_size(9, 0.0) == 3
    assert attack_class_size(12, 0.25) == 6
    assert attack_class_size(30, 0.0) == 10
    assert attack_class_size(90, 0.0) == 30


@given(integers(min_value=0, max_value=200))
def test_attack_removes_exactly_the_internal_edges(seed: int) -> None:
    g = gnp_generate(40, 0.5, seed)
    res = k3_attack(g, 0.1, seed)
    v1 = set(res.v1)
    assert len(res.v1) == attack_class_size(40, 0.1)
    assert v1 | set(res.v2) == set(range(40))
    assert not v1 & set(res.v2)
    internal = {e for e in g.edges() if e[0] in v1 and e[1] in v1}
    assert res.removed_edge_count == len(internal)
    assert set(res.attacked.edges()) == set(g.edges()) - internal
    for u, v in res.attacked.edges():
        assert not (u in v1 and v in v1)


@given(integers(min_value=0, max_value=200))
def test_attack_deletes_the_class_pairs_and_shares_every_other_row(seed: int) -> None:
    g = gnp_generate(70, 0.6, seed)
    res = k3_attack(g, 0.05, seed)
    assert res.attacked == g.remove_edges(itertools.combinations(res.v1, 2))
    assert res.removed_edge_count == edges_within(g, mask_of(res.v1))
    assert all(res.attacked.rows[v] is g.rows[v] for v in res.v2)


@given(integers(min_value=0, max_value=200))
def test_attack_is_deterministic(seed: int) -> None:
    g = gnp_generate(30, 0.5, seed)
    a = k3_attack(g, 0.2, seed)
    b = k3_attack(g, 0.2, seed)
    assert a.v1 == b.v1
    assert set(a.attacked.edges()) == set(b.attacked.edges())


def test_attack_rejects_gamma_outside_the_half_open_interval() -> None:
    g = complete_graph(9)
    with pytest.raises(InputError):
        k3_attack(g, 0.5, 0)
    with pytest.raises(InputError):
        k3_attack(g, -0.01, 0)


@pytest.mark.parametrize("gamma", ["1/0", "0/0", "0.05", False, True])
def test_gamma_is_a_real_number_never_a_bool_or_a_str(gamma) -> None:
    # Text once went to the Fraction parser: "1/0" raised ZeroDivisionError
    # and "0.05" was accepted.
    g = complete_graph(9)
    with pytest.raises(InputError, match="gamma must be a real number"):
        k3_attack(g, gamma, 1)
    with pytest.raises(InputError, match="gamma must be a real number"):
        triangle_retention_profile(g, g, p_hint=1.0, gamma=gamma)
    with pytest.raises(InputError, match="gamma must be a real number"):
        resilience_experiment(12, 0.5, gamma, 0)


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    return [
        (a, b, c)
        for a, b, c in itertools.combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    ]


@given(gnp_graphs(min_n=3, max_n=12))
def test_retention_profile_counts_triangles_per_vertex(g: Graph) -> None:
    res = k3_attack(g, 0.0, 1)
    profile = triangle_retention_profile(g, res.attacked)
    fractions = []
    for v in range(g.n):
        before = sum(1 for t in brute_triangles(g) if v in t)
        after = sum(1 for t in brute_triangles(res.attacked) if v in t)
        assert profile.before[v] == before
        assert profile.after[v] == after
        fractions.append(after / before if before else 1.0)
    assert abs(profile.min_retained - min(fractions)) < 1e-12
    assert abs(profile.mean_retained - sum(fractions) / g.n) < 1e-12


def test_retention_profile_thresholds_on_the_attacked_complete_graph() -> None:
    g = complete_graph(9)
    res = k3_attack(g, 0.0, 5)
    profile = triangle_retention_profile(g, res.attacked, p_hint=1.0, gamma=0.0)
    # At p = 1 both bracketing thresholds collapse to (4/9) * C(9,2) = 16;
    # class vertices keep C(6,2) = 15 triangles and the rest keep 25.
    assert profile.threshold_low == profile.threshold_high == 16.0
    assert profile.below_low == 3
    assert profile.above_high == 6


def test_retention_profile_rejects_non_subgraphs() -> None:
    sparse = Graph(3, [(0, 1)])
    dense = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError):
        triangle_retention_profile(sparse, dense)


def test_retention_profile_names_both_vertex_counts() -> None:
    # Graphs on different vertex counts share no edge order, so the counts
    # are compared before any edge; the message once named edge None.
    with pytest.raises(InputError, match="a graph on 4 vertices is no subgraph of one on 3"):
        triangle_retention_profile(Graph(3, [(0, 1)]), Graph(4, [(0, 1)]))


def complete_graph_v1_destroyed_fraction(n: int) -> Fraction:
    """Closed-form destroyed-triangle fraction at an attacked-class vertex
    of the complete graph under a gamma = 0 attack.

    A class vertex keeps exactly the triangles whose other two corners
    avoid the class, so the destroyed fraction is
    ``1 - C(n - |v1|, 2) / C(n - 1, 2)``.
    """
    size = attack_class_size(n, 0)
    return 1 - Fraction(math.comb(n - size, 2), math.comb(n - 1, 2))


def test_complete_graph_destroyed_fractions_are_exact() -> None:
    assert complete_graph_v1_destroyed_fraction(9) == Fraction(13, 28)
    assert complete_graph_v1_destroyed_fraction(30) == Fraction(216, 406)
    assert complete_graph_v1_destroyed_fraction(90) == Fraction(1073, 1958)


@given(integers(min_value=6, max_value=40))
def test_closed_form_matches_a_real_attack_on_complete_hosts(n: int) -> None:
    g = complete_graph(n)
    res = k3_attack(g, 0.0, 3)
    profile = triangle_retention_profile(g, res.attacked)
    expected = complete_graph_v1_destroyed_fraction(n)
    for v in res.v1:
        before = profile.before[v]
        after = profile.after[v]
        assert Fraction(before - after, before) == expected


def brute_max_packing(g: Graph) -> int:
    tris = brute_triangles(g)

    def best(i: int, used: frozenset[int]) -> int:
        if i == len(tris):
            return 0
        skip = best(i + 1, used)
        t = tris[i]
        if used & set(t):
            return skip
        return max(skip, 1 + best(i + 1, used | set(t)))

    return best(0, frozenset())


@given(gnp_graphs(min_n=3, max_n=9, min_p=0.2, max_p=1.0))
def test_packing_size_matches_exhaustive_search(g: Graph) -> None:
    res = max_triangle_packing(g)
    assert res.status == "exact"
    assert res.lower == res.upper == res.size
    assert res.size == brute_max_packing(g)
    seen: set[int] = set()
    for t in res.triangles:
        assert g.has_edge(t[0], t[1])
        assert g.has_edge(t[0], t[2])
        assert g.has_edge(t[1], t[2])
        assert not set(t) & seen
        seen |= set(t)


def test_packing_respects_the_attack_structure() -> None:
    g = complete_graph(9)
    res = k3_attack(g, 0.0, 0)
    packing = max_triangle_packing(res.attacked, v1=res.v1)
    assert packing.structural_bound == (3 * len(res.v2) // 2) // 3
    assert packing.size == 3
    assert packing.size <= packing.structural_bound
    for t in packing.triangles:
        assert len(set(t) & set(res.v1)) <= 1


@given(gnp_graphs(min_n=3, max_n=9, min_p=0.3, max_p=1.0), integers(0, 50))
def test_packing_with_a_class_matches_exhaustive_search(g: Graph, seed: int) -> None:
    res = k3_attack(g, 0.0, seed)
    packing = max_triangle_packing(res.attacked, v1=res.v1)
    assert packing.status == "exact"
    assert packing.size == packing.upper == brute_max_packing(res.attacked)
    assert packing.size <= packing.structural_bound


def test_structural_bound_settles_small_experiment_packings() -> None:
    # The greedy packing already meets the structural bound of 9; without
    # that bound the search spent its whole budget and reported upper 10.
    report = resilience_experiment(30, 0.5, 0.05, [0, 1])
    for row in report["per_seed"]:
        packing = row["packing"]
        assert packing["status"] == "exact"
        assert packing["size"] == packing["upper"] == packing["structural_bound"] == 9


def test_packing_rejects_a_class_holding_two_corners_of_a_triangle() -> None:
    with pytest.raises(InputError):
        max_triangle_packing(complete_graph(6), v1=(0, 1))


def test_packing_budget_exhaustion_brackets_the_answer(monkeypatch) -> None:
    # The search reads its budget from the experiment's checks at call time.
    monkeypatch.setitem(adversary.EXPERIMENT_CHECKS, "packing_budget", 10)
    g = gnp_generate(30, 0.6, 1)
    res = max_triangle_packing(g)
    assert res.status == "bracket"
    assert res.lower <= res.upper
    assert res.size == res.lower
    assert res.nodes > 10
    assert _digest(_packing_row(res)) == (
        "1274de0a754c54697333f24ac5c989813ec869dded1252ce908f429d1dd4642f"
    )


def test_known_packing_sizes() -> None:
    assert max_triangle_packing(complete_graph(6)).size == 2
    assert max_triangle_packing(complete_graph(3)).size == 1
    assert max_triangle_packing(gnp_generate(5, 0.0, 0)).size == 0


def test_pruning_keeps_rich_edges_and_is_single_pass() -> None:
    k5 = complete_graph(5)
    assert set(prune_triangle_poor_edges(k5, 3).edges()) == set(k5.edges())
    assert prune_triangle_poor_edges(k5, 4).edge_count == 0
    # Diamond: one edge on two triangles, four on one each.  A single pass
    # keeps the rich edge even though the pass strands it triangle-free.
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    pruned = prune_triangle_poor_edges(diamond, 2)
    assert set(pruned.edges()) == {(0, 1)}
    assert prune_triangle_poor_edges(diamond, 0) is diamond
    with pytest.raises(InputError):
        prune_triangle_poor_edges(diamond, -1)


@given(gnp_graphs(min_n=3, max_n=12))
def test_pruning_threshold_matches_a_codegree_oracle(g: Graph) -> None:
    threshold = 2
    pruned = prune_triangle_poor_edges(g, threshold)
    for u, v in g.edges():
        codegree = len(g.neighbors(u) & g.neighbors(v))
        assert pruned.has_edge(u, v) == (codegree >= threshold)


def test_experiment_report_has_the_documented_shape() -> None:
    report = resilience_experiment(60, 0.5, 0.1, 3)
    assert set(report) == {"params", "per_seed", "aggregates"}
    assert len(report["per_seed"]) == 3
    row = report["per_seed"][0]
    for key in (
        "seed",
        "v1_size",
        "removed_edges",
        "min_retained",
        "min_class_retained",
        "v1_destroyed_median",
        "destroyed_percentiles",
        "min_degree_after_prune",
        "density",
        "packing",
    ):
        assert key in row
    assert row["v1_size"] == attack_class_size(60, 0.1)
    assert 0.0 <= row["min_retained"] <= 1.0
    agg = report["aggregates"]
    assert 0 <= agg["seeds_within_retained_band"] <= 3
    assert 0 <= agg["seeds_within_destroyed_band"] <= 3
    assert 0.0 <= agg["density_pass_fraction"] <= 1.0


def test_experiment_runs_exact_packings_on_small_hosts() -> None:
    report = resilience_experiment(20, 0.7, 0.0, 2)
    for row in report["per_seed"]:
        packing = row["packing"]
        assert packing["status"] == "exact"
        assert packing["size"] <= packing["structural_bound"]


def test_experiment_is_deterministic_and_parallel_agnostic() -> None:
    serial = resilience_experiment(50, 0.5, 0.1, 4, jobs=1)
    parallel = resilience_experiment(50, 0.5, 0.1, 4, jobs=2)
    assert serial == parallel


def test_experiment_accepts_explicit_seed_lists() -> None:
    direct = resilience_experiment(50, 0.5, 0.1, [7, 9])
    counted = resilience_experiment(50, 0.5, 0.1, 2)
    assert [r["seed"] for r in direct["per_seed"]] == [7, 9]
    assert [r["seed"] for r in counted["per_seed"]] == [0, 1]
    empty = resilience_experiment(50, 0.5, 0.1, [])
    assert empty["per_seed"] == []
    assert empty["aggregates"] == {}


def test_experiment_rejects_jobs_below_one() -> None:
    for jobs in (0, -3):
        with pytest.raises(InputError):
            resilience_experiment(40, 0.5, 0.05, 2, jobs=jobs)


def test_experiment_checks_its_parameters_before_any_seed() -> None:
    # Zero seeds run nothing, so only the up-front checks can catch these.
    for n, p, seeds, jobs in ((-5, 0.5, 0, 1), (5.5, 0.5, 0, 1), (20, 1.5, 0, 1),
                              (20, float("nan"), 0, 1), (20, True, 0, 1),
                              (20, 0.5, True, 1), (20, 0.5, 1.5, 1),
                              (20, 0.5, [1.5], 1), (20, 0.5, "ab", 1),
                              (20, 0.5, 0, 1.5)):
        with pytest.raises(InputError):
            resilience_experiment(n, p, 0.05, seeds, jobs=jobs)
    for gamma in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(InputError, match="gamma"):
            resilience_experiment(20, 0.5, gamma, 0)


def test_retention_profile_checks_its_theory_parameters() -> None:
    g = complete_graph(6)
    for p_hint, gamma in ((float("inf"), 0.1), (float("nan"), 0.1), (-1, 0.1),
                          (2, 0.1), ("0.5", 0.1), (0.5, float("inf")),
                          (0.5, float("nan")), (None, 0.7), (1.5, None)):
        with pytest.raises(InputError):
            triangle_retention_profile(g, g, p_hint, gamma)


def test_experiment_asks_for_at_most_one_worker_per_seed(monkeypatch) -> None:
    # The process pool forks every worker it is allowed at the first submit,
    # so the request must be capped before the pool is built.
    asked: list[int] = []

    class SerialPool:
        def __init__(self, max_workers: int) -> None:
            asked.append(max_workers)

        def __enter__(self) -> "SerialPool":
            return self

        def __exit__(self, *exc) -> None:
            return None

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(
        adversary.concurrent.futures, "ProcessPoolExecutor", SerialPool
    )
    capped = resilience_experiment(40, 0.5, 0.05, 2, jobs=10_000)
    assert asked == [2]
    assert capped == resilience_experiment(40, 0.5, 0.05, 2, jobs=1)
    resilience_experiment(40, 0.5, 0.05, 1, jobs=10_000)
    assert asked == [2]


def test_experiment_rejects_negative_seeds() -> None:
    with pytest.raises(InputError):
        resilience_experiment(30, 0.5, 0.05, [-3], jobs=1)
    with pytest.raises(InputError):
        resilience_experiment(30, 0.5, 0.05, -3, jobs=1)


def test_experiment_csv_is_flat_and_repeats_params() -> None:
    report = resilience_experiment(50, 0.5, 0.1, 2)
    text = experiment_report_to_csv(report)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    header = lines[0].split(",")
    assert "param.n" in header
    assert "seed" in header
    first = dict(zip(header, lines[1].split(",")))
    second = dict(zip(header, lines[2].split(",")))
    assert first["param.n"] == second["param.n"] == "50"
    assert {first["seed"], second["seed"]} == {"0", "1"}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_experiment_report_is_pinned() -> None:
    # The dict-order-sensitive digest also pins the params["checks"] echo.
    report = resilience_experiment(400, 0.5, 0.05, [0, 1])
    assert _digest(report) == (
        "8605efe0c9e9810eab635bb14751a76dd34b599b70716a5fe9aaab3cc82497c1"
    )
    csv_text = experiment_report_to_csv(report)
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "7797b9fd36a15ce653e46cad2b884bd30c6f10fba03be2814fce02092e53eabf"
    )


def _packing_row(res) -> list:
    return [
        res.status,
        res.size,
        res.lower,
        res.upper,
        res.nodes,
        res.structural_bound,
        [list(t) for t in res.triangles],
    ]


def test_packing_results_are_pinned() -> None:
    plain, attacked = [], []
    for n in range(3, 17):
        for p in (0.3, 0.5, 0.7, 0.9):
            for s in range(2):
                g = gnp_generate(n, p, s)
                plain.append(_packing_row(max_triangle_packing(g)))
                res = k3_attack(g, 0.1, s)
                attacked.append(
                    _packing_row(max_triangle_packing(res.attacked, v1=res.v1))
                )
    assert _digest(plain) == (
        "04cb46a19b76d6cc25c084c01c91b189c529ebf425d4f4b41090d2343629ca2c"
    )
    assert _digest(attacked) == (
        "b24da881dac44392fe3598666e4e2e7546b627c0867da0618f5f33c4aa61993b"
    )
    # Ids outside the host are ignored: they leave nine vertices outside
    # the class, so the structural bound stays 4.
    res = k3_attack(gnp_generate(15, 0.7, 2), 0.1, 2)
    outside = max_triangle_packing(res.attacked, v1=res.v1 + (-1, 99, 2**80))
    assert outside == max_triangle_packing(res.attacked, v1=res.v1)
    assert _packing_row(outside)[:6] == ["exact", 4, 4, 4, 1, 4]


def test_a_long_packing_search_is_pinned() -> None:
    res = k3_attack(gnp_generate(24, 0.9, 4), 0.05, 4)
    packing = max_triangle_packing(res.attacked, v1=res.v1)
    assert _packing_row(packing)[:6] == ["exact", 7, 7, 7, 55838, 7]
    assert _digest(_packing_row(packing)) == (
        "3c1d81be28d1e663dba99355eac588866fa520c6b99d48ef921b4c7406fbaac4"
    )


def test_packing_search_goes_deeper_than_the_recursion_limit(monkeypatch) -> None:
    # On 1,200 disjoint K4s the greedy seed, one triangle per K4, is best,
    # but the bound counts each K4's fourth vertex and cannot prove it.  The
    # search's first branch is 1,200 levels deep, and the budget runs out.
    monkeypatch.setitem(adversary.EXPERIMENT_CHECKS, "packing_budget", 2000)
    assert sys.getrecursionlimit() < 1200
    k4 = list(itertools.combinations(range(4), 2))
    g = Graph(4800, [(4 * k + i, 4 * k + j) for k in range(1200) for i, j in k4])
    res = max_triangle_packing(g)
    assert _packing_row(res)[:6] == ["bracket", 1200, 1200, 1600, 2001, None]


def test_attack_and_pruning_outputs_are_pinned() -> None:
    host = gnp_generate(600, 0.5, 3)
    res = k3_attack(host, 0.05, 3)
    assert _digest(res.attacked.edges()) == (
        "71c117ce9b4dae4274e8b992f24621fe4633192ca0a65aae8470d8cca599bd8d"
    )
    assert _digest(res.v1) == (
        "c041e38c90f2bdb32f49cfc8080d2020218239c0ea9f7173cb5bdb6a272f5529"
    )
    assert res.removed_edge_count == 11949
    # The experiment's threshold ceil(0.05 * n p^2) = 8 keeps every edge of
    # this host; 90 cuts 12,622 of them.
    assert _digest(prune_triangle_poor_edges(res.attacked, 8).edges()) == (
        "71c117ce9b4dae4274e8b992f24621fe4633192ca0a65aae8470d8cca599bd8d"
    )
    assert _digest(prune_triangle_poor_edges(res.attacked, 90).edges()) == (
        "d020530093f77e539e47b24134cd5b6c80fed64119a387aa9c3f8a07a8882543"
    )


def test_each_experiment_seed_squares_one_graph(monkeypatch) -> None:
    # The host's triangle counts need one A·A; a block correction turns it
    # into the attacked graph's, which serves their triangle counts and the
    # pruning.
    squared = []
    square = adversary._square

    def counting(g):
        squared.append(g)
        return square(g)

    monkeypatch.setattr(adversary, "_square", counting)
    monkeypatch.setattr(graphcore, "_square", counting)
    report = resilience_experiment(60, 0.5, 0.1, [1, 2])
    assert len(squared) == 2
    assert len(report["per_seed"]) == 2


@pytest.mark.parametrize(
    "n, p", [(0, 0.5), (1, 0.5), (12, 0.5), (60, 0.5), (300, 0.0), (400, 0.5)]
)
def test_experiment_pruned_degrees_equal_pruning_the_attacked_graph(n, p) -> None:
    # The experiment reads the pruned degrees off its corrected square; the
    # oracle prunes the attacked graph and builds it.
    seeds = [0, 1, 2] if n >= 300 else [0, 1, 2, 3, 4, 5]
    report = resilience_experiment(n, p, 0.05, seeds)
    for seed, record in zip(seeds, report["per_seed"]):
        attacked = k3_attack(gnp_generate(n, p, seed), 0.05, seed).attacked
        pruned = prune_triangle_poor_edges(attacked, record["prune_threshold"])
        expected = int(pruned.degrees.min()) if n else 0
        assert record["min_degree_after_prune"] == expected


#: Three same-size seeds in a fresh process; prints the minor page faults
#: of each call.
_FAULT_SCRIPT = """
import resource
from squareham.adversary import resilience_experiment
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    resilience_experiment(400, 0.5, 0.05, [3])
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of glibc's heap",
)
def test_an_experiment_seed_reuses_the_last_seeds_pages() -> None:
    # The square's one block raises glibc's trim threshold above a seed's
    # whole heap once it is freed, so a third seed of the same size finds
    # every page mapped; separate halves let each seed's end trim the heap,
    # and each seed faulted about 417 pages in again.  A fresh process, so
    # that no earlier test has raised the thresholds, with one BLAS thread
    # as the benchmark pins it: a threaded OpenBLAS mallocs a job buffer of
    # about 512 KiB per product, which tips an n = 400 seed past the
    # threshold.
    src = str(Path(squareham.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    faults = [int(f) for f in proc.stdout.split()]
    assert len(faults) == 3 and faults[2] < 100, faults


@pytest.mark.parametrize("n", [0, 1, 2, 5, 50, 400])
def test_packed_subset_edges_equal_the_matrix_count(n: int) -> None:
    # The density checks count a subset's edges on the packed rows; the
    # oracle ANDs the subset's boolean rows with its indicator.
    rng = np.random.default_rng(n)
    for p in (0.0, 0.3, 1.0):
        g = gnp_generate(n, p, n + 1)
        m = g.matrix
        for size in sorted({0, n // 3, n - 1, n} - {-1}):
            s = rng.choice(n, size, replace=False)
            sel = np.zeros(n, dtype=bool)
            sel[s] = True
            expected = int(np.count_nonzero(m[s] & sel)) // 2
            assert adversary._edges_inside(g, s) == expected


def _looped_density_checks(graph: Graph, p: float, seed: int) -> dict:
    """The per-vertex loop the experiment's density checks replaced."""
    n = graph.n
    rng = rng_for(seed, 67)
    floor = math.ceil((2 / 3) * n * p)
    passed = total = skipped = 0
    count = min(adversary.EXPERIMENT_CHECKS["density_vertices"], n)
    verts = rng.choice(n, size=count, replace=False) if count else []
    for v in sorted(int(x) for x in verts):
        nbrs = bits(graph.rows[v])
        subsets = [nbrs]
        for _ in range(adversary.EXPERIMENT_CHECKS["density_subsets"]):
            if len(nbrs) > floor:
                size = int(rng.integers(floor, len(nbrs) + 1))
                subsets.append(
                    sorted(int(i) for i in rng.choice(nbrs, size, replace=False))
                )
        for s in subsets:
            if len(s) < max(floor, 2):
                skipped += 1
                continue
            eps = adversary.EXPERIMENT_CHECKS["density_eps"]
            cap = (1 + eps) * math.comb(len(s), 2) * p
            total += 1
            if edges_within(graph, mask_of(s)) <= cap:
                passed += 1
    return {"passed": passed, "total": total, "skipped": skipped}


@given(
    integers(min_value=0, max_value=60),
    floats(min_value=0.0, max_value=1.0) | sampled_from([0.0, 1.0]),
    seeds(),
)
def test_density_checks_equal_the_per_vertex_loop(n: int, p: float, seed: int) -> None:
    g = gnp_generate(n, p, seed)
    expected = _looped_density_checks(g, p, seed)
    assert adversary._density_checks(g, p, seed, triangle_profile(g)) == expected


def test_density_checks_equal_the_loop_where_subsets_are_skipped() -> None:
    # Empty and tiny hosts, p in {0, 1}, and a density above the host's
    # own, under whose floor every N(v) is skipped.
    for n, p, seed in [(0, 0.5, 0), (1, 0.5, 1), (3, 1.0, 2), (3, 0.0, 3), (40, 1.0, 4)]:
        g = gnp_generate(n, p, seed)
        expected = _looped_density_checks(g, p, seed)
        assert adversary._density_checks(g, p, seed, triangle_profile(g)) == expected
    sparse = gnp_generate(40, 0.5, 5)
    report = _looped_density_checks(sparse, 0.9, 5)
    assert report["skipped"] > 0
    assert adversary._density_checks(sparse, 0.9, 5, triangle_profile(sparse)) == report
