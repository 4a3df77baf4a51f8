import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squareham
from squareham import Absorber
from squareham.cli import (
    _read_record,
    graph_from_edgelist_text,
    graph_to_edgelist_text,
    read_graph,
    run_command,
)
from squareham.hamiltonian import jsonable


def run(*argv: str) -> int:
    return run_command(list(argv))


def write_graph(tmp_path, name: str, n: int, p: float, seed: int) -> str:
    path = str(tmp_path / name)
    assert run("generate", "-n", str(n), "-p", str(p), "--seed", str(seed),
               "--out", path) == 0
    return path


def test_generate_writes_graph_and_manifest_sidecar(tmp_path) -> None:
    out = tmp_path / "g.edges"
    assert run("generate", "-n", "12", "-p", "0.5", "--seed", "3",
               "--out", str(out)) == 0
    g = graph_from_edgelist_text(out.read_text())
    assert g.n == 12
    manifest = json.loads((tmp_path / "g.edges.manifest.json").read_text())
    for key in ("command", "argv", "config", "seed", "version",
                "wall_clock_seconds", "outputs"):
        assert key in manifest
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 3


def test_generate_without_out_prints_to_stdout(capsys) -> None:
    assert run("generate", "-n", "6", "-p", "1.0", "--seed", "0") == 0
    text = capsys.readouterr().out
    g = graph_from_edgelist_text(text)
    assert g.n == 6 and g.edge_count == 15


def test_seeded_outputs_are_byte_identical_across_runs(tmp_path) -> None:
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    for out in (a, b):
        assert run("generate", "-n", "40", "-p", "0.3", "--seed", "9",
                   "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_attack_reports_the_class_and_removed_count(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 30, 0.5, 1)
    assert run("attack", "--graph", graph, "--gamma", "0.1", "--seed", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"v1", "v2", "removed_edge_count", "graph"}
    assert len(payload["v1"]) + len(payload["v2"]) == 30


def test_attack_rejects_gamma_out_of_range(tmp_path) -> None:
    graph = write_graph(tmp_path, "g.edges", 10, 0.5, 0)
    assert run("attack", "--graph", graph, "--gamma", "0.6", "--seed", "0") == 2


def test_non_finite_or_out_of_range_parameters_are_usage_errors(
    tmp_path, capsys
) -> None:
    graph = write_graph(tmp_path, "g.edges", 10, 0.5, 0)
    profile = ("profile", "--before", graph, "--after", graph)
    for flags in (("--p-hint", "0.5", "--gamma", "inf"),
                  ("--p-hint", "inf", "--gamma", "0.1"),
                  ("--p-hint", "nan", "--gamma", "0.1"),
                  ("--p-hint", "-1", "--gamma", "0.1"),
                  ("--p-hint", "2", "--gamma", "0.1")):
        assert run(*profile, *flags) == 2
    experiment = ("experiment", "-n", "20", "-p", "0.5", "--gamma", "0.1")
    for flags in (("--gamma", "inf"), ("-n", "-5"), ("-p", "1.5")):
        assert run(*experiment, *flags, "--seeds", "0") == 2
    capsys.readouterr()


def test_profile_csv_has_one_row_per_vertex(tmp_path, capsys) -> None:
    before = write_graph(tmp_path, "before.edges", 15, 0.8, 4)
    after = str(tmp_path / "after.edges")
    assert run("attack", "--graph", before, "--gamma", "0.0", "--seed", "4",
               "--format", "edgelist", "--out", after) == 0
    assert run("profile", "--before", before, "--after", after,
               "--format", "csv") == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "vertex,before,after,retained"
    assert len(lines) == 16
    smaller = write_graph(tmp_path, "smaller.edges", 14, 0.8, 4)
    assert run("profile", "--before", before, "--after", smaller) == 2
    err = capsys.readouterr().err
    assert err == "error: a graph on 14 vertices is no subgraph of one on 15\n"


def test_find_then_verify_round_trips(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 100, 0.6, 12)
    cert = str(tmp_path / "cert.json")
    assert run("find", "--graph", graph, "--seed", "0", "--out", cert) == 0
    manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
    assert manifest["config"] == {"seed": 0}
    assert run("verify", "--graph", graph, "--certificate", cert) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_verify_fails_against_a_different_graph(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 100, 0.6, 12)
    other = write_graph(tmp_path, "h.edges", 100, 0.6, 13)
    cert = str(tmp_path / "cert.json")
    assert run("find", "--graph", graph, "--seed", "0", "--out", cert) == 0
    assert run("verify", "--graph", other, "--certificate", cert) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False


@pytest.mark.parametrize(
    "order",
    [[True, 0, 2, 3, 4, 5.9], [0, 1, 2, 3, 4, 5.0], ["0", "1", "2", "3", "4", "5"]],
    ids=["bool-and-float", "whole-float", "strings"],
)
def test_verify_rejects_a_certificate_vertex_that_is_not_an_integer(
    tmp_path, capsys, order
) -> None:
    # Truncating would read the first order as (1, 0, 2, 3, 4, 5), which
    # passes on K6.
    graph = write_graph(tmp_path, "k6.edges", 6, 1.0, 0)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"order": order}))
    assert run("verify", "--graph", graph, "--certificate", str(cert)) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "vertices", [[2.5], [True], [0.0], ["0"]],
    ids=["float", "bool", "whole-float", "string"],
)
def test_verify_rejects_a_witness_vertex_that_is_not_an_integer(
    tmp_path, capsys, vertices
) -> None:
    graph = write_graph(tmp_path, "g.edges", 10, 0.1, 0)
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "stage": "partition",
        "diagnostics": {"mode": "infeasibility-witness"},
        "witness": {"kind": "low-degree", "vertices": vertices},
    }))
    assert run("verify", "--graph", graph, "--certificate", str(report)) == 2
    capsys.readouterr()


def test_find_failure_emits_a_staged_report_with_exit_one(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 40, 0.05, 0)
    assert run("find", "--graph", graph, "--seed", "0") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stage"]
    assert "diagnostics" in payload


def test_find_writes_a_witness_that_verify_checks(tmp_path, capsys) -> None:
    host = write_graph(tmp_path, "host.edges", 100, 0.6, 1)
    attacked = str(tmp_path / "attacked.edges")
    assert run("attack", "--graph", host, "--gamma", "0.05", "--seed", "1",
               "--format", "edgelist", "--out", attacked) == 0
    report = tmp_path / "report.json"
    assert run("find", "--graph", attacked, "--host", host, "--seed", "0",
               "--out", str(report)) == 1
    payload = json.loads(report.read_text())
    assert payload["witness"]["kind"] == "independent-set"
    assert run("verify", "--graph", attacked, "--certificate", str(report)) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    # Well-formed but wrong: the attacked class is not independent in the host.
    assert run("verify", "--graph", host, "--certificate", str(report)) == 1
    check = json.loads(capsys.readouterr().out)
    assert check["ok"] is False and "adjacent" in check["reason"]
    for witness in ({"kind": "independent-set", "vertices": [0, 0, 1]},
                    {"kind": "independent-set", "vertices": [100]},
                    {"kind": "odd-cycle", "vertices": [0]},
                    {"vertices": [0]},
                    None):
        report.write_text(json.dumps(dict(payload, witness=witness)))
        assert run("verify", "--graph", attacked, "--certificate", str(report)) == 2
    # A report without a witness is not something verify can check.
    del payload["witness"]
    report.write_text(json.dumps(payload))
    assert run("verify", "--graph", attacked, "--certificate", str(report)) == 2
    capsys.readouterr()


def test_connect_embeds_each_requested_pair(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 30, 1.0, 0)
    assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
               "--length", "4", "--seed", "5") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert set(payload) == {"ok", "path", "diagnostics"}
    path = payload["path"]
    assert path[:2] == [0, 1] and path[-2:] == [2, 3]
    # Without the edge 1-2 the ports rule out lengths 4 and 5, and one
    # reservoir vertex cannot fill the two interior positions of length 6.
    sparse = tmp_path / "h.edges"
    host = squareham.complete_graph(30).remove_edges([(1, 2)])
    sparse.write_text(graph_to_edgelist_text(host))
    assert run("connect", "--graph", str(sparse), "--pairs", "0,1,2,3", "--w", "4",
               "--length", "6", "--seed", "5") == 1
    assert json.loads(capsys.readouterr().out) == {
        "ok": False,
        "path": None,
        "diagnostics": {"config": {"length": 6, "pool": 1, "seed": 5}, "nodes": 1},
    }


def test_connect_rejects_malformed_job_strings(tmp_path) -> None:
    graph = write_graph(tmp_path, "g.edges", 10, 1.0, 0)
    assert run("connect", "--graph", graph, "--pairs", "0,1,2") == 2


def test_connect_builds_long_paths_without_a_route_flag(tmp_path) -> None:
    graph = write_graph(tmp_path, "g.edges", 30, 1.0, 0)
    assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
               "--length", "12", "--seed", "5") == 0
    assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
               "--route", "direct") == 2


def test_connect_rejects_overlapping_from_pairs(tmp_path, capsys) -> None:
    # connect serves one job, so a list of jobs, overlapping or not, exits 2.
    graph = write_graph(tmp_path, "g.edges", 30, 1.0, 0)
    for pairs in ("0,1,2,3;1,4,5,6", "0,1,2,3;4,5,6,7"):
        assert run("connect", "--graph", graph, "--pairs", pairs) == 2
        assert "connect serves one job" in capsys.readouterr().err


def test_a_batch_is_one_connect_call_per_job(tmp_path, capsys) -> None:
    # Disjoint interiors come from --exclude: the first call keeps the
    # second job's ports out, and the second keeps the first path out.
    graph = write_graph(tmp_path, "g.edges", 30, 1.0, 0)
    g = read_graph(graph)

    def connect(pairs: str, exclude: str) -> tuple[int, ...]:
        assert run("connect", "--graph", graph, "--pairs", pairs, "--length", "8",
                   "--exclude", exclude, "--seed", "3") == 0
        return tuple(json.loads(capsys.readouterr().out)["path"])

    first = connect("0,1,2,3", "4,5,6,7")
    second = connect("4,5,6,7", ",".join(map(str, first)))
    check = squareham.validate_embedding
    assert check(g, first, (0, 1), (2, 3)).ok
    assert check(g, second, (4, 5), (6, 7)).ok
    assert not set(first[2:-2]) & set(second[2:-2])


def test_connect_rejects_a_length_above_the_vertex_count(tmp_path, capsys) -> None:
    # A connection's vertices are distinct, so the host bounds its length;
    # a huge length must exit 2 before any search starts.
    graph = write_graph(tmp_path, "g.edges", 6, 1.0, 0)
    for length in ("7", "3000000"):
        assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
                   "--length", length) == 2
        assert "exceeds" in capsys.readouterr().err
    assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
               "--length", "6") == 0


def stdout_digest(capsys, *argv: str) -> tuple[int, str]:
    code = run(*argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_connect_and_absorber_build_outputs_are_pinned(tmp_path, capsys) -> None:
    # The CLI turns its vertex lists into masks; the outputs must not move.
    # 3-4 is no host edge, so the ports rule out lengths 4 and 5 and both
    # jobs land at length 6.
    graph = write_graph(tmp_path, "g.edges", 60, 0.6, 4)
    pairs = "2,3,4,5"
    reservoir = ",".join(str(v) for v in range(8, 60, 2))
    assert stdout_digest(
        capsys, "connect", "--graph", graph, "--pairs", pairs, "--length", "6",
        "--w", reservoir, "--exclude", "10,20,30", "--seed", "2",
    ) == (0, "2c32dafbad00476764404ed64f99512f0138a8a446be474b55348e49792ffd9f")
    assert stdout_digest(
        capsys, "connect", "--graph", graph, "--pairs", pairs,
        "--length", "8", "--exclude", "9,11,13", "--seed", "1",
    ) == (0, "edf4e85c03d2cffa7f2f47aac5f0da83a85ba7db77acb59db747c5ae806132ab")
    graph = write_graph(tmp_path, "h.edges", 120, 0.55, 7)
    assert stdout_digest(
        capsys, "absorber", "build", "--graph", graph, "--x", "0,1,2",
        "--seed", "3",
    ) == (0, "9b5207e492e866c14f9348ceed4d82772214775c9d8e546672752d1bc2e140b1")


def test_connect_rejects_negative_vertices(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 30, 1.0, 0)
    for flag in ("--exclude", "--w"):
        assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
                   flag, "-1") == 2
        assert "non-negative" in capsys.readouterr().err


def test_absorber_build_verify_round_trips(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 120, 0.55, 7)
    absorber = str(tmp_path / "absorber.json")
    assert run("absorber", "build", "--graph", graph, "--x", "0,1,2",
               "--seed", "3", "--out", absorber) == 0
    assert run("absorber", "verify", "--graph", graph,
               "--absorber", absorber) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["subsets_checked"] == 4


def test_absorber_build_audits_the_absorber_once(
    tmp_path, capsys, monkeypatch
) -> None:
    audits = []
    verify = squareham.absorber.verify_absorber

    def auditing(*args, **kwargs):
        audits.append(verify(*args, **kwargs))
        return audits[-1]

    monkeypatch.setattr(squareham.absorber, "verify_absorber", auditing)
    graph = write_graph(tmp_path, "g.edges", 120, 0.55, 7)
    assert run("absorber", "build", "--graph", graph, "--x", "0,1,2",
               "--seed", "3") == 0
    assert [(a.ok, a.subsets_checked) for a in audits] == [(True, 4)]


def test_absorber_files_round_trip_through_the_core_format(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 120, 0.55, 7)
    assert run("absorber", "build", "--graph", graph, "--x", "0,1,2",
               "--seed", "3") == 0
    current = json.loads(capsys.readouterr().out)
    assert sorted(current) == ["absorbees", "walk"]
    walk, xs = current["walk"], current["absorbees"]
    # The absorbees come in walk order, the order the core search served
    # them, fewest pool neighbours first.
    assert xs == [1, 0, 2]
    # Each absorbee sits in the middle of its five-vertex core, in order.
    places = [walk.index(x) for x in xs]
    assert places == sorted(places) and places[0] == 2
    assert all(j - i >= 5 for i, j in zip(places, places[1:]))
    assert places[-1] == len(walk) - 3
    assert jsonable(_read_record(Absorber, current)) == current


def test_absorber_build_rejects_repeated_absorbees(tmp_path, capsys) -> None:
    # A repeated absorbee would size the pools for more units than it builds.
    graph = write_graph(tmp_path, "g.edges", 120, 0.55, 7)
    assert run("absorber", "build", "--graph", graph, "--x", "0,0,1",
               "--seed", "3") == 2
    assert "distinct" in capsys.readouterr().err


def test_absorber_verify_detects_a_mismatched_host(tmp_path) -> None:
    graph = write_graph(tmp_path, "g.edges", 120, 0.55, 7)
    other = write_graph(tmp_path, "h.edges", 120, 0.15, 8)
    absorber = str(tmp_path / "absorber.json")
    assert run("absorber", "build", "--graph", graph, "--x", "0,1,2",
               "--seed", "3", "--out", absorber) == 0
    assert run("absorber", "verify", "--graph", other,
               "--absorber", absorber) == 1


@pytest.mark.parametrize(
    "description",
    [
        {"units": [], "links": []},
        {"units": [{"x": 0, "star": [1, 2, 3, 4], "blocks": 2,
                    "backbone": [2, 1, 5], "junctions": [[]]}],
         "links": []},
        {"units": [{"x": 0, "star": [1, 2, 3, 4], "blocks": 10**9,
                    "backbone": [2, 1, 5], "junctions": [[]]}],
         "links": []},
        {"units": [{"x": 0, "core": [1, 2, 3, 4]}], "links": [[]]},
        {"units": [{"x": 0, "core": [1, 2, 3]}], "links": []},
        {"units": [{"x": 0}], "links": []},
        {"walk": [1, 2, 0, 3, 4]},
        {"walk": [1, 2, 0, 3, 4], "absorbees": []},
        {"walk": [1, 2, 0, 3, 4], "absorbees": 0},
        {"walk": [1, 2, [0], 3, 4], "absorbees": [0]},
        {"walk": [1.5, 2, 0, 3, 4], "absorbees": [0]},
        {"walk": [1, 2, 0, 3, 4], "absorbees": [True]},
    ],
    ids=["no-units", "short-backbone", "huge-blocks", "extra-link", "short-core",
         "no-core", "no-absorbees", "empty-absorbees", "scalar-absorbees",
         "nested-walk", "float-vertex", "bool-absorbee"],
)
def test_absorber_verify_rejects_malformed_descriptions(
    tmp_path, description
) -> None:
    # Files of the earlier unit formats are refused by their format alone.
    graph = write_graph(tmp_path, "g.edges", 12, 0.5, 0)
    absorber = tmp_path / "absorber.json"
    absorber.write_text(json.dumps(description))
    assert run("absorber", "verify", "--graph", graph,
               "--absorber", str(absorber)) == 2


@pytest.mark.parametrize("where", ["x", "core", "link"])
def test_absorber_verify_rejects_a_huge_vertex_id(tmp_path, capsys, where) -> None:
    # A stored id of 10**12 must be rejected by the range check, not turned
    # into a 10**12-bit integer: as the second absorbee, as v2 of the first
    # core, or as the link vertex between the two cores.
    huge = 10**12
    walk = [1, 2, 0, 3, 4, 19, 11, 12, 10, 13, 14]
    absorbees = [0, 10]
    if where == "x":
        absorbees[1] = huge
    elif where == "core":
        walk[4] = huge
    else:
        walk[5] = huge
    graph = write_graph(tmp_path, "g.edges", 30, 0.5, 0)
    absorber = tmp_path / "absorber.json"
    absorber.write_text(json.dumps({"walk": walk, "absorbees": absorbees}))
    assert run("absorber", "verify", "--graph", graph,
               "--absorber", str(absorber)) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("connect", "--pairs", "0,1,2,3", "--w"),
        ("connect", "--pairs", "0,1,2,3", "--exclude"),
        ("absorber", "build", "--x"),
        ("cover", "--verts"),
    ],
    ids=["connect-w", "connect-exclude", "absorber-build-x", "cover-verts"],
)
def test_vertex_flags_reject_a_huge_id_before_building_a_mask(
    tmp_path, capsys, argv
) -> None:
    # Each flag's vertices become one bitset; an id of 10**12 must exit 2,
    # not ask for a 10**12-bit integer.
    graph = write_graph(tmp_path, "g.edges", 30, 0.5, 0)
    *command, flag = argv
    assert run(*command, "--graph", graph, flag, f"0,1,{10**12}") == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("absorber", "build", "--graph", "G", "--x", "0", "--blocks", "2"),
         "--blocks"),
        (("connect", "--graph", "G", "--pairs", "0,1,2,3", "--b", "1"), "--b"),
        # The gadget command is gone with its flags: a connection is a
        # square path, which has no template to dump.
        (("gadget", "--kind", "backbone", "--length", "8"), "'gadget'"),
        (("gadget", "--kind", "square-path", "--length", "8", "--blocks", "2"),
         "'gadget'"),
        (("gadget", "--kind", "square-path", "--length", "8"), "'gadget'"),
    ],
    ids=["absorber-blocks", "connect-b", "gadget-backbone", "gadget-blocks", "gadget"],
)
def test_the_removed_multi_block_flags_exit_2(tmp_path, capsys, argv, named) -> None:
    graph = write_graph(tmp_path, "g.edges", 12, 0.5, 0)
    assert run(*(graph if a == "G" else a for a in argv)) == 2
    assert named in capsys.readouterr().err


def test_absorber_build_fills_its_pools_with_every_spare_vertex(
    tmp_path, capsys
) -> None:
    # Six absorbees: the cores and links draw from all 194 spare vertices.
    graph = write_graph(tmp_path, "g.edges", 200, 0.45, 1)
    for seed in range(6):
        assert run("absorber", "build", "--graph", graph, "--x", "0,1,2,3,4,5",
                   "--seed", str(seed)) == 0
        assert len(json.loads(capsys.readouterr().out)["absorbees"]) == 6


def test_absorber_build_failure_reports_a_stage(tmp_path, capsys) -> None:
    # The pool is the 25 other vertices.  Absorbees 2, 3 and 0 have fewer
    # pool neighbours than absorbee 1, so their cores come first and leave
    # 13 pool vertices; absorbee 1 finds no core among them, chained onto
    # the unit before in 1 try or plain in 29, and no earlier core is
    # taken back.
    graph = write_graph(tmp_path, "g.edges", 30, 0.5, 0)
    assert run("absorber", "build", "--graph", graph, "--x", "0,1,2,3,4",
               "--seed", "0") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stage"] == "absorber"
    assert payload["diagnostics"] == {
        "absorbee": 1, "pool_degree": 14, "free": 13, "nodes": 30,
    }


def test_absorber_build_partition_failures_record_their_config(
    tmp_path, capsys
) -> None:
    # The manifest records the absorbees and seed on every outcome, a
    # failed core search included.
    graph = write_graph(tmp_path, "g.edges", 30, 0.5, 0)
    out = tmp_path / "ab.json"
    assert run("absorber", "build", "--graph", graph, "--x", "0,1,2,3,4",
               "--seed", "4", "--out", str(out)) == 1
    assert json.loads(out.read_text())["stage"] == "absorber"
    manifest = json.loads((tmp_path / "ab.json.manifest.json").read_text())
    assert manifest["config"] == {"x": [0, 1, 2, 3, 4], "seed": 4}


def test_absorber_build_with_too_few_spare_vertices_fails_in_the_core_search(
    tmp_path, capsys
) -> None:
    # Ten absorbees leave two spare vertices, too few for one core, and the
    # build reports the first search instead of refusing to start:
    # absorbees 8 and 9 see one of them, the others two, so 8 goes first
    # and fails at its first u1.
    graph = write_graph(tmp_path, "g.edges", 12, 0.9, 0)
    assert run("absorber", "build", "--graph", graph,
               "--x", ",".join(map(str, range(10)))) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["stage"] == "absorber"
    assert payload["diagnostics"] == {
        "absorbee": 8, "pool_degree": 1, "free": 2, "nodes": 1,
    }


def test_experiment_json_and_csv_agree_on_seed_count(tmp_path) -> None:
    js, cs = tmp_path / "r.json", tmp_path / "r.csv"
    assert run("experiment", "-n", "40", "-p", "0.5", "--gamma", "0.1",
               "--seeds", "2", "--out", str(js)) == 0
    assert run("experiment", "-n", "40", "-p", "0.5", "--gamma", "0.1",
               "--seeds", "2", "--format", "csv", "--out", str(cs)) == 0
    report = json.loads(js.read_text())
    assert len(report["per_seed"]) == 2
    assert len(cs.read_text().strip().split("\n")) == 3


def test_experiment_jobs_do_not_change_the_bytes(tmp_path) -> None:
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    base = ["experiment", "-n", "40", "-p", "0.5", "--gamma", "0.1",
            "--seeds", "3"]
    assert run(*base, "--jobs", "1", "--out", str(one)) == 0
    assert run(*base, "--jobs", "2", "--out", str(two)) == 0
    assert one.read_bytes() == two.read_bytes()


def test_experiment_rejects_jobs_below_one(capsys) -> None:
    base = ["experiment", "-n", "20", "-p", "0.5", "--gamma", "0.05",
            "--seeds", "2"]
    assert run(*base, "--jobs", "0") == 2
    assert run(*base, "--jobs", "-3") == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


def test_module_entry_point_runs_the_command() -> None:
    src = str(Path(squareham.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "squareham.cli", "experiment", "-n", "20",
         "-p", "0.5", "--gamma", "0.05", "--seeds", "2", "--jobs", "0"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "jobs must be at least 1" in proc.stderr


def test_cover_reports_paths_and_leftover(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 60, 0.7, 2)
    assert run("cover", "--graph", graph, "--seed", "1") == 0
    payload = json.loads(capsys.readouterr().out)
    assert "paths" in payload and "leftover" in payload
    covered = sum(len(p) for p in payload["paths"]) + len(payload["leftover"])
    assert covered == 60
    out = str(tmp_path / "cover.json")
    assert run("cover", "--graph", graph, "--seed", "1", "--out", out) == 0
    manifest = json.loads((tmp_path / "cover.json.manifest.json").read_text())
    assert manifest["config"] == {"seed": 1}


def test_cover_rejects_bad_parameters(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 20, 0.5, 2)
    # The cover takes no tuning settings, so these are unknown options.
    for flag, value in (("--class-floor", "0"), ("--eps", "1.5"),
                        ("--budget", "-1"), ("--budget", "5")):
        assert run("cover", "--graph", graph, flag, value) == 2
    assert run("cover", "--graph", graph, "--verts", "999") == 2
    capsys.readouterr()


def test_retired_pipeline_settings_are_unknown_options(tmp_path, capsys) -> None:
    graph = write_graph(tmp_path, "g.edges", 30, 1.0, 0)
    config = tmp_path / "pipeline.cfg"
    config.write_text("restarts = 4\n")
    # The seed is the pipeline's one setting; the rest are constants.
    assert run("find", "--graph", graph, "--config", str(config)) == 2
    assert run("connect", "--graph", graph, "--pairs", "0,1,2,3",
               "--retries", "3") == 2
    capsys.readouterr()


def test_negative_seeds_are_a_usage_error(tmp_path, capsys) -> None:
    assert run("generate", "-n", "5", "-p", "0.5", "--seed", "-1") == 2
    assert "non-negative" in capsys.readouterr().err
    assert run("experiment", "-n", "20", "-p", "0.5", "--gamma", "0.1",
               "--seeds", "-3") == 2
    assert "non-negative" in capsys.readouterr().err
    # Each seed is checked before any search, and the message names the
    # seed given, not one derived from it: three target vertices start no
    # cover search, and the absorber build checks it before its core search.
    host = write_graph(tmp_path, "g.edges", 30, 0.5, 0)
    complete = write_graph(tmp_path, "k.edges", 30, 1.0, 0)
    for argv in (
        ("connect", "--graph", complete, "--pairs", "0,1,2,3"),
        ("cover", "--graph", host, "--verts", "0,1,2"),
        ("cover", "--graph", host),
        ("absorber", "build", "--graph", host, "--x", "0,1,2"),
    ):
        assert run(*argv, "--seed", "-1") == 2, argv
        assert capsys.readouterr().err == (
            "error: seed must be non-negative, got -1\n"
        ), argv


def test_vertex_counts_no_list_can_index_are_a_usage_error(tmp_path, capsys) -> None:
    # Each count is rejected before anything is allocated.
    for n in (10**20, 2**63):
        edges, obj = tmp_path / "big.edges", tmp_path / "big.json"
        edges.write_text(f"{n} 0\n")
        obj.write_text(json.dumps({"n": n, "edges": []}))
        for argv in (
            ("find", "--graph", str(edges)),
            ("find", "--graph", str(obj)),
            ("generate", "-n", str(n), "-p", "0.5"),
            ("experiment", "-n", str(n), "-p", "0.5", "--gamma", "0.1",
             "--seeds", "1"),
        ):
            assert run(*argv) == 2, argv
            assert f"must be at most {sys.maxsize}, got {n}" in capsys.readouterr().err


def test_missing_input_files_exit_three(tmp_path) -> None:
    assert run("find", "--graph", str(tmp_path / "absent.edges")) == 3
    assert run("verify", "--graph", str(tmp_path / "absent.edges"),
               "--certificate", str(tmp_path / "nope.json")) == 3


def test_malformed_graph_files_are_usage_errors(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.edges"
    bad.write_text("3 5\n0 1\n")
    assert run("find", "--graph", str(bad)) == 2
    for text in (
        '{"n": "x", "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [[0, null]]}',
        '{"n": 3, "edges": [[0, 1.5]]}',
        '{"n": 3, "edges": [[0, true]]}',
    ):
        capsys.readouterr()
        bad.write_text(text)
        assert run("find", "--graph", str(bad)) == 2, text
        assert "error:" in capsys.readouterr().err, text


def test_argparse_failures_surface_as_exit_two(capsys) -> None:
    assert run() == 2
    assert run("generate", "-n", "5") == 2
    capsys.readouterr()


def test_version_flag_exits_cleanly(capsys) -> None:
    assert run("--version") == 0
    assert capsys.readouterr().out.strip()
