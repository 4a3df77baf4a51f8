"""Self-tests of the benchmark harness (not of the library it measures)."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import workloads  # noqa: E402
from squareham import graphcore  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class TinySolve(workloads.GnpSolve):
    cells = ((60, 0.7), (60, 0.6))
    hosts = (1, 1)
    every = (1, 1)


class TinyAttacked(workloads.AttackedSolve):
    cells = ((60, 0.6),)
    hosts = (1,)
    every = (1,)


class TinySweep(workloads.AttackSweep):
    cells = ((60, 0.5),)
    hosts = (1,)
    every = (1,)


def _namespaces() -> dict:
    spaces = {m.__name__: dict(vars(m)) for m in layers.MODULES}
    spaces["Graph"] = dict(vars(graphcore.Graph))
    return spaces


def test_tracer_restores_every_patched_attribute():
    before = _namespaces()
    tracer = Tracer()
    layers.install(tracer)
    try:
        patched = _namespaces()
        changed = {
            (space, attr)
            for space, attrs in before.items()
            for attr, value in attrs.items()
            if patched[space][attr] is not value
        }
        assert ("squareham.hamiltonian", "build_single_absorbers") in changed
        assert ("squareham.absorber", "connect_one") in changed
        assert ("squareham.hamiltonian", "connect_one") in changed
        assert ("squareham.adversary", "triangle_profile") in changed
        assert ("Graph", "__init__") in changed
        assert ("Graph", "has_edge") not in changed
        assert ("Graph", "neighbors") not in changed
    finally:
        tracer.restore()
    after = _namespaces()
    for space, attrs in before.items():
        assert after[space].keys() == attrs.keys()
        for attr, value in attrs.items():
            assert after[space][attr] is value, f"{space}.{attr} not restored"


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    with tracer.op(0):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    own = tracer.self_times()
    outer, inner = tracer.spans[1], tracer.spans[2]
    assert inner[3] == 1 and outer[3] == 0 and inner[4] == 0
    assert own["outer"][0] == (outer[2] - outer[1]) - (inner[2] - inner[1])
    assert own["inner"][1] == 1


def test_tiny_workloads_fingerprint_the_same_traced_and_untraced():
    for w in (TinySolve(), TinyAttacked(), TinySweep()):
        inputs = w.build(3)
        ops = w.ops(3, 2)
        plain = workloads.run_ops(w, inputs, ops)
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = workloads.run_ops(w, inputs, ops, tracer)
        finally:
            tracer.restore()
        assert [r.outcome.fingerprint for r in plain] == [
            r.outcome.fingerprint for r in traced
        ]
        assert all(r.outcome.correct for r in plain + traced)
        assert tracer.spans and all(rec[2] >= rec[1] for rec in tracer.spans)


def test_names_are_well_formed_and_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert all(NAME.fullmatch(n) for n in layers.METRICS)


def test_run_records_its_seed_and_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "attack-sweep",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    record = json.loads((BENCH / "results" / "attack-sweep-seed5-trace0.json").read_text())
    assert record["seed"] == 5
    assert record["settings"]["env"]["OPENBLAS_NUM_THREADS"] == "1"
