"""Benchmark for squareham: closed-loop solves and attack sweeps.

Usage (from the repository root):

    python3 perfbench/run.py --workload gnp-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs a fixed list of ops, each only after the previous one has
returned.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the same op list untraced and then traced, and reports per-layer metrics
from the traced pass plus the tracing overhead.  A table of every metric
goes to standard output, followed by one JSON line; the full record of
the run, every op included, is written under ``perfbench/results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

# Pinned before numpy loads: triangle counting and pruning use BLAS matmul,
# whose thread pool otherwise spreads the same work unevenly across runs.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (standard library only)

START_SPEED = speed.calibrate()
RESULTS = HERE / "results"
NAMES = ("gnp-solve", "attacked-solve", "attack-sweep")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# End-to-end metrics in the JSON line: name -> unit.  Times are at reference
# machine speed (see speed.py).  EXTRA metrics are 0 on some workloads, so
# they appear only in the table and the record; raised ops are also the
# JSON line's "failed" count.
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
EXTRA = {"error_rate": "ratio", "certs_per_s": "1/s"}


def _load_library():
    """Import the library from this checkout's ``src``; None if it is absent."""
    if not (SRC / "squareham" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import squareham

    if Path(squareham.__file__).resolve().parent != SRC / "squareham":
        return None
    return squareham


def _tail(times: list[float]) -> tuple[float, float]:
    """The op time with ``TAIL_BEYOND`` ops above it, and its percentile."""
    ranked = sorted(times)
    k = len(ranked) - TAIL_BEYOND - 1 if len(ranked) > TAIL_BEYOND else len(ranked) - 1
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def _end_to_end(setup_s: float, runs, field: str = "seconds") -> dict[str, float]:
    """End-to-end metrics from op times at reference speed (or ``raw_s``)."""
    times = [getattr(r, field) for r in runs]
    outcomes = [r.outcome for r in runs]
    busy = sum(times)
    n = len(runs)
    return {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": _tail(times)[0],
        "ops_per_s": n / busy,
        "success_rate": sum(o.success for o in outcomes) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": sum(o.kind == "error" for o in outcomes) / n,
        "certs_per_s": sum(o.kind == "certificate" and o.success for o in outcomes) / busy,
    }


def _op_records(w, ops, runs, traced=None) -> list[dict]:
    recs = []
    for i, (op, r) in enumerate(zip(ops, runs)):
        rec = {
            "op": op.index,
            "input": w.label(op),
            "seed": op.seed,
            "seconds": r.seconds,
            "raw_s": r.raw_s,
            "kind": r.outcome.kind,
            "success": r.outcome.success,
            "correct": r.outcome.correct,
            "fingerprint": r.outcome.fingerprint,
            "detail": r.outcome.detail,
        }
        if traced is not None:
            rec["traced_seconds"] = traced[i].seconds
        recs.append(rec)
    return recs


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if _load_library() is None:
        print(f"error: no squareham sources under {SRC}", file=sys.stderr)
        return 2
    import numpy

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS, run_ops, setup

    raw_import_s = time.perf_counter() - START
    import_s = raw_import_s * speed.scale(START_SPEED, speed.calibrate())
    w = WORKLOADS[name]
    rounds = max(1, round(seconds / w.round_s))
    ops = w.ops(seed, rounds)

    inputs, setup_runs, raw_setup, warm = setup(w, seed, ops[0], SETUP_REPEATS)
    setup_s = import_s + statistics.median(setup_runs)
    problems = w.check_inputs(inputs)

    runs = run_ops(w, inputs, ops)
    e2e = _end_to_end(setup_s, runs)
    raw = _end_to_end(raw_import_s + statistics.median(raw_setup), runs, "raw_s")
    fingerprints = [r.outcome.fingerprint for r in runs]
    if any(o.fingerprint != fingerprints[0] for o in warm):
        problems.append("warm-up and timed runs of op 0 disagree")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(ops),
        "rounds": rounds,
        "settings": {
            "env": {k: os.environ.get(k) for k in PINNED_ENV},
            "setup_repeats": SETUP_REPEATS,
            "reference_s": speed.REFERENCE_S,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpus": os.cpu_count(),
        },
        "setup": {
            "import_s": import_s,
            "repeats_s": setup_runs,
            "raw_import_s": raw_import_s,
            "raw_repeats_s": raw_setup,
        },
        "tail_percentile": _tail([r.seconds for r in runs])[1],
    }
    traced_runs = None
    if trace:
        inputs = None
        gc.collect()
        tracer = Tracer()
        layers.install(tracer)
        try:
            with tracer.op(-1, "setup"):
                inputs = w.build(seed)
            traced_runs = run_ops(w, inputs, ops, tracer)
        finally:
            tracer.restore()
        if [r.outcome.fingerprint for r in traced_runs] != fingerprints:
            problems.append("traced and untraced fingerprints disagree")
        overhead = sum(r.seconds for r in traced_runs) - sum(r.seconds for r in runs)
        fails = Counter(
            r.outcome.detail for r in traced_runs if r.outcome.kind == "failure"
        )
        metrics = layers.metrics(tracer, len(ops), fails, overhead)
        units = layers.METRICS
        record["counters"] = dict(tracer.counters)
    else:
        metrics = {k: e2e[k] for k in END_TO_END}
        units = END_TO_END

    outcomes = [r.outcome for r in runs + (traced_runs or [])]
    problems += [o.detail for o in outcomes if not o.correct]
    correct = not problems
    errors = Counter(
        r.outcome.detail.split(":")[0] for r in runs if r.outcome.kind == "error"
    )
    record.update(
        correct=correct,
        problems=problems,
        end_to_end=e2e,
        end_to_end_raw=raw,
        per_layer=metrics if trace else None,
        errors=dict(errors),
        per_op=_op_records(w, ops, runs, traced_runs),
    )
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, separators=(",", ":")))
    if trace:
        # One span per line: [name, start, end, parent index, op id].
        with gzip.open(RESULTS / f"{name}-seed{seed}-spans.jsonl.gz", "wt") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in tracer.spans)

    print(f"# workload {name}  seed {seed}  ops {len(ops)}  "
          f"op_tail_s = p{record['tail_percentile']:.0f} "
          f"({TAIL_BEYOND if len(ops) > TAIL_BEYOND else 0} ops beyond)  "
          f"record {out_path.relative_to(ROOT)}")
    print(f"# {'metric':<50} {'at ref speed':>14} {'raw wall':>14}")
    for k, unit in {**END_TO_END, **EXTRA}.items():
        print(f"{k:<52} {e2e[k]:>14.6g} {raw[k]:>14.6g} {unit}")
    if errors:
        print("# errors by type: " + ", ".join(f"{k} x{v}" for k, v in errors.items()))
    if trace:
        for k, unit in units.items():
            print(f"{k:<52} {metrics[k]:>14.6g} {unit}")
    for p in problems:
        print(f"# INCORRECT: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(errors.values()),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # One process per workload, so each reports its own peak memory.
    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
