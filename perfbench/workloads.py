"""The three benchmark workloads: inputs from a seed, a fixed op list, checks.

A workload builds its inputs once (``build``), then runs a list of ops that
depends only on the workload seed and the op count.  Each op is one call a
user of ``artifact find`` or ``artifact experiment`` would make and wait
for.  ``judge`` looks at what an op returned, after its timer has stopped,
and says whether it was a success, whether the answer was correct, and
gives it a fingerprint that must repeat exactly on every run of the same
code.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass

import speed
from squareham import adversary, graphcore, hamiltonian
from squareham.hamiltonian import Certificate, FailureReport, PipelineConfig

# Bound before any tracer patches the module, so re-verification after an
# op's timer stops never shows up as a traced span.
verify_certificate = hamiltonian.verify_certificate

GAMMA = 0.05


@dataclass(frozen=True)
class Op:
    """One closed-loop call: which cell, which prebuilt host, which seed."""

    index: int
    cell: int
    host: int
    seed: int


@dataclass(frozen=True)
class Outcome:
    """What the benchmark concluded about one op's result.

    ``kind`` is ``certificate``, ``failure``, ``report`` or ``error``.
    ``correct`` is false only for an answer that is wrong, such as a
    certificate that does not verify; an op that raised is an error, not
    a wrong answer.
    """

    kind: str
    success: bool
    correct: bool
    fingerprint: str
    detail: str = ""


def digest(obj) -> str:
    """Short stable hash of a JSON-able object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _sub_seed(seed: int, *parts: int) -> int:
    """Deterministic non-negative seed for one input or op of a run."""
    out = seed
    for p in parts:
        out = out * 1_000_003 + p
    return out % (1 << 31)


def _judge_solve(g, result, attacked: bool) -> Outcome:
    if isinstance(result, Certificate):
        ok = verify_certificate(g, result).ok
        fp = "cert:" + digest(list(result.order))
        if attacked:
            # The attacked class is independent and holds more than n/3
            # vertices, so no square Hamilton cycle exists.
            return Outcome("certificate", False, False, fp, "certificate for an attacked graph")
        return Outcome("certificate", ok, ok, fp, "" if ok else "certificate fails verification")
    if isinstance(result, FailureReport):
        fp = f"fail:{result.stage}:" + digest(hamiltonian.jsonable(result.diagnostics))
        return Outcome("failure", attacked, True, fp, result.stage)
    return Outcome("failure", False, False, "unknown", f"unexpected result {type(result).__name__}")


class Workload:
    """Cells of (n, p), each with ``hosts`` prebuilt inputs.

    Round ``r`` of the op list visits cell ``c`` when ``r % every[c] == 0``,
    cycling through the cell's hosts.  Cells are interleaved, so slow drift
    of the machine touches every cell alike.  ``round_s`` is the nominal
    time of one round at reference speed; ``--seconds`` divided by it gives
    the number of rounds.
    """

    name: str
    cells: tuple[tuple[int, float], ...]
    hosts: tuple[int, ...]
    every: tuple[int, ...]
    round_s: float

    def ops(self, seed: int, rounds: int) -> list[Op]:
        out = []
        for r in range(rounds):
            for c, (k, every) in enumerate(zip(self.hosts, self.every)):
                if r % every == 0:
                    out.append(Op(len(out), c, r // every % k, _sub_seed(seed, 7, r, c)))
        return out

    def label(self, op: Op) -> str:
        n, p = self.cells[op.cell]
        return f"({n},{p})#{op.host}"

    def check_inputs(self, inputs) -> list[str]:
        """Problems with the inputs themselves; none by default."""
        return []


class GnpSolve(Workload):
    """``find_square_ham`` on G(n, p) hosts built in set-up."""

    name = "gnp-solve"
    cells = ((200, 0.5), (200, 0.7), (400, 0.35), (800, 0.5), (800, 0.7), (2000, 0.5))
    # Solve time depends on the host as much as on the pipeline seed, so the
    # cheap cells get several hosts.  One G(2000, .5) holds a few hundred
    # MB, so that cell gets one.
    hosts = (6, 6, 3, 2, 2, 1)
    # Order statistics over a mix of cells jump from run to run when they
    # fall between two groups of ops, so the mix keeps them inside one.
    # op_tail_s is the time with 10 ops above it; the slowest ops come from
    # (2000, .5) and from (200, .5) solves that restart, so those cells run
    # every twelfth and every third round, and fewer than 10 such ops fall
    # in a run.  (400, .35) and (800, .7) fail or finish fast; with both in
    # every round they would make up half the ops and put the median at the
    # edge of that group, so (400, .35) runs every second round.
    every = (3, 1, 2, 1, 1, 12)
    round_s = 0.78

    def build(self, seed: int) -> list[list[graphcore.Graph]]:
        return [
            [graphcore.gnp_generate(n, p, _sub_seed(seed, c, h)) for h in range(k)]
            for c, ((n, p), k) in enumerate(zip(self.cells, self.hosts))
        ]

    def call(self, inputs, op: Op):
        g = inputs[op.cell][op.host]
        return hamiltonian.find_square_ham(g, config=PipelineConfig(seed=op.seed))

    def judge(self, inputs, op: Op, result) -> Outcome:
        return _judge_solve(inputs[op.cell][op.host], result, attacked=False)


@dataclass(frozen=True)
class AttackedHost:
    gamma_host: graphcore.Graph
    attacked: graphcore.Graph
    v1: tuple[int, ...]


class AttackedSolve(Workload):
    """``find_square_ham`` on ``k3_attack``-ed hosts, where "no" is right."""

    name = "attacked-solve"
    cells = ((400, 0.5), (600, 0.5), (600, 0.7))
    hosts = (2, 2, 2)
    every = (1, 1, 1)
    round_s = 1.1

    def build(self, seed: int) -> list[list[AttackedHost]]:
        out = []
        for c, ((n, p), k) in enumerate(zip(self.cells, self.hosts)):
            row = []
            for h in range(k):
                host_seed = _sub_seed(seed, c, h)
                gamma_host = graphcore.gnp_generate(n, p, host_seed)
                attack = adversary.k3_attack(gamma_host, GAMMA, host_seed)
                row.append(AttackedHost(gamma_host, attack.attacked, attack.v1))
            out.append(row)
        return out

    def call(self, inputs, op: Op):
        h = inputs[op.cell][op.host]
        return hamiltonian.find_square_ham(
            h.attacked, gamma_host=h.gamma_host, config=PipelineConfig(seed=op.seed)
        )

    def judge(self, inputs, op: Op, result) -> Outcome:
        return _judge_solve(inputs[op.cell][op.host].attacked, result, attacked=True)

    def check_inputs(self, inputs) -> list[str]:
        """Each attacked class must prove that "no" is the right answer.

        The square of C_n has independence number floor(n/3), so an
        independent set of more than n/3 vertices rules it out.
        """
        bad = []
        for row in inputs:
            for h in row:
                members = set(h.v1)
                if 3 * len(members) <= h.attacked.n or any(
                    h.attacked.neighbors(v) & members for v in members
                ):
                    bad.append(f"attacked class of an n={h.attacked.n} host is no witness")
        return bad


class AttackSweep(Workload):
    """``resilience_experiment`` with one seed per op."""

    name = "attack-sweep"
    # n = 400 twice per round: with a 1:1 mix the median op would sit in the
    # gap between the two sizes and jump between them from run to run.
    cells = ((400, 0.5), (400, 0.5), (600, 0.5))
    hosts = (1, 1, 1)
    every = (1, 1, 1)
    round_s = 1.25

    def build(self, seed: int) -> None:
        return None

    def call(self, inputs, op: Op):
        n, p = self.cells[op.cell]
        return adversary.resilience_experiment(n, p, GAMMA, [op.seed], jobs=1)

    def judge(self, inputs, op: Op, report) -> Outcome:
        n, p = self.cells[op.cell]
        fp = "report:" + digest(report)
        params, per_seed, agg = report["params"], report["per_seed"], report["aggregates"]
        rec = per_seed[0] if len(per_seed) == 1 else {}
        wrong = []
        if params["n"] != n or params["p"] != p or params["seeds"] != [op.seed]:
            wrong.append("params do not echo the request")
        if rec.get("seed") != op.seed:
            wrong.append("per-seed record is for another seed")
        if rec.get("v1_size") != adversary.attack_class_size(n, GAMMA):
            wrong.append("attacked class has the wrong size")
        for key in ("min_retained", "mean_retained", "class_retained_v1", "class_retained_v2"):
            if not 0.0 <= rec.get(key, -1.0) <= 1.0:
                wrong.append(f"{key} outside [0, 1]")
        success = not wrong and (
            agg["retained_band_fraction"] == 1
            and agg["destroyed_band_fraction"] == 1
            and agg["density_pass_fraction"] == 1
        )
        return Outcome("report", success, not wrong, fp, "; ".join(wrong))


WORKLOADS = {w.name: w for w in (GnpSolve(), AttackedSolve(), AttackSweep())}


@dataclass(frozen=True)
class Timed:
    """One op as run: its outcome, its wall time, and that time at
    reference machine speed (see :mod:`speed`)."""

    outcome: Outcome
    raw_s: float
    seconds: float


def run_op(w, inputs, op: Op) -> tuple[float, Outcome]:
    """Time one call; judge its result only after the timer has stopped."""
    t = time.perf_counter()
    try:
        result = w.call(inputs, op)
    except Exception as exc:  # every raised error is counted, never fatal
        dt = time.perf_counter() - t
        name = type(exc).__name__
        return dt, Outcome("error", False, True, f"error:{name}", f"{name}: {exc}")
    dt = time.perf_counter() - t
    return dt, w.judge(inputs, op, result)


def run_ops(w, inputs, ops: list[Op], tracer=None) -> list[Timed]:
    """Run ops back to back, timing the calibration kernel between them.

    With a tracer, each op is one root span; the kernel runs outside it.
    """
    out = []
    before = speed.calibrate()
    for op in ops:
        if tracer is None:
            dt, outcome = run_op(w, inputs, op)
        else:
            with tracer.op(op.index):
                dt, outcome = run_op(w, inputs, op)
        after = speed.calibrate()
        out.append(Timed(outcome, dt, dt * speed.scale(before, after)))
        before = after
    return out


def setup(w, seed: int, first_op: Op, repeats: int):
    """Build the inputs and run one untimed warm-up op, ``repeats`` times.

    Returns the last inputs, every repeat's duration at reference speed and
    as measured, and the warm-up outcomes (which must all agree with the
    timed run of the same op).
    """
    durations, raw, warm = [], [], []
    inputs = None
    for _ in range(repeats):
        inputs = None  # let the previous copy go before building the next
        gc.collect()
        before = speed.calibrate()
        t = time.perf_counter()
        inputs = w.build(seed)
        _, outcome = run_op(w, inputs, first_op)
        dt = time.perf_counter() - t
        durations.append(dt * speed.scale(before, speed.calibrate()))
        raw.append(dt)
        warm.append(outcome)
    return inputs, durations, raw, warm
