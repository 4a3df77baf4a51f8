"""Which library functions the traced run wraps, and the per-layer metrics.

Each layer is one module of ``squareham``.  A function is wrapped in every
module namespace that holds it, because callers look names up in their own
module (``hamiltonian`` imports ``build_single_absorbers`` by name, for
example).  ``connect_one`` is the exception: its spans are named after the
call site, since backbones, junctions, links and assembly all go through
it.  ``Graph.has_edge`` and ``Graph.neighbors`` are deliberately left
alone: a single n = 200 solve calls them hundreds of thousands of times,
and a span around each would swamp the spans around them.
"""

from __future__ import annotations

import functools
import types
from collections import Counter

from squareham import (
    absorber,
    adversary,
    connector,
    gadgets,
    graphcore,
    hamiltonian,
    matching,
)

from tracer import Tracer

MODULES = (graphcore, gadgets, matching, connector, absorber, hamiltonian, adversary)

# (module defining the function, attribute, span name)
FUNCTIONS = (
    (absorber, "verify_absorber", "absorber.verify_absorber"),
    (absorber, "absorb", "absorber.absorb"),
    (absorber, "build_single_absorbers", "absorber.build_single_absorbers"),
    (absorber, "complete_absorbers", "absorber.complete_absorbers"),
    (absorber, "chain_absorbers", "absorber.chain_absorbers"),
    (gadgets, "is_square_path", "gadgets.is_square_path"),
    (gadgets, "validate_embedding", "gadgets.validate_embedding"),
    (matching, "hall_saturating_matching", "matching.hall_saturating_matching"),
    (hamiltonian, "find_square_ham", "hamiltonian.find_square_ham"),
    (hamiltonian, "cover_with_square_paths", "hamiltonian.cover_with_square_paths"),
    (hamiltonian, "match_leftover", "hamiltonian.match_leftover"),
    (hamiltonian, "verify_certificate", "hamiltonian.verify_certificate"),
    (graphcore, "gnp_generate", "graphcore.gnp_generate"),
    (graphcore, "triangle_profile", "graphcore.triangle_profile"),
    (graphcore, "edges_within", "graphcore.edges_within"),
    (adversary, "k3_attack", "adversary.k3_attack"),
    (adversary, "prune_triangle_poor_edges", "adversary.prune_triangle_poor_edges"),
)

# Methods of graphcore.Graph: (attribute, span name)
GRAPH_METHODS = (
    ("__init__", "graphcore.Graph"),
    ("edges", "graphcore.edges"),
    ("is_subgraph_of", "graphcore.is_subgraph_of"),
)

CONNECT_KINDS = ("backbone", "junction", "link", "assembly")
STAGES = hamiltonian.STAGES

SECONDS = "s"
COUNT = "count"

# Per-layer metric names and units, in report order.
METRICS: dict[str, str] = {
    "absorber.verify_absorber.s": SECONDS,
    "absorber.verify_absorber.traversals": COUNT,
    "absorber.absorb.s": SECONDS,
    "absorber.build_single_absorbers.s": SECONDS,
    "absorber.complete_absorbers.s": SECONDS,
    "absorber.chain_absorbers.s": SECONDS,
    "gadgets.is_square_path.s": SECONDS,
    "gadgets.is_square_path.calls": COUNT,
    "gadgets.validate_embedding.s": SECONDS,
    **{
        f"connector.{kind}.{field}": unit
        for kind in CONNECT_KINDS
        for field, unit in (("s", SECONDS), ("calls", COUNT), ("ok_ratio", "ratio"))
    },
    "connector.direct.calls": COUNT,
    "connector.projection.calls": COUNT,
    "connector.pool.mean": "vertices",
    "matching.hall_saturating_matching.s": SECONDS,
    "matching.hall_saturating_matching.calls": COUNT,
    "matching.hall_saturating_matching.deficient_ratio": "ratio",
    "hamiltonian.find_square_ham.s": SECONDS,
    "hamiltonian.attempts_per_op": "attempts/op",
    "hamiltonian.cover_with_square_paths.s": SECONDS,
    "hamiltonian.match_leftover.s": SECONDS,
    "hamiltonian.verify_certificate.s": SECONDS,
    **{f"hamiltonian.fail.{stage}": COUNT for stage in STAGES},
    "graphcore.gnp_generate.s": SECONDS,
    "graphcore.Graph.s": SECONDS,
    "graphcore.Graph.calls": COUNT,
    "graphcore.edges.s": SECONDS,
    "graphcore.triangle_profile.s": SECONDS,
    "graphcore.is_subgraph_of.s": SECONDS,
    "graphcore.edges_within.s": SECONDS,
    "adversary.k3_attack.s": SECONDS,
    "adversary.prune_triangle_poor_edges.s": SECONDS,
    "trace.overhead_s": SECONDS,
    "trace.spans": COUNT,
}


def _holders(fn: object) -> list[types.ModuleType]:
    """Every library module whose namespace binds ``fn``."""
    return [m for m in MODULES if m.__dict__.get(fn.__name__) is fn]


def install(tracer: Tracer) -> None:
    """Wrap every traced function; undo with ``tracer.restore()``."""
    c = tracer.counters

    def after_verify_absorber(res, *args, **kwargs):
        c["absorber.verify_absorber.traversals"] += res.subsets_checked

    def after_matching(res, *args, **kwargs):
        c["matching.deficient"] += res.status != "matched"

    afters = {
        "absorber.verify_absorber": after_verify_absorber,
        "matching.hall_saturating_matching": after_matching,
    }
    for home, attr, name in FUNCTIONS:
        fn = getattr(home, attr)
        wrapper = tracer.wrap(fn, name, afters.get(name))
        for module in _holders(fn):
            tracer.patch(module, attr, wrapper)

    for attr, name in GRAPH_METHODS:
        fn = graphcore.Graph.__dict__[attr]
        tracer.patch(graphcore.Graph, attr, tracer.wrap(fn, name))

    # connect_one: the span name says which pipeline step asked.
    def absorber_kind(g, req, *args, **kwargs) -> str:
        if tracer.current() == "absorber.chain_absorbers":
            return "connector.link"
        return "connector.backbone" if req.b == 2 else "connector.junction"

    connect = connector.connect_one
    for module, kind in ((absorber, absorber_kind), (hamiltonian, "connector.assembly")):
        tracer.patch(module, "connect_one", _connect_wrapper(tracer, connect, kind))

    # The route a call took, and the reservoir it drew from, are seen where
    # connect_one hands over to the direct template search.
    direct = connector._direct_connect

    def direct_counted(g, req, pool, *args, **kwargs):
        c["connector.direct.calls"] += 1
        c["connector.pool.sum"] += len(pool)
        return direct(g, req, pool, *args, **kwargs)

    tracer.patch(connector, "_direct_connect", direct_counted)


def _connect_wrapper(tracer: Tracer, connect, kind) -> object:
    c = tracer.counters

    @functools.wraps(connect)
    def wrapper(g, req, *args, **kwargs):
        name = kind(g, req, *args, **kwargs) if callable(kind) else kind
        direct_before = c["connector.direct.calls"]
        with tracer.span(name):
            res = connect(g, req, *args, **kwargs)
        if c["connector.direct.calls"] == direct_before:
            c["connector.projection.calls"] += 1
        c[f"{name}.ok"] += res.ok
        return res

    return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(
    tracer: Tracer, ops: int, fail_stages: Counter, overhead_s: float
) -> dict[str, float]:
    """Per-layer numbers from one traced pass; a layer that never ran reads 0.

    Times are self times summed over the traced set-up and the traced ops.
    """
    own = tracer.self_times()
    c = tracer.counters
    out: dict[str, float] = {}
    for name in METRICS:
        base, _, field = name.rpartition(".")
        if name in c:
            out[name] = c[name]
        elif field == "s":
            out[name] = own.get(base, (0.0, 0))[0]
        elif field == "calls":
            out[name] = own.get(base, (0, 0))[1]
        else:
            out[name] = 0.0
    for kind in CONNECT_KINDS:
        calls = own.get(f"connector.{kind}", (0.0, 0))[1]
        out[f"connector.{kind}.ok_ratio"] = _ratio(c[f"connector.{kind}.ok"], calls)
    out["connector.pool.mean"] = _ratio(c["connector.pool.sum"], c["connector.direct.calls"])
    hall_calls = own.get("matching.hall_saturating_matching", (0.0, 0))[1]
    out["matching.hall_saturating_matching.deficient_ratio"] = _ratio(
        c["matching.deficient"], hall_calls
    )
    attempts = own.get("absorber.build_single_absorbers", (0.0, 0))[1]
    out["hamiltonian.attempts_per_op"] = _ratio(attempts, ops)
    for stage in STAGES:
        out[f"hamiltonian.fail.{stage}"] = fail_stages[stage]
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tracer.spans)
    return out
