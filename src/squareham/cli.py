"""Command-line front end: generation, attacks, pipeline runs, inspection.

Every artifact-writing invocation drops a ``<out>.manifest.json`` sidecar
recording the command, resolved configuration, seeds, library version, and
wall-clock time.  Outputs themselves are deterministic for fixed seeds; the
manifest (which carries timing) is the one file excluded from that contract.

Exit codes: 0 success, 1 algorithmic failure (a report is still emitted),
2 usage or input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__
from .absorber import absorber_from_json_obj, verify_absorber
from .adversary import (
    experiment_report_to_csv,
    k3_attack,
    resilience_experiment,
    triangle_retention_profile,
)
from .connector import connect_one
from .graphcore import (
    Graph,
    InputError,
    gnp_generate,
    graph_to_edgelist_text,
    graph_to_json_obj,
    mask_of,
    read_graph,
)
from .hamiltonian import (
    Certificate,
    FailureReport,
    PipelineConfig,
    build_absorber,
    certificate_from_json_obj,
    cover_with_square_paths,
    failure_report_to_json_obj,
    find_square_ham,
    jsonable,
    verify_certificate,
    verify_witness,
    witness_from_json_obj,
)

_USAGE_ERROR = 2
_IO_ERROR = 3


def _json_text(obj) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def _read_json(path: str):
    """The JSON value the file at ``path`` holds; text that is no UTF-8 or
    no JSON is an input error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # text that is no JSON, or bytes that are no UTF-8
        raise InputError(f"malformed JSON input: {exc}") from None


def _ints(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(tok) for tok in text.replace(";", ",").split(","))
    except ValueError as exc:
        raise InputError(f"expected a comma-separated integer list: {text!r}") from exc


def _vertex_mask(g: Graph, text: str) -> int:
    """The bitset of a comma-separated list of vertices of ``g``; a huge id
    is rejected before it asks for a huge integer, a negative one by mask_of."""
    vs = _ints(text)
    if vs and max(vs) >= g.n:
        g.check_vertex(max(vs))
    return mask_of(vs)


def _job(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Parse ``a,b,c,d`` into the one job ((a,b),(c,d))."""
    if ";" in text:
        raise InputError(
            f"connect serves one job; run it once per job, with the other "
            f"jobs' ports and the earlier paths in --exclude — got {text!r}"
        )
    vals = _ints(text)
    if len(vals) != 4:
        raise InputError(f"a job needs four vertices from,from,to,to — got {text!r}")
    return (vals[0], vals[1]), (vals[2], vals[3])


def _cmd_generate(args) -> tuple[int, str, dict]:
    g = gnp_generate(args.n, args.p, args.seed)
    text = (
        graph_to_edgelist_text(g)
        if args.format == "edgelist"
        else _json_text(graph_to_json_obj(g))
    )
    return 0, text, {"n": args.n, "p": args.p, "seed": args.seed}


def _cmd_attack(args) -> tuple[int, str, dict]:
    g = read_graph(args.graph)
    res = k3_attack(g, args.gamma, args.seed)
    if args.format == "edgelist":
        text = graph_to_edgelist_text(res.attacked)
    else:
        text = _json_text(
            {
                "v1": list(res.v1),
                "v2": list(res.v2),
                "removed_edge_count": res.removed_edge_count,
                "graph": graph_to_json_obj(res.attacked),
            }
        )
    return 0, text, {"gamma": args.gamma, "seed": args.seed, "graph": args.graph}


def _cmd_profile(args) -> tuple[int, str, dict]:
    before = read_graph(args.before)
    after = read_graph(args.after)
    prof = triangle_retention_profile(before, after, args.p_hint, args.gamma)
    if args.format == "csv":
        lines = ["vertex,before,after,retained"]
        for v, (b, a) in enumerate(zip(prof.before, prof.after)):
            ratio = a / b if b else 1.0
            lines.append(f"{v},{b},{a},{ratio}")
        text = "\n".join(lines) + "\n"
    else:
        text = _json_text(prof)
    return 0, text, {"before": args.before, "after": args.after}


def _cmd_find(args) -> tuple[int, str, dict]:
    """Run the pipeline on ``--graph``, checked against ``--host`` if given;
    ``--seed`` is its one setting.  A failure report exits 1."""
    g = read_graph(args.graph)
    host = read_graph(args.host) if args.host else None
    config = PipelineConfig(seed=args.seed)
    outcome = find_square_ham(g, host, config)
    cfg = dataclasses.asdict(config)
    if isinstance(outcome, Certificate):
        return 0, _json_text(outcome), cfg
    return 1, _json_text(failure_report_to_json_obj(outcome)), cfg


def _cmd_verify(args) -> tuple[int, str, dict]:
    """Check a certificate, or the witness a failure report of ``find`` carries."""
    g = read_graph(args.graph)
    obj = _read_json(args.certificate)
    if isinstance(obj, dict) and "witness" in obj:
        check = verify_witness(g, witness_from_json_obj(obj["witness"]))
    else:
        check = verify_certificate(g, certificate_from_json_obj(obj))
    return (0 if check.ok else 1), _json_text(check), {
        "graph": args.graph,
        "certificate": args.certificate,
    }


def _cmd_connect(args) -> tuple[int, str, dict]:
    g = read_graph(args.graph)
    # The connector never draws a port, so the default reservoir is every
    # vertex.
    w = _vertex_mask(g, args.w) if args.w else (1 << g.n) - 1
    w &= ~_vertex_mask(g, args.exclude)
    frm, to = _job(args.pairs)
    res = connect_one(g, frm, to, w, args.length, args.seed)
    cfg = {"pairs": args.pairs, "length": args.length, "seed": args.seed}
    return (0 if res.ok else 1), _json_text(res), cfg


def _cmd_absorber_build(args) -> tuple[int, str, dict]:
    g = read_graph(args.graph)
    xs = _ints(args.x)
    x_mask = _vertex_mask(g, args.x)
    if x_mask.bit_count() != len(xs):
        raise InputError(f"absorbees must be distinct, got {args.x!r}")
    meta = {"x": list(xs), "seed": args.seed}
    built, fail = build_absorber(g, x_mask, args.seed)
    if fail is not None:
        report = FailureReport("absorber", fail)
        return 1, _json_text(failure_report_to_json_obj(report)), meta
    return 0, _json_text(built), meta


def _cmd_absorber_verify(args) -> tuple[int, str, dict]:
    g = read_graph(args.graph)
    obj = _read_json(args.absorber)
    a = absorber_from_json_obj(obj)
    report = verify_absorber(g, a)
    meta = {"absorber": args.absorber}
    return (0 if report.ok else 1), _json_text(report), meta


def _cmd_experiment(args) -> tuple[int, str, dict]:
    report = resilience_experiment(
        args.n,
        args.p,
        args.gamma,
        args.seeds,
        jobs=args.jobs,
    )
    text = (
        experiment_report_to_csv(report)
        if args.format == "csv"
        else _json_text(report)
    )
    cfg = {"n": args.n, "p": args.p, "gamma": args.gamma, "seeds": args.seeds}
    return 0, text, cfg


def _cmd_cover(args) -> tuple[int, str, dict]:
    g = read_graph(args.graph)
    verts = _vertex_mask(g, args.verts) if args.verts else (1 << g.n) - 1
    res = cover_with_square_paths(g, verts, seed=args.seed)
    return 0, _json_text(res), {"seed": args.seed}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Square-Hamilton-cycle machinery: square-path connections, "
        "absorbers, attacks, and experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("generate", help="write a random binomial graph")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist")
    common(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("attack", help="remove all edges inside a random class")
    p.add_argument("--graph", required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--format", choices=("edgelist", "json"), default="json")
    common(p)
    p.set_defaults(handler=_cmd_attack)

    p = sub.add_parser("profile", help="per-vertex triangle retention")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--p-hint", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p, seed=False)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("find", help="run the full pipeline on a stored graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--host", default=None)
    common(p)
    p.set_defaults(handler=_cmd_find)

    p = sub.add_parser(
        "verify", help="check a stored certificate or infeasibility witness"
    )
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--certificate",
        required=True,
        help="a certificate, or a failure report of find that carries a witness",
    )
    common(p, seed=False)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("connect", help="one pair-to-pair connection job")
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--pairs",
        required=True,
        help="the job 'a,b,c,d': connect ordered edge (a,b) to (c,d)",
    )
    p.add_argument("--w", default="", help="reservoir vertices (default: rest)")
    p.add_argument(
        "--length",
        type=int,
        default=4,
        help="longest path the job accepts, ports included; served shortest first",
    )
    p.add_argument("--exclude", default="", help="vertices to keep out of interiors")
    common(p)
    p.set_defaults(handler=_cmd_connect)

    p = sub.add_parser("absorber", help="build or verify absorbers")
    actions = p.add_subparsers(dest="action", required=True)
    pb = actions.add_parser("build", help="build a chained absorber")
    pb.add_argument("--graph", required=True)
    pb.add_argument("--x", required=True, help="absorbee vertices, comma-separated")
    common(pb)
    pb.set_defaults(handler=_cmd_absorber_build)
    pv = actions.add_parser("verify", help="verify a stored absorber")
    pv.add_argument("--graph", required=True)
    pv.add_argument("--absorber", required=True)
    common(pv, seed=False)
    pv.set_defaults(handler=_cmd_absorber_verify)

    p = sub.add_parser("experiment", help="seeded Monte Carlo attack sweep")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=_cmd_experiment)

    p = sub.add_parser(
        "cover",
        help="cover a vertex set with square paths (each search aims at 3/4 of "
        "the uncovered vertices within 50 steps per vertex, until one misses) "
        "and splice each vertex left into the first path that takes it",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--verts", default="", help="target vertices (default: all)")
    common(p)
    p.set_defaults(handler=_cmd_cover)
    return parser


def run_command(argv=None) -> int:
    """Parse and run one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        code, text, config = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return _IO_ERROR
    elapsed = time.perf_counter() - start
    if args.out:
        try:
            out = Path(args.out)
            out.write_text(text)
            manifest = {
                "command": args.command,
                "argv": list(argv) if argv is not None else sys.argv[1:],
                "config": jsonable(config),
                "seed": getattr(args, "seed", None),
                "version": __version__,
                "wall_clock_seconds": elapsed,
                "outputs": [str(out)],
            }
            Path(str(out) + ".manifest.json").write_text(
                json.dumps(manifest, indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return _IO_ERROR
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
