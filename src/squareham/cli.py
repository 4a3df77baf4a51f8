"""Command-line front end: generation, attacks, pipeline runs, inspection.

This is the one module that opens files, so it holds every file format: the
graph formats (a plain edge list and JSON), the stored records (a
certificate, a failure report with its witness, an absorber), and the CSV
reports.  Every artifact-writing invocation drops a ``<out>.manifest.json``
sidecar recording the command, resolved configuration, seeds, library
version, and wall-clock time.  Outputs themselves are deterministic for
fixed seeds; the manifest (which carries timing) is the one file excluded
from that contract.

Exit codes: 0 success, 1 algorithmic failure (a report is still emitted),
2 usage or input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from . import __version__
from .absorber import Absorber, verify_absorber
from .adversary import k3_attack, resilience_experiment, triangle_retention_profile
from .connector import connect_one
from .graphcore import Graph, InputError, check_ints, gnp_generate, mask_of
from .hamiltonian import (
    Certificate,
    FailureReport,
    InfeasibilityWitness,
    PipelineConfig,
    build_absorber,
    cover_with_square_paths,
    find_square_ham,
    jsonable,
    verify_certificate,
    verify_witness,
)

_USAGE_ERROR = 2
_IO_ERROR = 3


def graph_to_edgelist_text(g: Graph) -> str:
    """Plain edge-list serialization: ``"n m"`` header, then sorted ``"u v"`` lines."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_edgelist_text(text: str) -> Graph:
    """Parse the plain edge-list format: an ``"n m"`` header, then ``m``
    distinct edges ``"u v"``, one per line (strict; round-trips byte-exactly)."""
    pairs = []
    for ln in text.splitlines():
        if ln.strip():
            try:
                u, v = map(int, ln.split())
            except ValueError:
                raise InputError(f"expected two integers, got {ln!r}") from None
            pairs.append((u, v))
    if not pairs:
        raise InputError("empty edge-list input")
    (n, m), edges = pairs[0], pairs[1:]
    if len(edges) != m:
        raise InputError(f"header promises {m} edges but {len(edges)} lines follow")
    g = Graph(n, edges)
    if g.edge_count != m:  # a line repeats an edge
        counts = Counter((min(e), max(e)) for e in edges)
        u, v = next(e for e, k in counts.items() if k > 1)
        raise InputError(f"header promises {m} edges but edge {u} {v} repeats")
    return g


def graph_to_json_obj(g: Graph) -> dict:
    """JSON-ready object ``{"n": ..., "edges": [[u, v], ...]}`` with sorted edges."""
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json_obj(obj: dict) -> Graph:
    """The graph of a ``{"n": ..., "edges": [[u, v], ...]}`` object.

    Raises:
        InputError: If a key is missing, ``edges`` is not a list, or ``n``
            or an endpoint is not an integer (``true`` and ``1.5`` are not).
    """
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InputError("graph JSON must carry 'n' and 'edges'")
    if not isinstance(obj["edges"], (list, tuple)):
        raise InputError(f"graph JSON 'edges' must be a list, got {obj['edges']!r}")
    return Graph(obj["n"], obj["edges"])


def _read_text(path) -> str:
    """The text of the UTF-8 file at ``path``; an unreadable file raises OSError."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InputError(f"a path must be a str, got {type(path).__name__}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except ValueError as exc:  # a null byte in the path, or bytes that are no UTF-8
        raise InputError(f"cannot read {path!r}: {exc}") from None


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON input: {exc}") from None


def read_graph(path: str) -> Graph:
    """Read a graph file, auto-detecting the edge-list and JSON formats.

    Raises:
        InputError: If ``path`` is not a path, or the file is not UTF-8 text
            holding a graph in either format.
        OSError: If the file cannot be read.
    """
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return graph_from_json_obj(_parse_json(text))
    return graph_from_edgelist_text(text)


def _read_record(cls, obj):
    """The ``cls`` record a JSON object holds, one entry per dataclass field,
    read by the record's own checks; an :class:`Absorber` has none (tests
    build degenerate ones), so its entries are read here as integers, and it
    needs an absorbee."""
    try:
        values = [obj[f.name] for f in dataclasses.fields(cls)]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {cls.__name__}: {exc}") from None
    if cls is Absorber:
        values = [check_ints("an absorber vertex", v) for v in values]
        if not values[1]:
            raise InputError("an absorber needs at least one absorbee")
    return cls(*values)


def _json_text(obj) -> str:
    """``obj`` as indented JSON, a :class:`Graph` in it as graph JSON."""
    obj = jsonable(obj)
    return json.dumps(obj, indent=2, sort_keys=True, default=graph_to_json_obj) + "\n"


def failure_report_to_json_obj(report: FailureReport) -> dict:
    """A failure report as JSON, with no ``witness`` entry when it has none."""
    return {k: v for k, v in jsonable(report).items() if v is not None}


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _flatten(prefix: str, obj) -> dict:
    """``obj`` as one CSV row: nested keys joined by dots, lists by spaces."""
    if isinstance(obj, dict):
        row: dict = {}
        for k, v in obj.items():
            row.update(_flatten(f"{prefix}.{k}" if prefix else str(k), v))
        return row
    if isinstance(obj, (list, tuple)):
        return {prefix: " ".join(str(v) for v in obj)}
    return {prefix: obj}


def experiment_report_to_csv(report: dict) -> str:
    """Flatten a resilience report to CSV, one row per seed.

    Params are repeated on every row under ``param.*`` columns; nested
    per-seed values become dotted column names.
    """
    params = _flatten("param", report["params"])
    rows = [{**params, **_flatten("", rec)} for rec in report["per_seed"]]
    return _csv_text(list(dict.fromkeys(k for row in rows for k in row)), rows)


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
    text = graph_to_edgelist_text(g) if args.format == "edgelist" else _json_text(g)
    return 0, text, {"n": args.n, "p": args.p, "seed": args.seed}


def _cmd_attack(args) -> tuple[int, str, dict]:
    g = read_graph(args.graph)
    res = k3_attack(g, args.gamma, args.seed)
    if args.format == "edgelist":
        text = graph_to_edgelist_text(res.attacked)
    else:
        obj = jsonable(res)
        obj["graph"] = obj.pop("attacked")
        text = _json_text(obj)
    return 0, text, {"gamma": args.gamma, "seed": args.seed, "graph": args.graph}


def _cmd_profile(args) -> tuple[int, str, dict]:
    before = read_graph(args.before)
    after = read_graph(args.after)
    prof = triangle_retention_profile(before, after, args.p_hint, args.gamma)
    if args.format == "csv":
        rows = [
            {"vertex": v, "before": b, "after": a, "retained": a / b if b else 1.0}
            for v, (b, a) in enumerate(zip(prof.before, prof.after))
        ]
        text = _csv_text(["vertex", "before", "after", "retained"], rows)
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
    obj = _parse_json(_read_text(args.certificate))
    if isinstance(obj, dict) and "witness" in obj:
        check = verify_witness(g, _read_record(InfeasibilityWitness, obj["witness"]))
    else:
        check = verify_certificate(g, _read_record(Certificate, obj))
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
    a = _read_record(Absorber, _parse_json(_read_text(args.absorber)))
    report = verify_absorber(g, a)
    meta = {"absorber": args.absorber}
    return (0 if report.ok else 1), _json_text(report), meta


def _cmd_experiment(args) -> tuple[int, str, dict]:
    report = resilience_experiment(
        args.n, args.p, args.gamma, args.seeds, jobs=args.jobs
    )
    write = experiment_report_to_csv if args.format == "csv" else _json_text
    cfg = {"n": args.n, "p": args.p, "gamma": args.gamma, "seeds": args.seeds}
    return 0, write(report), cfg


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
                "config": config,
                "seed": getattr(args, "seed", None),
                "version": __version__,
                "wall_clock_seconds": elapsed,
                "outputs": [str(out)],
            }
            Path(str(out) + ".manifest.json").write_text(_json_text(manifest))
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
