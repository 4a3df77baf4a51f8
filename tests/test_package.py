import ast
import dataclasses
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import squareham
from squareham import absorber, connector, gadgets, graphcore, hamiltonian, matching
from squareham.hamiltonian import STAGES, PipelineConfig

# ``__init__.py`` is left out: its imports are the package's re-exports.
MODULES = sorted(
    p for p in Path(squareham.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def test_every_exported_name_resolves() -> None:
    missing = [name for name in squareham.__all__ if not hasattr(squareham, name)]
    assert missing == []


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [alias.asname or alias.name for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_has_an_unused_top_level_import(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in _bound_names(node)
        if name not in used
    ]
    assert unused == [], f"{path.name} imports but never uses {unused}"


def _reads_private_attribute_of_another_object(node: ast.AST) -> bool:
    if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
        return False
    if node.attr.startswith("__") and node.attr.endswith("__"):
        return False
    return not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graphcore.py"], ids=lambda p: p.name
)
def test_graph_internals_stay_inside_graphcore(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offenders = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if _reads_private_attribute_of_another_object(node)
    ]
    assert offenders == [], f"{path.name} reads private attributes: {offenders}"


# Pipeline modules test candidates with row masks; Graph.neighbors builds a
# fresh frozenset per call, which made the solve pipeline slower than the
# per-pair lookups it replaced.
ROW_MASK_MODULES = ("absorber", "connector", "gadgets", "hamiltonian", "matching")


@pytest.mark.parametrize("name", ROW_MASK_MODULES)
def test_pipeline_modules_never_call_neighbors(name: str) -> None:
    path = Path(squareham.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "neighbors"
    ]
    assert calls == [], f"{name}.py calls .neighbors(): {calls}"


def _imported_modules_and_names(tree: ast.AST) -> set[str]:
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add((node.module or "").split(".")[0])
            found.update(alias.name for alias in node.names)
    return found


def test_the_connector_builds_no_numpy_generator() -> None:
    # A search draws its picks lazily from a few lines of SplitMix64; a
    # seeded numpy generator per search cost more than most searches.
    path = Path(squareham.__file__).parent / "connector.py"
    found = _imported_modules_and_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not found & {"numpy", "rng_for"}
    spellings = (
        "import numpy as np",
        "from numpy import random",
        "from .graphcore import rng_for",
    )
    for src in spellings:
        assert _imported_modules_and_names(ast.parse(src)) & {"numpy", "rng_for"}, src


def test_the_connector_never_lists_a_vertex_set() -> None:
    # A search starts from the pool's bitset and picks with pick_bit;
    # listing the pool per call cost more than most searches.
    path = Path(squareham.__file__).parent / "connector.py"
    found = _imported_modules_and_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not found & {"numpy", "bits"}
    for src in ("import numpy", "from .graphcore import Graph, bits"):
        assert _imported_modules_and_names(ast.parse(src)) & {"numpy", "bits"}, src


def test_the_connector_caches_nothing() -> None:
    # A search reads its port masks off the length and the ports; a cache
    # per length kept every length asked for alive.
    path = Path(squareham.__file__).parent / "connector.py"
    found = _imported_modules_and_names(ast.parse(path.read_text(encoding="utf-8")))
    assert "functools" not in found
    assert "functools" in _imported_modules_and_names(ast.parse("import functools"))


def test_benchmark_gates_one_failure_metric_per_stage() -> None:
    # perfbench names its per-layer failure counters after STAGES; a stage
    # added without a gated metric in BENCHMARK.json would go unmeasured.
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    names = {m["name"] for m in json.loads(spec.read_text())["per_layer"]}
    gated = {name for name in names if name.startswith("hamiltonian.fail.")}
    assert gated == {f"hamiltonian.fail.{stage}" for stage in STAGES}


def _matrix_products(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot"):
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graphcore.py"], ids=lambda p: p.name
)
def test_only_graphcore_multiplies_matrices(path: Path) -> None:
    # graphcore squares the adjacency matrix once, in float32, which is exact
    # for integer entries of at most n; a second product elsewhere would
    # have to repeat that argument.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _matrix_products(tree) == [], f"{path.name} multiplies matrices"


def test_the_matrix_product_guard_sees_every_spelling() -> None:
    spellings = ("a @ b", "a @= b", "np.matmul(a, b)", "np.dot(a, b)", "a.dot(b)")
    for src in spellings:
        assert _matrix_products(ast.parse(src)), src
    graphcore = Path(squareham.__file__).parent / "graphcore.py"
    assert len(_matrix_products(ast.parse(graphcore.read_text(encoding="utf-8")))) == 1


#: Modules that read or write files; only the CLI imports them.
FILE_MODULES = {"csv", "io", "json", "os", "pathlib"}


def _file_access(tree: ast.AST) -> list[str]:
    """Each import in ``tree`` of a file module, and each call of ``open``,
    by name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.split(".")[0] in FILE_MODULES
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in FILE_MODULES:
                found.append(f"line {node.lineno}: from {node.module}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                found.append(f"line {node.lineno}: open()")
    return found


@pytest.mark.parametrize(
    "path",
    [p for p in Path(squareham.__file__).parent.glob("*.py") if p.name != "cli.py"],
    ids=lambda p: p.name,
)
def test_only_the_cli_touches_files(path: Path) -> None:
    # The CLI holds every file format and reads every file, so a format
    # changes in one module and the library never reads a path.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _file_access(tree) == [], path.name


def test_the_file_guard_sees_every_spelling() -> None:
    flagged = (
        "import json",
        "import os.path",
        "import csv as table",
        "import io, math",
        "import pathlib",
        "from io import StringIO",
        "from os import path",
        "from os.path import join",
        "from pathlib import Path",
        "open(p)",
        "with open(p, 'w') as fh:\n    fh.write(text)",
        "builtins.open(p)",
        "Path(p).open()",
    )
    for src in flagged:
        assert _file_access(ast.parse(src)), src
    quiet = (
        "import numpy as np",
        "import jsonschema",
        "from . import graphcore",
        "from .io import reader",
        "from typing import Mapping",
        "jsonable(x)",
        "reopen(p)",
        "p.opened",
        "os = 3",
    )
    for src in quiet:
        assert _file_access(ast.parse(src)) == [], src
    cli = Path(squareham.__file__).parent / "cli.py"
    assert _file_access(ast.parse(cli.read_text(encoding="utf-8")))


def _scopes_where(tree: ast.AST, matches) -> set[str]:
    """Names of the innermost functions (``Class.method`` for methods) whose
    bodies hold a node for which ``matches`` is true."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if matches(child):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def _callers(tree: ast.AST, names: set[str]) -> set[str]:
    """Names of the innermost functions (``Class.method`` for methods) whose
    bodies call one of ``names``, by bare name or as an attribute."""
    return _scopes_where(
        tree,
        lambda node: isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in names,
    )


def _library_callers(names: set[str]) -> set[str]:
    return {
        f"{path.stem}.{caller}"
        for path in MODULES
        for caller in _callers(ast.parse(path.read_text(encoding="utf-8")), names)
    }


def test_absorbers_are_audited_in_one_place() -> None:
    # chain_absorbers audits every absorber the library builds, links
    # included; a second audit elsewhere would walk the same walk again.
    # The audit is one pass over the walk, with no per-unit walker.
    assert _library_callers({"_unit_fault", "_walk_fault"}) == set()
    for gone in ("_unit_fault", "_walk_fault"):
        assert not hasattr(absorber, gone)
    audits = _library_callers({"verify_absorber"})
    # `absorber verify` checks a stored file, which no build has audited.
    assert audits == {"absorber.chain_absorbers", "cli._cmd_absorber_verify"}


def test_each_check_names_its_first_fault_from_its_one_pass() -> None:
    # The packed gather answers per pair, so no check walks its input a
    # second time to name a fault, and one loop checks a short square path.
    for gone in ("_short_connection_holds", "_square_path_holds", "_BIT", "has_edges"):
        assert not hasattr(gadgets, gone)
    # One pair pass gathers the distance-1 and distance-2 pairs, for the
    # square-path check, the certificate check and the absorber audit.
    assert _library_callers({"has_edges"}) == {"gadgets._first_gap"}
    assert _library_callers({"_first_gap"}) == {
        "gadgets.is_square_path",
        "absorber.verify_absorber",
        "hamiltonian.verify_certificate",
    }
    assert not hasattr(gadgets, "_bulk_square_path")
    # validate_embedding is is_square_path and the two ports.
    assert _library_callers({"is_square_path"}) >= {"gadgets.validate_embedding"}


def test_the_absorber_audit_has_one_path_for_every_walk_length() -> None:
    # The audit reads the walk once and runs the pair pass on it and on the
    # walk less its absorbees; the bulk cut-over is the square-path check's.
    for gone in ("_absorbees_hold", "_AROUND"):
        assert not hasattr(absorber, gone)
    def names(src: str) -> set[str]:
        tree = ast.parse(src)
        read = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(tree)}
        return read | _imported_modules_and_names(tree)

    path = Path(squareham.__file__).parent / "absorber.py"
    assert "BULK_PATH_LEN" not in names(path.read_text(encoding="utf-8"))
    for src in ("gadgets.BULK_PATH_LEN", "from .gadgets import BULK_PATH_LEN"):
        assert "BULK_PATH_LEN" in names(src), src


def test_the_rows_are_packed_once_per_graph() -> None:
    # Every bulk pass gathers from the one cached packed view; packing the
    # rows afresh per call cost more than most of those passes.
    assert _library_callers({"packed_rows"}) == {"graphcore.Graph.packed"}
    path = Path(squareham.__file__).parent / "graphcore.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (graph,) = [
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Graph"
    ]
    (slots,) = [
        ast.literal_eval(n.value)
        for n in graph.body
        if isinstance(n, ast.Assign) and [t.id for t in n.targets] == ["__slots__"]
    ]
    # The rows and what they fix at birth, then the two caches.
    birth = {"n", "_rows", "_degrees", "_edge_count"}
    assert set(slots) - birth == {"_matrix", "_packed"}


#: Names under which a graph's row tuple is read.
ROW_TUPLES = {"rows", "_rows"}


def _names_rows(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id in ROW_TUPLES) or (
        isinstance(node, ast.Attribute) and node.attr in ROW_TUPLES
    )


def _popcounts_rows(node: ast.AST) -> bool:
    """Whether ``node`` is ``map(int.bit_count, rows)``, or a comprehension
    over ``rows`` or ``<x>.rows`` whose element is its target's
    ``bit_count()``."""
    if _called(node, "map") and len(node.args) == 2:
        func, seq = node.args
        return getattr(func, "attr", None) == "bit_count" and _names_rows(seq)
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        elt = node.elt
        return any(
            _names_rows(gen.iter)
            and _called(elt, "bit_count")
            and isinstance(elt.func, ast.Attribute)
            and isinstance(elt.func.value, ast.Name)
            and isinstance(gen.target, ast.Name)
            and elt.func.value.id == gen.target.id
            for gen in node.generators
        )
    return False


def _row_popcounts(tree: ast.AST) -> set[str]:
    """Scopes (as :func:`_callers` names them) that popcount every row of a
    row tuple."""
    return _scopes_where(tree, _popcounts_rows)


def test_degrees_are_counted_once_when_a_graph_is_built() -> None:
    # Graph keeps its degree vector from construction; a second pass that
    # popcounts every row cost the witness search 84 of its 196 us on
    # G(800, .5).  The CLI is the outside and may count as it likes.
    found = {
        f"{path.stem}.{scope}"
        for path in MODULES
        if path.name != "cli.py"
        for scope in _row_popcounts(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"graphcore.Graph._set_rows"}


def test_the_row_popcount_guard_sees_every_spelling() -> None:
    flagged = (
        "d = np.fromiter(map(int.bit_count, rows), np.intp, n)",
        "m = sum(r.bit_count() for r in rows) // 2",
        "low = min(r.bit_count() for r in g.rows)",
        "ds = [r.bit_count() for r in self._rows]",
        "def f(g):\n    return max(map(int.bit_count, g.rows))",
    )
    for src in flagged:
        assert _row_popcounts(ast.parse(src)), src
    quiet = (
        "e = sum((rows[u] & s).bit_count() for u in bits(s)) // 2",
        "d = rows[v].bit_count()",
        "k = mask.bit_count()",
        "ds = [m.bit_count() for m in masks]",
        "d = g.degrees.copy()",
    )
    for src in quiet:
        assert _row_popcounts(ast.parse(src)) == set(), src


def test_connect_one_is_the_only_length_sweep() -> None:
    # connect_one serves each job shortest first, so the absorber's links
    # and the threading make one call per job, and every search runs inside
    # the names the traced benchmark wraps.
    assert not hasattr(absorber, "_connect_with_fallback")
    assert not hasattr(hamiltonian, "_cascade_connect")
    assert not hasattr(connector, "ports_admit")
    assert _library_callers({"_direct_connect"}) == {"connector.connect_one"}
    assert not hasattr(connector, "_pick_connect")


def _self_callers(tree: ast.AST) -> set[str]:
    """Names of the functions whose bodies, nested ones included, call the
    function's own name, bare or as an attribute."""
    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == fn.name
            for node in ast.walk(fn)
        )
    }


def test_each_entry_point_reads_its_arguments_once() -> None:
    # A slow path that re-reads the arguments and calls the function again
    # is a second entry path; each of these reads its arguments in one place.
    entry_points = (
        ("absorber", "chain_absorbers"),
        ("connector", "connect_one"),
        ("gadgets", "validate_embedding"),
    )
    for module, name in entry_points:
        path = Path(squareham.__file__).parent / f"{module}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert name in {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)}
        assert name not in _self_callers(tree), f"{module}.{name}"


def test_the_self_call_guard_sees_every_spelling() -> None:
    flagged = (
        "def f(x):\n    return f(int(x))",
        "def f(x):\n    return connector.f(int(x))",
        "def f(x):\n    def g():\n        return f(1)\n    return g()",
        "class C:\n    def f(self, x):\n        return self.f(int(x))",
    )
    for src in flagged:
        assert _self_callers(ast.parse(src)) == {"f"}, src
    quiet = (
        "def f(x):\n    return g(x)",
        "def f(x):\n    return f",
        "def f(x):\n    return x.f",
    )
    for src in quiet:
        assert _self_callers(ast.parse(src)) == set(), src


def test_only_find_square_ham_searches_for_a_witness() -> None:
    # find_square_ham looks for a "no" proof once, before any search; a
    # second caller in the library would repeat the search or let a
    # restart loop run it again.
    assert _library_callers({"find_infeasibility_witness"}) == {
        "hamiltonian.find_square_ham"
    }


def _calls_in(module: str, function: str, name: str) -> int:
    path = Path(squareham.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == name
        for node in ast.walk(fn)
    )


# Public methods of numpy's Generator and of its PCG64 bit generator.
RNG_METHODS = {
    name
    for cls in (np.random.Generator, np.random.PCG64)
    for name in dir(cls)
    if not name.startswith("_")
}


def _rng_calls_in_loops(fn: ast.AST) -> list[str]:
    """Calls of a numpy generator method inside a loop of ``fn``."""
    return sorted(
        {
            f"line {node.lineno}: .{node.func.attr}"
            for loop in ast.walk(fn)
            if isinstance(loop, (ast.While, ast.For))
            for node in ast.walk(loop)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RNG_METHODS
        }
    )


def test_the_cover_makes_no_numpy_call_per_pick() -> None:
    # The extension loop picks from a SplitMix64 stream; a scalar Generator
    # call cost about 2.8 us per pick, a third of each step.
    path = Path(squareham.__file__).parent / "hamiltonian.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_grow_square_path"
    ]
    assert any(isinstance(node, ast.While) for node in ast.walk(fn))
    assert _rng_calls_in_loops(fn) == []


def test_the_per_pick_guard_sees_every_spelling() -> None:
    flagged = (
        "while go:\n    v = rng.integers(k)",
        "for k in ks:\n    out.append(int(self.rng.choice(k)))",
        "while a:\n    while b:\n        w = rng.bit_generator.random_raw(4)",
    )
    for src in flagged:
        assert _rng_calls_in_loops(ast.parse(src)), src
    quiet = "draws = splitmix64(64 * seed + 47)\nwhile go:\n    v = next(draws) % k"
    assert _rng_calls_in_loops(ast.parse(quiet)) == []


# SplitMix64's state increment, the golden-ratio constant 2^64 / phi.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def test_every_per_pick_search_draws_from_one_stream() -> None:
    # Numpy for bulk draws, SplitMix64 per pick: the stream is defined once,
    # in graphcore, and the searches that pick one vertex at a time draw
    # from it: the cover, and the connector's search.
    definers = {
        f"{path.stem}.{fn.name}"
        for path in MODULES
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(node, ast.Constant) and node.value == SPLITMIX_GAMMA
            for node in ast.walk(fn)
        )
    }
    assert definers == {"graphcore.splitmix64"}
    assert _library_callers({"splitmix64"}) == {
        "connector._direct_connect",
        "hamiltonian._grow_square_path",
    }


def test_the_hall_rounds_never_list_a_row() -> None:
    # The matching engine walks bit rows by their lowest set bit; listing
    # each row first cost most of a matching's time.
    for name in ("bits", "sorted"):
        assert _calls_in("matching", "_augmenting_search", name) == 0, name


def test_the_core_search_uses_no_matching_and_lists_no_row() -> None:
    # One search per absorbee finds the star cores, in place of four Hall
    # rounds, so the leftover step is the matching's one library caller.
    tree = ast.parse(Path(absorber.__file__).read_text(encoding="utf-8"))
    imported = {
        name.split(".")[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (getattr(node, "module", None) or "", *(a.name for a in node.names))
    }
    assert "matching" not in imported
    assert _library_callers({"hall_saturating_matching"}) == {
        "hamiltonian.match_leftover"
    }
    # The search picks each vertex by its lowest set bit: it lists the
    # absorbee set once, and no row.
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "build_single_absorbers"
    ]
    listed = [
        ast.unparse(call.args[0])
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "bits"
    ]
    assert listed == ["xs"]
    assert _calls_in("absorber", "_core_search", "bits") == 0


def test_the_caller_guard_sees_every_spelling() -> None:
    src = (
        "def f():\n    verify_absorber(g, a)\n"
        "def h():\n    return absorber.verify_absorber(g, a).ok\n"
        "class C:\n    def m(self):\n        def inner():\n"
        "            verify_absorber(g, a)\n"
        "verify_absorber(g, a)\n"
        "def quiet():\n    return verify_absorber\n"
    )
    found = _callers(ast.parse(src), {"verify_absorber"})
    assert found == {"f", "h", "C.m.inner", "<module>"}


def test_pipeline_config_holds_only_settings_callers_change() -> None:
    # A new field needs two callers that set it to different values; a
    # setting with one value in use is a module constant instead.
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert fields == {"seed"}
    # Each cover search's target and step budget follow from its set's size,
    # and the search is the cover's private step, with no result type.
    cover_params = inspect.signature(hamiltonian.cover_with_square_paths).parameters
    assert list(cover_params) == ["g", "u_prime", "seed"]
    for gone in ("almost_spanning_square_path", "AlmostSpanningResult"):
        assert not hasattr(hamiltonian, gone) and not hasattr(squareham, gone)


def test_connections_and_units_keep_only_the_fields_they_use() -> None:
    # A connection is a square path, so its job has no width; an absorber is
    # one square path and its absorbees, so it has no units or links beside
    # it.  The job's checks read only its ports, reservoir and length.
    checked = list(inspect.signature(connector._validate_request).parameters)
    assert checked == ["g", "frm", "to", "w", "length"]
    # A connection's result is its path, a plain vertex tuple.
    results = [f.name for f in dataclasses.fields(squareham.ConnectResult)]
    assert results == ["ok", "path", "diagnostics"]
    # A batch of jobs is one connect_one call per job, each excluding the
    # other jobs' ports and the earlier paths, so there is no batch
    # connector, batch result or batch audit.
    for gone in ("connect_all", "ConnectAllResult", "_audit_disjoint_interiors"):
        assert not hasattr(connector, gone) and not hasattr(squareham, gone)
    for gone in ("Gadget", "Embedding", "build_gadget"):
        assert not hasattr(squareham, gone) and not hasattr(gadgets, gone)
    assert [f.name for f in dataclasses.fields(squareham.Absorber)] == [
        "walk",
        "absorbees",
    ]
    assert not hasattr(squareham, "AbsorberUnit")
    assert not hasattr(absorber, "AbsorberUnit")


def test_the_cover_is_one_search_loop_and_the_batch_one_pass() -> None:
    # The cover draws no classes, so its result has no class sizes, and
    # its one target share is the module constant.
    fields = [f.name for f in dataclasses.fields(hamiltonian.CoverResult)]
    assert fields == ["paths", "leftover", "leftover_fraction"]
    path = Path(squareham.__file__).parent / "hamiltonian.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "cover_with_square_paths"
    ]
    called = {
        node.func.id
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert not called & {"random_partition", "rng_for"}
    # No connector retries a seed.
    assert not hasattr(connector, "_ROUND_ATTEMPTS")


def test_the_cover_splices_and_checks_its_own_paths() -> None:
    # The cover splices what its searches leave and checks each path it
    # returns once, so the pipeline neither splices nor checks a covering
    # path again.  The cover reads its arguments, so its search reads none.
    for name in ("_insert_into_paths", "is_square_path"):
        assert _calls_in("hamiltonian", "_attempt", name) == 0, name
        assert _calls_in("hamiltonian", "cover_with_square_paths", name) == 1, name
    path = Path(squareham.__file__).parent / "hamiltonian.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_grow_square_path"
    ]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert called and not {name for name in called if name.startswith("check_")}


def test_the_absorber_draws_from_the_whole_host() -> None:
    # One absorbee set, and every other vertex is the pool: no planner
    # sizes a second pool, and no partition cuts one.
    assert not hasattr(hamiltonian, "reservoir_sizes")
    assert not hasattr(hamiltonian, "_plan_partition")
    assert not hasattr(graphcore, "random_partition")
    params = list(inspect.signature(hamiltonian.build_absorber).parameters)
    assert params == ["g", "xs", "seed"]


def test_a_connection_job_is_the_arguments_of_connect_one() -> None:
    # A job is four values and a seed, passed as they are: no record is
    # built per job and unpacked at once.
    assert not hasattr(connector, "ConnectionRequest")
    assert not hasattr(squareham, "ConnectionRequest")
    assert "ConnectionRequest" not in squareham.__all__
    params = list(inspect.signature(squareham.connect_one).parameters)
    assert params == ["g", "frm", "to", "w", "length", "seed"]


def test_a_matching_is_its_bit_rows_in_and_one_result_out() -> None:
    # The rows are the one argument, with no right-side count, and the
    # engine and match_leftover return the same record.
    for name in ("BipartiteInstance", "LeftoverMatching"):
        assert not hasattr(matching, name)
        assert not hasattr(hamiltonian, name)
        assert name not in squareham.__all__
    params = list(inspect.signature(matching.hall_saturating_matching).parameters)
    assert params == ["rows"]
    fields = [f.name for f in dataclasses.fields(matching.MatchingResult)]
    assert fields == ["status", "pairs", "violator", "neighborhood"]


def _budget_parameters(tree: ast.AST) -> list[str]:
    """Functions of ``tree``, lambdas and nested ones included, that take a
    parameter named ``budget``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            if "budget" in names:
                found.append(f"line {node.lineno}: {getattr(node, 'name', 'lambda')}")
    return found


def test_no_library_function_takes_a_budget() -> None:
    # A search budget only tests set is a module constant, which tests
    # change with monkeypatch, and no parameter.
    for path in [*MODULES, Path(squareham.__file__)]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _budget_parameters(tree) == [], path.name
    for src in ("def f(g, budget=5): pass", "def f(*, budget): pass",
                "class C:\n    def m(self):\n        def inner(budget): pass",
                "f = lambda budget: budget"):
        assert _budget_parameters(ast.parse(src)), src


def _called(node: ast.AST | None, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def _stray_picks(tree: ast.AST) -> list[str]:
    """Places in ``tree`` that name ``nth_bit``, or that use a SplitMix64
    stream other than as ``pick_bit(mask, next(stream))``."""
    streams = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _called(node.value, "splitmix64")
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if "nth_bit" in {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}:
            found.append(f"line {node.lineno}: nth_bit")
        named = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        if (named and node.id in streams) or (
            _called(node, "splitmix64") and not isinstance(parents.get(node), ast.Assign)
        ):
            draw = parents.get(node)
            pick = parents.get(draw)
            if not (
                _called(draw, "next")
                and _called(pick, "pick_bit")
                and pick.args[1:2] == [draw]
            ):
                found.append(f"line {node.lineno}: a draw that pick_bit does not take")
    return found


def test_pick_bit_is_the_one_place_a_draw_becomes_a_vertex() -> None:
    # Counting to the k-th set bit was the largest self time of a dense
    # solve; every pick is now the lowest candidate at or above a seeded
    # offset, one rule in one function.
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert _stray_picks(tree) == [], path.name
    assert not hasattr(graphcore, "nth_bit")
    definers = {
        f"{path.stem}.{fn.name}"
        for path in MODULES
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, ast.FunctionDef) and fn.name == "pick_bit"
    }
    assert definers == {"graphcore.pick_bit"}
    assert _library_callers({"pick_bit"}) == {
        "connector._direct_connect.fill",
        "hamiltonian._grow_square_path",
    }


def test_the_pick_guard_sees_every_spelling() -> None:
    stream = "draws = splitmix64(s)\n"
    flagged = (
        "from .graphcore import nth_bit",
        "from .graphcore import bits as nth_bit",
        "v = graphcore.nth_bit(m, k)",
        "def nth_bit(mask, k): pass",
        stream + "v = vs[next(draws) % len(vs)]",
        stream + "v = nth_bit(m, next(draws) % k)",
        stream + "v = pick_bit(m, next(draws) % 7)",
        stream + "v = pick_bit(next(draws), m)",
        stream + "d = next(draws)\nv = pick_bit(m, d)",
        stream + "for d in draws:\n    v = d % k",
        "v = next(graphcore.splitmix64(s)) % k",
    )
    for src in flagged:
        assert _stray_picks(ast.parse(src)), src
    quiet = (
        "draws = splitmix64(64 * seed + 47)\nwhile go:\n    v = pick_bit(m, next(draws))",
        "draws = graphcore.splitmix64(s)\ndef fill():\n    return pick_bit(c, next(draws))",
        "it = iter(xs)\nv = next(it)",
    )
    for src in quiet:
        assert _stray_picks(ast.parse(src)) == [], src


#: What reads a numpy integer as an int: the one rule, graphcore's alone.
INTEGER_READERS = {("numpy", "integer"), ("operator", "index")}


def _integer_rereads(tree: ast.AST) -> list[str]:
    """Each use in ``tree`` of ``numpy.integer`` or ``operator.index``, by
    attribute or by ``from`` import, under any module alias."""
    aliases = {"np": "numpy", "numpy": "numpy", "operator": "operator"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [
                f"line {node.lineno}: from {node.module} import {alias.name}"
                for alias in node.names
                if (node.module, alias.name) in INTEGER_READERS
            ]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if (aliases.get(node.value.id), node.attr) in INTEGER_READERS:
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "graphcore.py"], ids=lambda p: p.name
)
def test_only_graphcore_reads_a_numpy_integer(path: Path) -> None:
    # Every argument is read by graphcore's one rule (check_int and
    # check_ints); a module that read integers itself answered a bool
    # differently from the others.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _integer_rereads(tree) == [], path.name


def test_the_integer_reader_guard_sees_every_spelling() -> None:
    flagged = (
        "isinstance(v, np.integer)",
        "import numpy\nisinstance(v, numpy.integer)",
        "import numpy as xp\nisinstance(v, xp.integer)",
        "from numpy import integer",
        "from numpy import integer as whole",
        "operator.index(v)",
        "import operator as op\nop.index(v)",
        "from operator import index",
    )
    for src in flagged:
        assert _integer_rereads(ast.parse(src)), src
    quiet = (
        "np.int64(3)",
        "seq.index(v)",
        "from operator import itemgetter",
        "integer = 3",
        "check_int('a vertex', v)",
    )
    for src in quiet:
        assert _integer_rereads(ast.parse(src)) == [], src


def _vertex_set_builders(tree: ast.AST) -> list[str]:
    """Places in ``tree`` that build a ``set`` or ``frozenset``, a set
    literal or comprehension, or a ``[x] * n`` flag list."""
    found = []
    for node in ast.walk(tree):
        if _called(node, "set") or _called(node, "frozenset"):
            found.append(f"line {node.lineno}: a set call")
        elif isinstance(node, (ast.Set, ast.SetComp)):
            found.append(f"line {node.lineno}: a set display")
        elif (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mult)
            and ast.List in (type(node.left), type(node.right))
        ):
            found.append(f"line {node.lineno}: a flag list")
    return found


@pytest.mark.parametrize(
    "module, function",
    [
        ("hamiltonian", "brute_force_square_ham"),
        ("hamiltonian", "verify_witness"),
        ("adversary", "max_triangle_packing"),
    ],
)
def test_the_small_searches_hold_every_vertex_set_as_a_bitset(module, function) -> None:
    # Vertex sets are int bitsets.  On a flag list, the exhaustive search
    # took 22 to 28 s on G(58, .5, 1000) where its candidate masks take 1.7
    # to 2 s; on Python sets, the packing search made the resilience
    # experiment at n = 30 take 8 s where its masks take 2 to 3 s.
    path = Path(squareham.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (fn,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == function
    ]
    assert _vertex_set_builders(fn) == []


def test_the_vertex_set_guard_sees_every_spelling() -> None:
    flagged = (
        "seen = set(vs)",
        "seen = set()",
        "v1 = frozenset(check_ints('v', v1))",
        "v1 = builtins.frozenset(v1)",
        "covered = {pivot}",
        "taken = {v for t in tris for v in t}",
        "used = [False] * n",
        "used = n * [0]",
        "def f(n):\n    def g():\n        return [None] * n",
    )
    for src in flagged:
        assert _vertex_set_builders(ast.parse(src)), src
    quiet = (
        "members = mask_of(vs)",
        "taken |= 1 << v",
        "order = [0]",
        "row = [(rows[u] & alive).bit_count() for u in ids]",
        "tri_at = {}",
        "k = 3 * len(vs)",
        "s = 'a' * n",
    )
    for src in quiet:
        assert _vertex_set_builders(ast.parse(src)) == [], src
