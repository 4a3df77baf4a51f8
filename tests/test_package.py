import ast
from pathlib import Path

import pytest

import squareham

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
