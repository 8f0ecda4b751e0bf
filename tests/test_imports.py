"""Every name a gmmadapt module imports is used in that module.

No linter ships with the project, so this stdlib check stands in for the
unused-import rule: a refactor that removes the last use of an imported
name must remove the import too. __init__.py imports to re-export, and
`from __future__` imports are directives, so both are exempt.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gmmadapt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_import():
    source = "from .config import RunConfig, field_name\nRunConfig()\n"
    assert unused_imports(source) == ["field_name"]
