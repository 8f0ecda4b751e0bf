"""Every name a gmmadapt module imports is used in that module, every
name a function assigns is read, no module imports scipy, every package
a module imports is a declared dependency whose installed version meets
the declared range, and every dataclass the config and record readers
build checks its own values first.

No linter ships with the project, so these stdlib checks stand in for the
unused-import and unused-variable rules: a refactor that removes the last
use of an imported name or a local must remove the import or the
assignment too. __init__.py imports to re-export, and `from __future__`
imports are directives, so both are exempt; so are `_` and the names a
function declares global or nonlocal.
"""
import ast
import dataclasses
import inspect
import re
import sys
from importlib import metadata
from pathlib import Path

import pytest
from packaging.specifiers import SpecifierSet

from gmmadapt.config import RunConfig
from gmmadapt.errors import declared_types
from gmmadapt.metrics import RunRecord

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gmmadapt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = MODULES + [PACKAGE / "__init__.py"]
SOURCE_IDS = [p.name for p in SOURCES]


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


def scipy_imports(source: str) -> list[str]:
    """The module named by each import statement that imports scipy or a
    part of it."""
    named = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            named += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            named.append(node.module)
    return [name for name in named if name == "scipy" or name.startswith("scipy.")]


@pytest.mark.parametrize("path", SOURCES, ids=SOURCE_IDS)
def test_no_module_imports_scipy(path):
    """scipy's compiled code is loaded from its files (linalg.py): importing
    scipy.linalg alone would add about 26 MB of RSS to a run."""
    assert scipy_imports(path.read_text()) == []


def test_check_sees_a_scipy_import():
    source = ("import numpy, scipy.linalg as sl\nfrom scipy import special\n"
              "from .scipyish import x\nimport scipyish\n"
              "def f():\n    from scipy.linalg import expm\n")
    assert scipy_imports(source) == ["scipy.linalg", "scipy", "scipy.linalg"]


def undeclared_imports(source: str, dependencies: list[str]) -> list[str]:
    """The top-level name of each package that source imports, outside the
    standard library and the package itself, and that no requirement in
    dependencies names (names compared in lower case, "-" read as "_")."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    declared = {re.match(r"[\w.-]+", d)[0].lower().replace("-", "_") for d in dependencies}
    return sorted(name for name in imported - set(sys.stdlib_module_names)
                  if name.lower() not in declared)


def declared_dependencies() -> list[str]:
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    return tomllib.loads(pyproject.read_text())["project"]["dependencies"]


@pytest.mark.parametrize("path", SOURCES, ids=SOURCE_IDS)
def test_every_import_is_declared(path):
    assert undeclared_imports(path.read_text(), declared_dependencies()) == []


def test_check_sees_an_undeclared_import():
    source = ("import json, numpy as np\nimport orjson\nfrom scipy.linalg import expm\n"
              "from . import linalg\nfrom .errors import MalformedFile\n"
              "def f():\n    import Some_Pkg.sub\n")
    assert undeclared_imports(source, ["numpy>=1.24"]) == ["Some_Pkg", "orjson", "scipy"]
    assert undeclared_imports(source, ["orjson", "SciPy>=1.10", "some-pkg", "numpy"]) == []
    gmm_stream = (PACKAGE / "gmm_stream.py").read_text()
    without_orjson = [d for d in declared_dependencies() if not d.startswith("orjson")]
    assert undeclared_imports(gmm_stream, without_orjson) == ["orjson"]


def unmet_requirements(dependencies: list[str], installed_version) -> list[str]:
    """Each requirement in dependencies whose package's installed version,
    installed_version(name), falls outside its specifiers."""
    unmet = []
    for requirement in dependencies:
        name, specifiers = re.fullmatch(r"([\w.-]+)(.*)", requirement).groups()
        version = installed_version(name)
        if not SpecifierSet(specifiers).contains(version):
            unmet.append(f"{name} {version} is not {specifiers}")
    return unmet


def test_installed_versions_meet_the_declared_ranges():
    """The bytes every pin holds were made with these versions; numpy's and
    scipy's bundled OpenBLAS copies are the libraries gmmadapt.linalg binds."""
    dependencies = declared_dependencies()
    assert sorted(re.match(r"[\w.-]+", d)[0] for d in dependencies) == ["numpy", "orjson", "scipy"]
    assert unmet_requirements(dependencies, metadata.version) == []


def test_check_sees_an_unmet_requirement():
    versions = {"numpy": "2.4.6", "scipy": "1.18.0", "orjson": "3.8.3"}.get
    assert unmet_requirements(["numpy>=2.4,<3", "scipy>=1.17,<1.18", "orjson>=3.8,<4"],
                              versions) == ["scipy 1.18.0 is not >=1.17,<1.18"]
    assert unmet_requirements(["numpy>=2.4,<3", "orjson"], versions) == []


def own_nodes(func):
    """The nodes of a function's body, without those of a function or class in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """function.name for each name a function assigns and nothing in it,
    nested functions included, reads."""
    unused = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exempt = {"_", *read}
        stored = set()
        for node in own_nodes(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                exempt.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
        unused += sorted(f"{func.name}.{name}" for name in stored - exempt)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_local_is_read(path):
    assert unused_locals(path.read_text()) == []


def test_check_sees_an_unused_local():
    source = ("def outer(x):\n    _, y, n2 = x\n    def inner():\n        return y\n"
              "    return inner\n")
    assert unused_locals(source) == ["outer.n2"]


def reached_dataclasses(*roots) -> list[type]:
    """The roots and every dataclass reachable from them through declared_types,
    the classes errors.read_dataclass builds."""
    reached = []
    todo = list(roots)
    while todo:
        cls = todo.pop(0)
        if cls not in reached:
            reached.append(cls)
            todo += [typ for _, typ, _ in declared_types(cls).values()
                     if dataclasses.is_dataclass(typ)]
    return reached


def checks_fields_first(source: str, name: str) -> bool:
    """Whether class name in source has a __post_init__ whose first
    statement is a call check_fields(self, ...)."""
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and cls.name == name:
            for func in cls.body:
                if isinstance(func, ast.FunctionDef) and func.name == "__post_init__":
                    return ast.unparse(func.body[0]).startswith("check_fields(self, ")
    return False


REACHED = reached_dataclasses(RunConfig, RunRecord)


def test_readers_reach_five_dataclasses():
    assert [cls.__name__ for cls in REACHED] == [
        "RunConfig", "RunRecord", "ShiftSpec", "DomainSpec", "BatchCounts"]


@pytest.mark.parametrize("cls", REACHED, ids=[cls.__name__ for cls in REACHED])
def test_every_reached_dataclass_checks_its_fields_first(cls):
    """read_dataclass applies no value check of its own: each class it
    builds is the one place its values are checked."""
    assert checks_fields_first(Path(inspect.getsourcefile(cls)).read_text(), cls.__name__)


def test_check_sees_a_missing_check_fields():
    source = ("class A:\n    def __post_init__(self):\n        check_fields(self, E)\n"
              "class B:\n    def __post_init__(self):\n        if self.x < 0:\n"
              "            raise E\n        check_fields(self, E)\n"
              "class C:\n    x: int\n"
              "class D:\n    def __post_init__(self):\n        check_fields(other, E)\n")
    assert [checks_fields_first(source, name) for name in "ABCD"] == [True, False, False, False]
