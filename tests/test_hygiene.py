"""Source hygiene checks that need no linter.

Each module under ``src/gspnn`` and ``tests`` is parsed with ``ast``. A
name bound by an import must appear as a name somewhere else in the module.
``from __future__`` imports and the package ``__init__.py`` (whose imports
are re-exports) are exempt.

Every import in ``src/gspnn`` must also name a package the program may
use: the standard library, a ``[project] dependencies`` entry of
``pyproject.toml``, or ``gspnn`` itself. Packages that happen to be
installed, such as scipy, are not enough.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "gspnn", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted((ROOT / "src" / "gspnn").glob("*.py"))
IMPORT_NAMES = {"pyyaml": "yaml"}  # distribution name -> import name


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_unused_import_is_found():
    source = "import os\nimport sys\nfrom a.b import c, d as e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def declared_modules() -> set[str]:
    """Import names of the ``[project] dependencies`` in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
             for req in project["dependencies"]}
    return {IMPORT_NAMES.get(name, name) for name in names}


def undeclared_imports(source: str, allowed: set[str]) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]  # level > 0 is a relative import of gspnn
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in allowed]
    return found


def allowed_modules() -> set[str]:
    return set(sys.stdlib_module_names) | declared_modules() | {"gspnn"}


def test_undeclared_import_is_found():
    source = ("import os, scipy.sparse\nimport numpy as np\n"
              "from yaml import safe_load\nfrom sklearn import svm\n"
              "from . import graphs\nfrom gspnn.graphs import Graph\n")
    assert undeclared_imports(source, allowed_modules()) == [
        "line 1: scipy.sparse", "line 4: sklearn"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"gspnn/{p.name}")
def test_every_import_is_declared(path):
    assert undeclared_imports(path.read_text(), allowed_modules()) == []
