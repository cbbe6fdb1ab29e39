"""Source hygiene checks that need no linter.

Each module under ``src/gspnn`` and ``tests`` is parsed with ``ast``. A
name bound by an import must appear as a name somewhere else in the module.
``from __future__`` imports and the package ``__init__.py`` (whose imports
are re-exports) are exempt.

Every import in ``src/gspnn`` must also name a package the program may
use: the standard library, a ``[project] dependencies`` entry of
``pyproject.toml``, or ``gspnn`` itself. Packages that happen to be
installed, such as scipy, are not enough.

No file the program reads may run code: every ``np.load`` / ``numpy.load``
call in ``src/gspnn`` passes ``allow_pickle=False`` literally, and nothing
there imports ``pickle``.
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


def pickle_risks(source: str) -> list[str]:
    """``pickle`` imports, and ``np.load`` / ``numpy.load`` calls without a
    literal ``allow_pickle=False``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] == "pickle"]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "pickle":
            found.append((node.lineno, f"from {node.module}"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "load" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy"):
            safe = any(kw.arg == "allow_pickle" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is False for kw in node.keywords)
            if not safe:
                found.append((node.lineno, f"{node.func.value.id}.load"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_pickle_risk_is_found():
    source = ("import numpy as np\nimport pickle\nfrom pickle import loads\n"
              "np.load('a')\nnumpy.load('b', allow_pickle=True)\n"
              "np.load('c', allow_pickle=False)\nflag = False\n"
              "np.load('d', allow_pickle=flag)\n")
    assert pickle_risks(source) == [
        "line 2: import pickle", "line 3: from pickle", "line 4: np.load",
        "line 5: numpy.load", "line 8: np.load"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"gspnn/{p.name}")
def test_no_load_can_unpickle(path):
    assert pickle_risks(path.read_text()) == []
