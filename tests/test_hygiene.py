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
there imports ``pickle``. The program has one on-disk array format: every
``np.save`` / ``np.savez`` / ``np.load`` call in ``src/gspnn`` sits in
``neural.write_archive`` or ``neural.read_archive``. The program has one
result-file writer too: no module of ``src/gspnn`` but ``cli.py`` imports
``csv``. Only ``flocking.py``, whose imitation training forks one batch
worker, may start processes: no other module of ``src/gspnn`` imports
``multiprocessing`` or ``concurrent`` or uses ``os.fork``. ``flocking.py``
imports the process pool only where a training starts it, so a fresh
``import gspnn.cli`` loads neither ``multiprocessing`` nor
``concurrent.futures.process``.

The CLI keeps one run record per command: only ``dispatch`` builds a
``RunContext`` or calls ``write_manifest``.

The program has one product with a shift matrix, ``ShiftOperator.apply``:
no module of ``src/gspnn`` but ``graphs.py`` uses a ``.matrix`` attribute
(or a slice or transpose of one) as an operand of ``@``, ``np.matmul`` or
``np.dot``.

Every top-level function, class and constant of ``src/gspnn`` must be
referenced somewhere in ``src``, ``bench`` or ``tests`` outside its own
definition: as a name, an attribute, an imported name or a string equal to
it (``bench/tracing.py`` looks functions up by name). Only the program
counts as a caller: a name that nothing in ``src`` or ``bench`` (outside
``bench/tests``) references is test code, which lives in ``tests``. For
that check a reference must resolve to the module-level name: an import
of it, an attribute of its imported module, or a load in its own module
that no enclosing function shadows. A local variable or an attribute of
another object that shares the name does not count.

Every defaulted parameter of a function in ``src/gspnn`` must be passed,
by keyword or by position, by some call in ``src`` or ``bench`` (outside
``bench/tests``): a knob that only tests set is a constant.

The program has one integer rule, ``graphs.check_count``: no other
function of ``src/gspnn`` tests a value for a bool or an int by its type
(``isinstance(x, bool)``, ``t is bool``, ``type(x) is int``), except those
``TYPE_TEST_EXEMPT`` names with a reason.

Every top-level helper and fixture of ``tests/conftest.py`` must be reached
from a test module: referenced by one (a fixture also by a parameter of
that name), or by a helper or fixture that is itself reached. An oracle
whose last test is gone is dead code.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "gspnn", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted((ROOT / "src" / "gspnn").glob("*.py"))
IMPORT_NAMES = {"pyyaml": "yaml"}  # distribution name -> import name
REFERENCING = sorted(p for d in ("src", "bench", "tests")
                     for p in (ROOT / d).rglob("*.py"))


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


def imports_of(package: str, tree: ast.Module) -> list[tuple[int, str]]:
    """(line, what) for every import of ``package`` or of a submodule of it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] == package]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == package:
            found.append((node.lineno, f"from {node.module}"))
    return found


def pickle_risks(source: str) -> list[str]:
    """``pickle`` imports, and ``np.load`` / ``numpy.load`` calls without a
    literal ``allow_pickle=False``."""
    tree = ast.parse(source)
    found = imports_of("pickle", tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
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


ARCHIVE_IO = ("save", "savez", "savez_compressed", "load")
ARCHIVE_FUNCTIONS = ("write_archive", "read_archive")


def archive_io_outside_the_archive_functions(source: str) -> list[str]:
    """``np`` / ``numpy`` save, savez and load calls outside the bodies of
    the top-level ``write_archive`` and ``read_archive``."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name in ARCHIVE_FUNCTIONS:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ARCHIVE_IO \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in ("np", "numpy"):
                found.append((node.lineno, f"{node.func.value.id}.{node.func.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_archive_io_outside_the_archive_functions_is_found():
    source = ("import numpy as np\n"
              "def write_archive(path, header, members):\n"
              "    np.savez(path, **members)\n"
              "def read_archive(path, version, what):\n"
              "    return np.load(path, allow_pickle=False)\n"
              "def save_rows(path, rows):\n    np.save(path, rows)\n"
              "class Store:\n    def load(self, path):\n"
              "        return numpy.load(path, allow_pickle=False)\n"
              "np.savez_compressed('x', a=1)\nnp.loadtxt('y')\n")
    assert archive_io_outside_the_archive_functions(source) == [
        "line 7: np.save", "line 10: numpy.load", "line 11: np.savez_compressed"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"gspnn/{p.name}")
def test_arrays_are_stored_only_through_the_archive_functions(path):
    assert archive_io_outside_the_archive_functions(path.read_text()) == []


def csv_imports(source: str) -> list[str]:
    return [f"line {line}: {what}"
            for line, what in sorted(imports_of("csv", ast.parse(source)))]


def test_a_csv_import_is_found():
    source = ("import csv\nimport os, csv as table\nfrom csv import writer\n"
              "import csvkit\ndef save(path):\n    import csv\n")
    assert csv_imports(source) == ["line 1: import csv", "line 2: import csv",
                                   "line 3: from csv", "line 6: import csv"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"],
                         ids=lambda p: f"gspnn/{p.name}")
def test_only_the_cli_writes_csv(path):
    assert csv_imports(path.read_text()) == []


PROCESS_PACKAGES = ("multiprocessing", "concurrent")


def process_starts(source: str) -> list[str]:
    """Imports of ``multiprocessing`` or ``concurrent`` (or a submodule),
    and ``os.fork`` as an attribute or an imported name."""
    tree = ast.parse(source)
    found = [hit for package in PROCESS_PACKAGES for hit in imports_of(package, tree)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fork" \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, "os.fork"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                and any(alias.name == "fork" for alias in node.names):
            found.append((node.lineno, "from os import fork"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_a_process_start_is_found():
    source = ("import multiprocessing\nimport os, multiprocessing.pool as mp\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "from os import getpid, fork\npid = os.fork()\n"
              "import concurrently\nfrom os import forkpty\n"
              "def start():\n    import multiprocessing\n")
    assert process_starts(source) == [
        "line 1: import multiprocessing", "line 2: import multiprocessing.pool",
        "line 3: from concurrent.futures", "line 4: from os import fork",
        "line 5: os.fork", "line 9: import multiprocessing"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "flocking.py"],
                         ids=lambda p: f"gspnn/{p.name}")
def test_only_flocking_starts_processes(path):
    assert process_starts(path.read_text()) == []


def test_importing_the_cli_loads_no_process_pool():
    code = ("import sys, gspnn.cli; print(sorted(m for m in sys.modules if m in "
            "('multiprocessing', 'concurrent.futures.process')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout == "[]\n"


def run_record_calls_outside_dispatch(source: str) -> list[str]:
    """``RunContext(...)`` and ``.write_manifest()`` calls outside the body of
    the top-level ``dispatch``."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "dispatch":
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, (ast.Name, ast.Attribute)) \
                    and _name(node.func) in ("RunContext", "write_manifest"):
                found.append((node.lineno, _name(node.func)))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_a_run_record_call_outside_dispatch_is_found():
    source = ("def dispatch(group, leaf, flags):\n"
              "    ctx = RunContext(group, flags)\n    ctx.write_manifest()\n"
              "def cmd_run(cfg):\n    ctx = cli.RunContext('run', cfg)\n"
              "    ctx.write_manifest()\n"
              "class RunContext:\n    def write_manifest(self):\n        pass\n"
              "record = RunContext('x', {})\n")
    assert run_record_calls_outside_dispatch(source) == [
        "line 5: RunContext", "line 6: write_manifest", "line 10: RunContext"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"gspnn/{p.name}")
def test_only_dispatch_keeps_the_run_record(path):
    assert run_record_calls_outside_dispatch(path.read_text()) == []


def _is_shift_matrix(node: ast.AST) -> bool:
    while isinstance(node, ast.Subscript) or (isinstance(node, ast.Attribute)
                                              and node.attr == "T"):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "matrix"


def shift_matrix_products(source: str) -> list[str]:
    """``@``, ``np.matmul`` and ``np.dot`` (or ``numpy.``) with a ``.matrix``
    operand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            operands, what = (node.left, node.right), "@"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("matmul", "dot") \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("np", "numpy"):
            operands, what = node.args, f"{node.func.value.id}.{node.func.attr}"
        else:
            continue
        if any(map(_is_shift_matrix, operands)):
            found.append((node.lineno, what))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_a_shift_matrix_product_is_found():
    source = ("import numpy as np\n"
              "y = s.matrix @ x\n"
              "y = x @ s.matrix.T + s.matrix * 2.0\n"
              "y = np.matmul(s.matrix, x)\n"
              "y = numpy.dot(x, self.matrix[:, 0])\n"
              "y = s.apply(x) @ w + np.dot(s.matrices, x) + np.matmul(x, m)\n")
    assert shift_matrix_products(source) == [
        "line 2: @", "line 3: @", "line 4: np.matmul", "line 5: numpy.dot"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graphs.py"],
                         ids=lambda p: f"gspnn/{p.name}")
def test_only_apply_multiplies_by_the_shift_matrix(path):
    assert shift_matrix_products(path.read_text()) == []


def top_level_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, statement index) for every top-level def, class and assigned
    name, dunders excepted."""
    found = []
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, i))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, i) for t in targets if isinstance(t, ast.Name)]
    return [(name, i) for name, i in found if not name.startswith("__")]


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
    return names


def unreferenced_definitions(defining: dict[str, str],
                             referencing: dict[str, str]) -> list[str]:
    """``label:name`` for each top-level definition of the ``defining``
    sources (label -> text) that no top-level statement of the
    ``referencing`` sources references, other than its own definition."""
    users = {}  # name -> {(label, statement index)} of the statements using it
    for label, text in referencing.items():
        for i, stmt in enumerate(ast.parse(text).body):
            for name in referenced_names(stmt):
                users.setdefault(name, set()).add((label, i))
    return [f"{label}:{name}" for label, text in defining.items()
            for name, i in top_level_definitions(ast.parse(text))
            if not users.get(name, set()) - {(label, i)}]


def test_unreferenced_definition_is_found():
    lib = ("import numpy as np\nLIMIT = 3\nUNUSED = 4\n"
           "def used():\n    return LIMIT\n"
           "def recursive(n):\n    return recursive(n - 1)\n"
           "class Looked:\n    pass\n"
           "def dead():\n    dead = 1\n    return dead\n")
    other = ("from lib import used\nused()\n"
             "getattr(lib, 'Looked')\nprint('dead code')\n")
    sources = {"lib": lib, "other": other}
    assert unreferenced_definitions({"lib": lib}, sources) == [
        "lib:UNUSED", "lib:recursive", "lib:dead"]


def test_every_top_level_name_is_referenced():
    referencing = {str(p.relative_to(ROOT)): p.read_text() for p in REFERENCING}
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unreferenced_definitions(defining, referencing) == []


# Test-only names allowed in ``src``: name -> the reason.
TEST_ONLY_EXEMPT = {
    "src/gspnn/analysis.py:eigenvector_misalignment":
        "ROADMAP item 3 gives it a caller: the stability check computes the "
        "eigenvector misalignment of the perturbation bound with it",
    "src/gspnn/flocking.py:zero_controller_cost":
        "bench/tests/test_bench.py checks the bench's zero-controller oracle "
        "against it; it moves to tests/ with the next change to the benchmark",
}


class _ProgramReferences(ast.NodeVisitor):
    """The (module, name) pairs a program file references, where module is
    the name of a ``gspnn`` module (``graphs`` for ``src/gspnn/graphs.py``).

    A reference counts only when it resolves to that module's top-level
    name: ``from module import name``, ``module.name`` on an imported
    module, or, inside the module itself, a load of ``name`` that no
    enclosing function binds. A string equal to a name counts for every
    module (``bench/tracing.py`` looks functions up by name); its module is
    None. ``refs`` maps each pair to the top-level statements using it."""

    def __init__(self, module: str | None):
        self.module = module
        self.aliases = {}      # local name -> gspnn module ("" for the package)
        self.scopes = []       # names bound by each enclosing function
        self.refs = {}
        self.statement = 0

    def visit_Module(self, node):
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.name == "gspnn" or alias.name.startswith("gspnn."):
                        if alias.asname:
                            self.aliases[alias.asname] = alias.name[len("gspnn."):]
                        else:
                            self.aliases["gspnn"] = ""
            elif isinstance(stmt, ast.ImportFrom):
                source = self._imported_module(stmt)
                for alias in stmt.names if source == "" else ():
                    self.aliases[alias.asname or alias.name] = alias.name
        for self.statement, stmt in enumerate(node.body):
            self.visit(stmt)

    @staticmethod
    def _imported_module(node: ast.ImportFrom) -> str | None:
        if node.level == 1:
            return node.module or ""
        if node.level == 0 and node.module and node.module.split(".")[0] == "gspnn":
            return node.module.partition(".")[2]
        return None

    def _use(self, module, name):
        self.refs.setdefault((module, name), set()).add(self.statement)

    def _module_of(self, node) -> str | None:
        """The gspnn module an expression denotes, if any."""
        if isinstance(node, ast.Name) and not self._bound(node.id):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute) and self._module_of(node.value) == "":
            return node.attr
        return None

    def _bound(self, name) -> bool:
        return any(name in scope for scope in self.scopes)

    def visit_ImportFrom(self, node):
        source = self._imported_module(node)
        if source:
            for alias in node.names:
                self._use(source, alias.name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not self._bound(node.id) \
                and self.module is not None:
            self._use(self.module, node.id)

    def visit_Attribute(self, node):
        module = self._module_of(node.value)
        if module:
            self._use(module, node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._use(None, node.value)

    def _visit_function(self, node):
        args = node.args
        outside = args.defaults + args.kw_defaults + getattr(node, "decorator_list", [])
        outside += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                    + [args.vararg, args.kwarg] if a is not None]
        for expr in outside + [getattr(node, "returns", None)]:
            if expr is not None:
                self.visit(expr)
        self.scopes.append(_local_names(node))
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(stmt)
        self.scopes.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _visit_function


def _local_names(func) -> set[str]:
    """Names a function or lambda binds: its arguments and every name it
    stores, imports or defines, nested functions and classes not searched;
    ``global`` names excepted."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared_global = set()
    todo = list(func.body) if isinstance(func.body, list) else [func.body]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            todo += node.decorator_list
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.Global):
            declared_global |= set(node.names)
        todo += ast.iter_child_nodes(node)
    return names - declared_global


def _program_files(root: Path) -> list[Path]:
    """The modules of ``root/src`` and ``root/bench``, the bench's tests
    not counted."""
    return sorted(p for d in ("src", "bench") for p in (root / d).rglob("*.py")
                  if "tests" not in p.relative_to(root).parts)


def program_references(root: Path) -> dict[tuple, set]:
    """(module, name) -> {(path, top-level statement index)} over the
    program files."""
    refs = {}
    for path in _program_files(root):
        label = str(path.relative_to(root))
        visitor = _ProgramReferences(path.stem if path.parent.name == "gspnn" else None)
        visitor.visit(ast.parse(path.read_text()))
        for key, statements in visitor.refs.items():
            refs.setdefault(key, set()).update((label, i) for i in statements)
    return refs


def names_only_tests_use(root: Path) -> list[str]:
    """``path:name`` for each top-level definition of ``root/src/gspnn``
    that no module of ``root/src`` or ``root/bench`` (the bench's own tests
    not counted) references as that module's name, other than in its own
    definition."""
    refs = program_references(root)
    found = []
    for path in sorted((root / "src" / "gspnn").glob("*.py")):
        label = str(path.relative_to(root))
        for name, i in top_level_definitions(ast.parse(path.read_text())):
            users = refs.get((path.stem, name), set()) | refs.get((None, name), set())
            if not users - {(label, i)}:
                found.append(f"{label}:{name}")
    return found


def test_a_name_only_tests_use_is_found(tmp_path):
    files = {
        "src/gspnn/lib.py": ("def program():\n    pass\n"
                             "def benched():\n    pass\n"
                             "def oracle():\n    pass\n"
                             "def helper():\n    pass\n"
                             "def looked_up():\n    pass\n"
                             "def shadowed():\n    pass\n"
                             "def called_in_lib(shadowed):\n"
                             "    return helper(), shadowed\n"),
        "src/gspnn/app.py": ("from .lib import program\nfrom . import lib as L\n"
                             "program()\nL.called_in_lib(1)\n"),
        "bench/run.py": ("import gspnn.lib\nfrom gspnn.lib import benched\nbenched()\n"
                         "getattr(gspnn.lib, 'looked_up')\n"),
        "bench/tests/test_run.py": "from gspnn.lib import oracle\noracle()\n",
        "tests/test_lib.py": "from gspnn.lib import oracle, program\noracle()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert names_only_tests_use(tmp_path) == ["src/gspnn/lib.py:oracle",
                                              "src/gspnn/lib.py:shadowed"]


def test_a_test_only_name_that_is_also_a_local_in_the_program_is_found(tmp_path):
    files = {
        "src/gspnn/lib.py": ("def program(x):\n    oracle = x.oracle\n"
                             "    return [oracle for oracle in oracle]\n"
                             "def oracle():\n    pass\n"
                             "class Typed:\n    pass\n"
                             "def annotated(x: Typed) -> None:\n    return x\n"),
        "src/gspnn/app.py": ("from .lib import annotated, program\n"
                             "def run(oracle):\n    lam = lambda oracle: oracle\n"
                             "    return program(oracle).oracle, lam\n"
                             "class Holder:\n    def oracle(self):\n"
                             "        return self.oracle\n"),
        "bench/run.py": ("import gspnn.lib as lib\nfrom gspnn.app import run\n"
                         "def oracle(s):\n    return s\nrun(oracle)\n"),
        "tests/test_lib.py": "from gspnn.lib import oracle\noracle()\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert names_only_tests_use(tmp_path) == ["src/gspnn/app.py:Holder",
                                              "src/gspnn/lib.py:oracle"]


def test_no_top_level_name_is_used_only_by_tests():
    found = names_only_tests_use(ROOT)
    leaks = [name for name in found if name not in TEST_ONLY_EXEMPT]
    assert not leaks, f"only tests use {leaks}: move them to tests/ or delete them"
    # an exemption whose name gained a program caller is stale
    assert sorted(TEST_ONLY_EXEMPT) == sorted(set(found) & set(TEST_ONLY_EXEMPT))


# Defaulted parameters no program call passes: ``path:function(parameter)``
# -> the reason.
UNPASSED_DEFAULT_EXEMPT = {
    "src/gspnn/cli.py:main(argv)":
        "the console entry point: the installed `gspnn` script calls main() "
        "with no argument, and argv lets a caller run a command in-process",
}


def _name(node: ast.Name | ast.Attribute) -> str:
    return node.id if isinstance(node, ast.Name) else node.attr


def _program_calls(root: Path):
    """(calls, values) over the program files. ``calls`` maps a callee name
    (a function name or the attribute name of ``obj.name(...)``) to one
    (positional count, keyword names, has ``*args``, has ``**kwargs``) per
    call; ``values`` holds the names loaded other than as a callee or the
    object of an attribute, such as a function handed to ``partial``."""
    calls, loads, not_values = {}, set(), set()
    for path in _program_files(root):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) \
                    and isinstance(node.ctx, ast.Load):
                loads.add(node)
            if isinstance(node, ast.Attribute):
                not_values.add(node.value)
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, (ast.Name, ast.Attribute)):
                not_values.add(node.func)
                calls.setdefault(_name(node.func), []).append((
                    sum(not isinstance(a, ast.Starred) for a in node.args),
                    {kw.arg for kw in node.keywords},
                    any(isinstance(a, ast.Starred) for a in node.args),
                    any(kw.arg is None for kw in node.keywords)))
    return calls, {_name(node) for node in loads - not_values}


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, call names, parameter, positional index or None,
    leading bound argument count) per defaulted parameter of every function
    and method. A method is called with ``self`` bound, and ``__init__``
    by its class name."""
    found = []

    def visit(node, cls):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                visit(sub, sub)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in sub.decorator_list)
                bound = int(cls is not None and not static)
                names = {sub.name}
                if cls is not None and sub.name == "__init__":
                    names.add(cls.name)
                qual = f"{cls.name}.{sub.name}" if cls is not None else sub.name
                args = sub.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found.extend((qual, names, arg.arg, i, bound)
                             for i, arg in enumerate(positional) if i >= first)
                found.extend((qual, names, arg.arg, None, bound) for arg, default
                             in zip(args.kwonlyargs, args.kw_defaults) if default)
                visit(sub, None)
            else:
                visit(sub, cls)

    visit(tree, None)
    return found


def defaulted_parameters_the_program_never_passes(root: Path) -> list[str]:
    """``path:function(parameter)`` for each defaulted parameter of a
    function in ``root/src/gspnn`` that no call in ``root/src`` or
    ``root/bench`` (the bench's own tests not counted) passes, by keyword or
    by position. A call matches by function name, by attribute name, or by
    class name for ``__init__``, and a function the program names other
    than as a callee (handed to ``partial``, say) passes every parameter.
    This can miss a knob, when another function shares its name, but never
    flags a used one that a call names."""
    calls, values = _program_calls(root)
    found = []
    for path in sorted((root / "src" / "gspnn").glob("*.py")):
        label = str(path.relative_to(root))
        for qual, names, param, index, bound in _defaulted_parameters(
                ast.parse(path.read_text())):
            if names & values:
                continue
            if not any(param in keywords or star_kw
                       or index is not None and (star or index < count + bound)
                       for name in names
                       for count, keywords, star, star_kw in calls.get(name, [])):
                found.append(f"{label}:{qual}({param})")
    return found


def test_a_defaulted_parameter_the_program_never_passes_is_found(tmp_path):
    files = {
        "src/gspnn/lib.py": ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
                             "def by_star(a, b=1):\n    pass\n"
                             "def by_kwargs(a, *, b=1):\n    pass\n"
                             "def handed(a, b=1):\n    pass\n"
                             "class Box:\n"
                             "    def __init__(self, a, size=1, fill=0):\n"
                             "        pass\n"
                             "    def grow(self, by=1, at=0):\n        pass\n"
                             "    @staticmethod\n"
                             "    def make(a=1, b=2):\n        pass\n"),
        "src/gspnn/app.py": ("from functools import partial\n"
                             "from .lib import Box, by_kwargs, by_star, f, handed\n"
                             "f(0, 1, d=2)\nby_star(*[0, 1])\nby_kwargs(0, **{})\n"
                             "g = partial(handed, 0)\nBox(0, 1).grow(2)\n"
                             "Box.make(1)\n"),
        "bench/tests/test_run.py": "from gspnn.lib import f\nf(0, c=1, e=2)\n",
        "tests/test_lib.py": "from gspnn.lib import f\nf(0, c=1, e=2)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert defaulted_parameters_the_program_never_passes(tmp_path) == [
        "src/gspnn/lib.py:f(c)", "src/gspnn/lib.py:f(e)",
        "src/gspnn/lib.py:Box.__init__(fill)", "src/gspnn/lib.py:Box.grow(at)",
        "src/gspnn/lib.py:Box.make(b)"]


def test_every_defaulted_parameter_is_passed_by_the_program():
    found = defaulted_parameters_the_program_never_passes(ROOT)
    unpassed = [name for name in found if name not in UNPASSED_DEFAULT_EXEMPT]
    assert not unpassed, (f"no program call passes {unpassed}: make them "
                          "constants or pass them")
    # an exemption whose parameter gained a program caller is stale
    assert sorted(UNPASSED_DEFAULT_EXEMPT) == sorted(
        set(found) & set(UNPASSED_DEFAULT_EXEMPT))


# Functions of ``src/gspnn`` other than ``graphs.check_count`` that may test
# for a bool or an int by type: ``path:function`` -> the reason.
TYPE_TEST_EXEMPT = {
    "src/gspnn/graphs.py:_check_types":
        "edge tuples: one pass over the set of entry types names the first "
        "edge whose node index or weight is a bool or of another type",
    "src/gspnn/cli.py:_coerce":
        "YAML values: a YAML true loads as a bool, which is an int, and no "
        "config key takes one",
    "src/gspnn/flocking.py:FlockConfig.__post_init__":
        "FlockConfig's float fields: a bool is an int, which a float field "
        "would otherwise take",
}
COUNT_RULE = "src/gspnn/graphs.py:check_count"


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


class _TypeTests(ast.NodeVisitor):
    """The qualified names of the functions (``<module>`` at the top level)
    holding an ``isinstance`` whose type, or a type in its tuple, is
    ``bool``, or an ``is`` / ``is not`` / ``==`` / ``!=`` comparison with
    ``bool``, or of a ``type(...)`` call with ``int``. A name compared with
    ``int`` is not a value's type (``typ is int`` picks a parser)."""

    def __init__(self):
        self.scope = []
        self.found = set()

    def _nested(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _nested

    def _found(self):
        self.found.add(".".join(self.scope) or "<module>")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance" \
                and len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(_is_name(k, "bool") for k in kinds):
                self._found()
        self.generic_visit(node)

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        typed = any(isinstance(o, ast.Call) and _is_name(o.func, "type")
                    for o in operands)
        if any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
               for op in node.ops) \
                and any(_is_name(o, "bool") or typed and _is_name(o, "int")
                        for o in operands):
            self._found()
        self.generic_visit(node)


def bool_or_int_type_tests(source: str) -> list[str]:
    visitor = _TypeTests()
    visitor.visit(ast.parse(source))
    return sorted(visitor.found)


def test_a_bool_or_int_type_test_is_found():
    source = ("def a(x):\n    return isinstance(x, bool)\n"
              "def b(x):\n    return isinstance(x, (int, bool))\n"
              "class C:\n    def d(self, x):\n        return type(x) is int\n"
              "def e(types):\n    return {t for t in types if t is not bool}\n"
              "def f(x):\n    return isinstance(x, int) and type(x) is not list\n"
              "def g(x, typ):\n    return x is None or x == 1 or typ is int\n"
              "flag = type(1) == bool\n")
    assert bool_or_int_type_tests(source) == ["<module>", "C.d", "a", "b", "e"]


def test_only_the_integer_rule_tests_for_a_bool_or_an_int_by_type():
    found = {f"{p.relative_to(ROOT)}:{name}" for p in SOURCES
             for name in bool_or_int_type_tests(p.read_text())}
    assert COUNT_RULE in found
    leaks = sorted(found - set(TYPE_TEST_EXEMPT) - {COUNT_RULE})
    assert not leaks, f"{leaks} test a type by hand: use graphs.check_count"
    # an exemption whose function no longer tests a type is stale
    assert sorted(TYPE_TEST_EXEMPT) == sorted(found & set(TYPE_TEST_EXEMPT))


def unreached_conftest_names(conftest: str, tests: list[str]) -> list[str]:
    """Top-level definitions of the ``conftest`` source that no module of
    ``tests`` (their sources) reaches: by a reference or a parameter name
    in the module, or through a definition of ``conftest`` that is
    reached."""
    tree = ast.parse(conftest)
    defined = dict(top_level_definitions(tree))

    def uses(node):
        params = {sub.arg for sub in ast.walk(node) if isinstance(sub, ast.arg)}
        return (referenced_names(node) | params) & defined.keys()

    reached = set().union(*(uses(ast.parse(text)) for text in tests))
    todo = list(reached)
    while todo:
        new = uses(tree.body[defined[todo.pop()]]) - reached
        reached |= new
        todo += new
    return [name for name in defined if name not in reached]


def test_an_unreached_conftest_helper_is_found():
    conftest = ("import pytest\nLIMIT = 3\n"
                "def oracle(x):\n    return inner(x) + LIMIT\n"
                "def inner(x):\n    return x\n"
                "def orphan(x):\n    return helper_of_orphan(x)\n"
                "def helper_of_orphan(x):\n    return x\n"
                "def named_in_a_string():\n    pass\n"
                "@pytest.fixture\ndef rng():\n    pass\n"
                "@pytest.fixture\ndef graph(rng):\n    pass\n"
                "@pytest.fixture\ndef unused_fixture():\n    pass\n")
    tests = ["from conftest import oracle\ndef test_a(graph):\n    oracle(1)\n",
             "import pytest\n@pytest.mark.usefixtures('named_in_a_string')\n"
             "def test_b():\n    pass\n"]
    assert unreached_conftest_names(conftest, tests) == [
        "orphan", "helper_of_orphan", "unused_fixture"]
    # a fixture reached only through another fixture is dead with it
    assert unreached_conftest_names(conftest, tests[1:]) == [
        "LIMIT", "oracle", "inner", "orphan", "helper_of_orphan", "rng",
        "graph", "unused_fixture"]


def test_every_conftest_helper_is_reached_from_a_test_module():
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("test_*.py"))]
    conftest = (ROOT / "tests" / "conftest.py").read_text()
    assert unreached_conftest_names(conftest, tests) == []
