"""Every module uses each name it imports, src/screenlab reads every private
name it defines, the tests and scripts close every file they open, only
two functions of the package fork or start threads, only one takes a
sample's spread, and the model's types hold no recomputing property.

The repository has no linter configured, so these tests parse the modules
with ``ast``.  One fails on an imported name that its module never
references, under src/screenlab, tests/ and scripts/; ``__init__.py`` is
left out: its imports are the package's exports.  One fails on a private
function, class or assigned name at the top level of a src/screenlab
module that no module there reads, by name, as an attribute or in an
import: code that only the tests still reach.  The last fails on an
``open(...)`` in tests/ or scripts/ that is not the context expression of a
``with`` item.  src/ is left out of that one: ``cli._fork_write`` returns
the pipe it opens, and ``cli._child_report`` closes it.  Another fails on
a top-level module imported under src/screenlab that is neither in the
standard library, nor screenlab itself, nor named in pyproject.toml's
``[project] dependencies``: an installed but undeclared package would
pass here and fail on a clean install.  One more pins the package's two
measured kinds of concurrency to their one site each: only
``cli._fork_write`` calls ``os.fork``, once per started CSV table, to
render, write and hash it in a child, and only
``thresholds._sampled_losses`` builds a ``ThreadPoolExecutor`` (no function
builds a ``threading.Thread``).  The last pins the Monte Carlo estimate
to its one site: no function but ``population._mean_and_se`` calls a
``std`` or ``var`` method or numpy's ``std`` or ``var``.  And the model's
three types compute their derived constants once, when they are built:
none of ``PayoffParams``, ``GaussianSignalModel`` and ``ModelConfig``
defines a property but ``GaussianSignalModel.covariance``, which returns a
new array on each read.
"""
from __future__ import annotations

import ast
import glob
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATTERNS = ("src/screenlab/*.py", "tests/*.py", "scripts/*.py")


def module_paths(patterns) -> list[str]:
    paths = sorted(
        path for pattern in patterns for path in glob.glob(os.path.join(ROOT, pattern))
        if os.path.basename(path) != "__init__.py"
    )
    assert paths
    return paths


def unused_imports(source: str) -> list[str]:
    """Names bound by an import of ``source`` and never read in it."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_privates(sources) -> list[str]:
    """Private names (not dunders) that a module of ``sources`` defines at
    its top level, by ``def``, ``class`` or assignment, and that none of
    ``sources`` reads: by name, as an attribute or in a ``from`` import."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(name.id for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    private = {name for name in defined
               if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}
    return sorted(private - read)


def unclosed_opens(source: str) -> list[int]:
    """Lines of the ``open(...)`` calls of ``source`` that no ``with`` item
    holds, so the file is left to the garbage collector to close."""
    tree = ast.parse(source)
    held = {id(item.context_expr) for node in ast.walk(tree)
            if isinstance(node, ast.With) for item in node.items}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "open" and id(node) not in held
    )


def undeclared_imports(source: str, declared) -> list[str]:
    """Top-level modules that ``source`` imports, absolutely, and that are
    neither in the standard library, nor ``screenlab``, nor in ``declared``."""
    tree = ast.parse(source)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    known = set(sys.stdlib_module_names) | {"screenlab"} | set(declared)
    return sorted(modules - known)


def declared_dependencies() -> set[str]:
    """Names of pyproject.toml's ``[project] dependencies``, lower case with
    ``-`` read as ``_``, as a module is named."""
    import tomllib  # Python 3.11 on: imported here, the other scans run on 3.10

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
            for requirement in requirements}


CONCURRENCY = {"os.fork", "concurrent.futures.ThreadPoolExecutor", "threading.Thread"}


def call_sites(source: str, module: str) -> set[tuple[str, str]]:
    """(owner, callee) of each call in ``source``; the callee is dotted and
    read through the module's imports, with ``<expr>`` for a receiver that
    is no name, as in ``(a - b).std()``; the owner is ``module.name`` of the
    top-level function or class holding the call, nested functions
    included, or ``module`` for module-level code."""
    tree = ast.parse(source)
    full = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            full.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            full.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                         for alias in node.names})
    sites = set()
    for top in tree.body:
        owner = (f"{module}.{top.name}" if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else module)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.insert(0, func.attr)
                func = func.value
            head = full.get(func.id, func.id) if isinstance(func, ast.Name) else "<expr>"
            sites.add((owner, ".".join([head, *parts])))
    return sites


def concurrency_sites(source: str, module: str) -> set[tuple[str, str]]:
    """The call sites of ``source`` whose callee is a name of ``CONCURRENCY``."""
    return {site for site in call_sites(source, module) if site[1] in CONCURRENCY}


def spread_sites(source: str, module: str) -> set[tuple[str, str]]:
    """The call sites of ``source`` that take a standard deviation or a
    variance: a ``std`` or ``var`` method, numpy's functions included."""
    return {site for site in call_sites(source, module)
            if site[1].rpartition(".")[2] in ("std", "var")}


def src_sites(scan) -> set[tuple[str, str]]:
    sites = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src/screenlab/*.py"))):
        with open(path, encoding="utf-8") as fh:
            sites |= scan(fh.read(), os.path.basename(path)[:-3])
    return sites


def test_scan_finds_concurrency_sites():
    source = (
        "import os, threading as th\nfrom concurrent.futures import ThreadPoolExecutor as P\n"
        "from os import fork\n"
        "def a():\n    def inner():\n        return os.fork()\n    return inner\n"
        "class B:\n    def run(self):\n        th.Thread(target=print).start()\n"
        "def c():\n    with P(2) as pool:\n        return fork(), os.getpid(), pool\n"
        "thread = th.Thread\nos.forkpty()\n"
    )
    assert concurrency_sites(source, "m") == {
        ("m.a", "os.fork"), ("m.B", "threading.Thread"),
        ("m.c", "concurrent.futures.ThreadPoolExecutor"), ("m.c", "os.fork"),
    }


def test_only_the_measured_sites_fork_or_start_threads():
    assert src_sites(concurrency_sites) == {
        ("cli._fork_write", "os.fork"),
        ("thresholds._sampled_losses", "concurrent.futures.ThreadPoolExecutor"),
    }


def test_scan_finds_spread_sites():
    source = (
        "import numpy as np\nfrom numpy import var as v\n"
        "def a(u):\n    def inner():\n        return u.std(ddof=1)\n    return inner\n"
        "def b(x, y):\n    return np.var(x) + (x - y).std() + v(y) + x[0].var()\n"
        "def c(u):\n    return u.mean(), np.sqrt(u.sum()), u.stdev(), standard(u)\n"
        "spread = np.std(np.ones(2))\n"
    )
    assert spread_sites(source, "m") == {
        ("m.a", "u.std"), ("m.b", "numpy.var"), ("m.b", "<expr>.std"),
        ("m.b", "<expr>.var"), ("m", "numpy.std"),
    }


def test_one_monte_carlo_standard_error():
    """Every sample spread in the package comes from one function, so the
    Monte Carlo mean and its standard error are written once."""
    owners = {owner for owner, _ in src_sites(spread_sites)}
    assert owners <= {"population._mean_and_se"}


def test_scan_finds_an_undeclared_import():
    source = (
        "import os, numpy.linalg\nfrom scipy import special\nfrom . import cli\n"
        "from .model import x\nimport yaml as y\nfrom requests.adapters import a\n"
        "import screenlab.cli\n"
    )
    assert undeclared_imports(source, {"numpy", "scipy"}) == ["requests", "yaml"]


def test_src_imports_only_declared_packages():
    declared = declared_dependencies()
    assert {"numpy", "scipy"} <= declared
    paths = sorted(glob.glob(os.path.join(ROOT, "src/screenlab/*.py")))
    assert len(paths) > 5
    undeclared = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            modules = undeclared_imports(fh.read(), declared)
        if modules:
            undeclared[os.path.relpath(path, ROOT)] = modules
    assert undeclared == {}


def test_scan_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom json import dumps as d, loads\nsys.exit(loads(''))\n"
    assert unused_imports(source) == ["d", "os"]


def test_no_module_imports_a_name_it_never_uses():
    paths = module_paths(PATTERNS)
    assert len(paths) > 10
    unused = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}


def test_scan_finds_an_unread_private():
    defining = (
        "_used = 1\n_unused: int = 2\n_attr, (_pair, _other) = 1, (2, 3)\n__all__ = []\n"
        "def _helper():\n    return _used\n"
        "def _imported():\n    return _helper()\n"
        "class _Gone:\n    _inner = 0\n"
    )
    reading = "from a import _imported\nprint(a._attr, a._pair)\n"
    assert unread_privates([defining, reading]) == ["_Gone", "_other", "_unused"]


def test_src_reads_every_private_name_it_defines():
    sources = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src/screenlab/*.py"))):
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    assert len(sources) > 5
    assert unread_privates(sources) == []


def test_scan_finds_an_unclosed_open():
    source = (
        "with open('a') as fh, open('b'):\n    pass\n"
        "text = open('c').read()\n"
        "with wrap(open('d')):\n    pass\n"
        "os.open('e', 0)\n"
    )
    assert unclosed_opens(source) == [3, 4]


def test_tests_and_scripts_open_files_only_in_with_items():
    unclosed = {}
    for path in module_paths(PATTERNS[1:]):
        with open(path, encoding="utf-8") as fh:
            lines = unclosed_opens(fh.read())
        if lines:
            unclosed[os.path.relpath(path, ROOT)] = lines
    assert unclosed == {}


def class_properties(source: str) -> set[tuple[str, str]]:
    """(class, name) of each property a top-level class of ``source``
    defines: a method under a decorator, or a name assigned a call, whose
    last dotted part is ``property`` or ``cached_property``."""
    kinds = {"property", "cached_property"}

    def kind(node) -> str | None:
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = set()
    for top in ast.parse(source).body:
        if not isinstance(top, ast.ClassDef):
            continue
        for node in top.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(kind(decorator) in kinds for decorator in node.decorator_list):
                    found.add((top.name, node.name))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if kind(node.value) in kinds:
                    found.update((top.name, target.id) for target in node.targets
                                 if isinstance(target, ast.Name))
    return found


def test_scan_finds_properties():
    source = (
        "import functools\nfrom functools import cached_property\n"
        "class A:\n    @property\n    def a(self):\n        return 1\n"
        "    @functools.cached_property\n    def b(self):\n        return 2\n"
        "    @staticmethod\n    def c():\n        return 3\n"
        "    d = property(lambda self: 4)\n    e = len([5])\n"
        "class B:\n    @cached_property\n    def f(self):\n        return 6\n"
        "@property\ndef g():\n    return 7\n"
    )
    assert class_properties(source) == {("A", "a"), ("A", "b"), ("A", "d"), ("B", "f")}


def test_model_types_derive_their_constants_once():
    """Every derived constant of the three model types is stored when the
    instance is built, so no score call re-derives one on each read."""
    with open(os.path.join(ROOT, "src/screenlab/model.py"), encoding="utf-8") as fh:
        found = class_properties(fh.read())
    model_types = {"PayoffParams", "GaussianSignalModel", "ModelConfig"}
    assert {site for site in found if site[0] in model_types} == {
        ("GaussianSignalModel", "covariance")}
