"""Every module uses each name it imports, and the tests and scripts close
every file they open.

The repository has no linter configured, so these tests parse the modules
with ``ast``.  One fails on an imported name that its module never
references, under src/screenlab, tests/ and scripts/; ``__init__.py`` is
left out: its imports are the package's exports.  The other fails on an
``open(...)`` in tests/ or scripts/ that is not the context expression of a
``with`` item.  src/ is left out of that one: ``cli._fork_render`` returns
the pipe it opens, and ``cli._child_text`` closes it.
"""
from __future__ import annotations

import ast
import glob
import os

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
