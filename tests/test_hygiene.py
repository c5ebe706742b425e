"""Every module uses each name it imports.

The repository has no linter configured, so this test parses every module
under src/screenlab, tests/ and scripts/ with ``ast`` and fails on an
imported name that its module never references.  ``__init__.py`` is left
out: its imports are the package's exports.
"""
from __future__ import annotations

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATTERNS = ("src/screenlab/*.py", "tests/*.py", "scripts/*.py")


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


def test_scan_finds_an_unused_import():
    source = "import os.path\nimport sys\nfrom json import dumps as d, loads\nsys.exit(loads(''))\n"
    assert unused_imports(source) == ["d", "os"]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(
        path for pattern in PATTERNS for path in glob.glob(os.path.join(ROOT, pattern))
        if os.path.basename(path) != "__init__.py"
    )
    assert len(paths) > 10
    unused = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            names = unused_imports(fh.read())
        if names:
            unused[os.path.relpath(path, ROOT)] = names
    assert unused == {}
