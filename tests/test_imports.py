"""Every module-level import of the package and of the tests is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "superflag").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def _unread_imports(source):
    """The sorted ``(line, name)`` of each name a module-level import of
    ``source`` binds and nothing reads.  A name listed in ``__all__``
    counts as read; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_every_module_level_import_is_read():
    """No module of ``src/superflag`` or ``tests`` imports a name at module
    level that it never reads; the checker finds each kind of unread
    import in a snippet and passes the names it reads or exports."""
    unread = {path.relative_to(ROOT).as_posix(): breaches
              for path in MODULES
              if (breaches := _unread_imports(path.read_text()))}
    assert len(MODULES) > 20
    assert unread == {}
    snippet = ("from __future__ import annotations\n"
               "import os.path\n"
               "import json as j\n"
               "from fractions import Fraction\n"
               "from itertools import chain, product as cross\n"
               "import re\n"
               "__all__ = ['Fraction']\n"
               "def f(x):\n"
               "    return chain(x), re.escape\n")
    assert _unread_imports(snippet) == [(2, "os"), (3, "j"), (5, "cross")]
