"""No module imports a name it never uses.

The check reads each module's syntax tree only: a name an import binds is
used when the module loads it anywhere, as a bare name or as the base of an
attribute, or lists it in ``__all__``.  Package ``__init__.py`` files
re-export what they import and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for top in ("src", "tests", "tools", "demos")
                 for path in (ROOT / top).rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds and the module never
    reads."""
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "import numpy as np\nimport a.b\nfrom math import pi, tau as t\n"
              "np.zeros(a.b.c)\nprint(t)\n")
    assert unused_imports(source) == [(2, "os"), (5, "pi")]
    assert unused_imports("import os\n__all__ = ['os']\n") == []
