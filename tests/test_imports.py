"""Every module-level import of the package is used in its module.

``__init__.py`` is left out: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "conetube"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that nothing
    in the module reads (``from __future__`` excluded)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_flags_an_unread_import():
    assert unused_imports("from __future__ import annotations\n"
                          "import math\nimport numpy as np\n"
                          "from .a import b, c as d\n"
                          "def f():\n    return np.pi + d\n") == ["math", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_module_imports(path):
    assert unused_imports(path.read_text()) == []
