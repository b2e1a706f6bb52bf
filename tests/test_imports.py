"""Every module-level import of the package is used in its module, every
private top-level definition is read somewhere in the package, and every
attribute an exception stores is read as an attribute outside ``errors.py``.

``__init__.py`` is left out of the import scan: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conetube"
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


def private_definitions(source: str) -> list[str]:
    """The private (``_name``, not dunder) top-level functions, classes and
    assigned names of ``source``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def read_names(source: str) -> set[str]:
    """Every name ``source`` reads: loaded names, attributes and the names
    it imports from other modules."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
    return out


def test_scan_flags_an_unread_private_definition():
    a = ("_CACHE = {}\n_unused = 1\n__all__ = []\n"
         "def _helper():\n    return _CACHE\n"
         "def _dead():\n    return 0\n"
         "class _Left:\n    pass\n")
    b = "from .a import _helper\n"
    read = read_names(a) | read_names(b)
    assert [n for n in private_definitions(a) if n not in read] == \
        ["_unused", "_dead", "_Left"]


def test_no_dead_private_definitions():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    read = set().union(*map(read_names, sources))
    dead = [name for source in sources for name in private_definitions(source)
            if name not in read]
    assert dead == []


def stored_attributes(source: str) -> list[str]:
    """The attributes that the methods of ``source``'s classes assign on
    ``self``."""
    return [t.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assign) for t in node.targets
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"]


def attribute_reads(source: str) -> set[str]:
    """The attribute names ``source`` loads, as in ``obj.name``; a bare
    ``name`` is not an attribute read."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_scan_flags_an_unread_exception_attribute():
    errors = ("class E(Exception):\n    def __init__(self, a, b):\n"
              "        self.kept = a\n        self.dropped = b\n")
    # ``dropped`` also appears as an imported, a local and a keyword name
    read = attribute_reads("from dataclasses import dropped\n"
                           "try:\n    f()\nexcept E as exc:\n"
                           "    dropped = exc.kept\n    g(dropped, dropped=1)\n")
    assert [a for a in stored_attributes(errors) if a not in read] == ["dropped"]


def test_no_unread_exception_attributes():
    readers = [p for p in (*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                           *(ROOT / "perfbench").rglob("*.py"))
               if p.name != "errors.py"]
    read = set().union(*(attribute_reads(p.read_text()) for p in readers))
    stored = stored_attributes((SRC / "errors.py").read_text())
    assert [a for a in stored if a not in read] == []
