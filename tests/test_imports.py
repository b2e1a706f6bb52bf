"""Every module-level import of the package is used in its module, every
private top-level definition is read somewhere in the package, every
attribute an exception stores is read as an attribute outside ``errors.py``,
every default of a public function is set by some call, and only
``geometry.row_sum`` reduces over the last axis.

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


def defaulted_parameters(source: str) -> dict[str, list]:
    """The public top-level functions of ``source`` that have defaults, each
    with its defaulted parameters as (name, position); a keyword-only one
    has position None."""
    out = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        params = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        params += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        if params:
            out[node.name] = params
    return out


def _name(node) -> str | None:
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def unset_defaults(library: str, callers: list[str]) -> list[str]:
    """``function(parameter)`` for each default of ``library``'s public
    functions that no call in ``callers`` to a callee of that name passes,
    by keyword, by position or through ``*``/``**``.  A function whose name
    is itself passed as a call argument is skipped: its caller is unseen."""
    calls, passed = {}, set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)
                passed |= {_name(v) for v in
                           (*node.args, *(k.value for k in node.keywords))}

    def sets(call, name, pos):
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        return pos is not None and (
            pos < len(call.args)
            or any(isinstance(a, ast.Starred) for a in call.args))

    return [f"{fn}({name})"
            for fn, params in defaulted_parameters(library).items()
            if fn not in passed for name, pos in params
            if not any(sets(c, name, pos) for c in calls.get(fn, []))]


def test_scan_flags_a_default_nothing_sets():
    library = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
               "def g(x=0):\n    pass\n"
               "def h(y=0, z=0):\n    pass\n"
               "def k(w=0):\n    pass\n"
               "def q(u=0):\n    pass\n"
               "def _private(v=0):\n    pass\n")
    callers = ("f(0, 5)\nmod.f(0, d=4)\n"  # b by position, d by keyword
               "g()\nh(0, *rest)\nq(**opts)\n"
               "run(norm=k)\n")  # k's caller is unseen
    assert unset_defaults(library, [library, callers]) == ["f(c)", "g(x)"]


def test_every_default_has_a_setter():
    callers = [p.read_text() for p in (*SRC.glob("*.py"),
                                       *(ROOT / "tests").glob("*.py"),
                                       *(ROOT / "perfbench").rglob("*.py"))]
    assert [f for p in sorted(SRC.glob("*.py"))
            for f in unset_defaults(p.read_text(), callers)] == []


REDUCTIONS = ("sum", "prod", "mean")


def last_axis_reductions(source: str) -> list[int]:
    """Lines of the ``sum``, ``prod`` and ``mean`` calls of ``source``,
    functions or methods, that pass axis -1 by keyword or by position,
    outside a function named ``row_sum``."""
    tree = ast.parse(source)
    exempt = {id(n) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name == "row_sum" for n in ast.walk(node)}

    def minus_one(node):
        return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.Constant)
                and node.operand.value == 1)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in exempt
                  and _name(node.func) in REDUCTIONS
                  and any(minus_one(v) for v in (
                      *node.args, *(k.value for k in node.keywords
                                    if k.arg == "axis"))))


def test_scan_flags_a_last_axis_reduction():
    source = ("import numpy as np\n"
              "def row_sum(a):\n    return np.sum(a, axis=-1)\n"
              "def f(a):\n"
              "    b = np.cumprod(a, axis=-1) + np.all(a > 0, axis=-1)\n"
              "    c = np.sum(a) + a.sum(axis=0) + np.mean(a, axis=1) - 1\n"
              "    return (np.sum(a, axis=-1), a.prod(-1), np.mean(a, -1),\n"
              "            a.mean(axis=-1), sum(a), b, c)\n")
    assert last_axis_reductions(source) == [7, 7, 7, 8]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_row_sum_reduces_the_last_axis(path):
    # a last-axis np.sum strides along each short row of a coordinate-major
    # batch, and from 8 reals on its rounding follows the layout
    assert last_axis_reductions(path.read_text()) == []
