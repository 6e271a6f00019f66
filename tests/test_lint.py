"""Source rules that the test suite enforces in place of a linter.

Checks must survive ``python -O``, which strips ``assert``, no handler
may swallow every error, and errors raised on purpose are named
:class:`~artifact.errors.ArtifactError` classes, not bare ``ValueError``.
No ``artifact`` module imports an underscore name from another, and
every underscore name a module defines at top level is read in that
module, so a helper left behind by a refactor is flagged.  The
enumeration oracle must stay independent of the structural modules it
cross-checks, and it alone may import numpy: the package and the
command line import it lazily, and the command line its reference data
too.  No module imports ``dataclasses``: frozen values derive from
``galois.Record``, and only it, the element base ``_Elem`` and
``RingContext`` write their own ``__setattr__``, ``__hash__``,
``__reduce__`` or ``__eq__`` (and ``EnumeratedCode`` its ``__eq__``).
Only ``galois`` reads the private tables of a ``RingContext``; the rest
of the package goes through its kernels.  ``import artifact`` runs no
import, and the modules every command loads import no standard-library
module beyond the few they use, because each one adds to the import
time of every command.
"""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "artifact"
_MODULES = sorted(_SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _unread_privates(tree):
    """``(line, name)`` of each top-level ``_name`` the module never reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and name not in read
                  and not (name.startswith("__") and name.endswith("__")))


_BASES = {"Record", "_Elem", "RingContext"}
# Each value dunder and the classes that may define it.
_VALUE_DUNDERS = {**dict.fromkeys(("__setattr__", "__hash__", "__reduce__"),
                                  _BASES),
                  "__eq__": _BASES | {"EnumeratedCode"}}
_CONTEXT_TABLES = {"_n", "_log", "_exp", "_root", "_teich", "_spread",
                   "_unspread", "_index", "_from_index", "_names"}


def _value_rules(tree, owns_tables):
    """``(line, rule)`` for each value dunder a class outside its allowed
    set defines, and, unless ``owns_tables``, each context table read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                names = [item.name] if isinstance(item, ast.FunctionDef) \
                    else [t.id for t in getattr(item, "targets", ())
                          if isinstance(t, ast.Name)]
                if any(node.name not in _VALUE_DUNDERS[name]
                       for name in names if name in _VALUE_DUNDERS):
                    yield item.lineno, "value dunder"
        elif isinstance(node, ast.Attribute) and not owns_tables \
                and node.attr in _CONTEXT_TABLES:
            yield node.lineno, "context table"


def violations(tree, owns_tables=False):
    """``(line, rule)`` for every assert, bare except, except Exception,
    raise ValueError, underscore name imported from the package,
    top-level underscore name that the module never reads, value dunder
    outside its classes and, unless ``owns_tables``, context table
    read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("artifact")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, "private import"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                yield node.lineno, "raise ValueError"
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, "bare except"
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "Exception"
                   for c in caught):
                yield node.lineno, "except Exception"
    for line, _ in _unread_privates(tree):
        yield line, "unread private"
    yield from _value_rules(tree, owns_tables)


def test_modules_found():
    assert {p.name for p in _MODULES} >= {"oracle.py", "mixedcode.py",
                                          "cli.py"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_assert_or_broad_except(path):
    found = list(violations(_parse(path), path.name == "galois.py"))
    assert not found, f"{path.name}: {found}"


def test_guard_flags_each_rule():
    src = ("assert x\n"
           "try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
           "try:\n    pass\nexcept ValueError:\n    pass\n"
           "def f():\n    raise ValueError('x')\n    raise ShapeMismatch\n"
           "    raise\n"
           "def g():\n    from .galois import RingContext, _pow\n"
           "    from artifact.textio import _Parser\n"
           "    from . import errors, _tables\n"
           "    from numpy import _NoValue\n"
           "    from __future__ import annotations\n"
           "_read, _unread = 1, 2\n"
           "def _helper():\n    return _read\n"
           "class _Left:\n    __slots__ = ()\n"
           "__all__ = []\n"
           "class Word:\n    __hash__ = None\n"
           "    def __eq__(self, other):\n"
           "        return ctx._exp[0] is other._x\n"
           "class Record:\n    def __setattr__(self, name, value):\n"
           "        pass\n"
           "class EnumeratedCode:\n    def __eq__(self, other):\n"
           "        pass\n"
           "    def __reduce__(self):\n        pass\n")
    tree = ast.parse(src)
    found = [(1, "assert statement"), (4, "bare except"),
             (8, "except Exception"), (15, "raise ValueError"),
             (19, "private import"), (20, "private import"),
             (21, "private import"), (24, "unread private"),
             (25, "unread private"), (27, "unread private"),
             (31, "value dunder"), (32, "value dunder"),
             (40, "value dunder"), (33, "context table")]
    assert list(violations(tree)) == found
    assert list(violations(tree, owns_tables=True)) == found[:-1]


def imports(tree, on_load_only=False):
    """Dotted names of the modules the import statements in ``tree`` load.

    Relative names keep their leading dots (``from . import oracle``
    gives ``.oracle``).  With ``on_load_only`` the bodies of functions,
    which do not run when the module is imported, are skipped.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        if on_load_only and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            if node.module:
                yield base
            else:
                yield from (base + a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))


def test_import_guard_reads_each_form():
    src = ("import numpy as np\n"
           "from numpy.linalg import norm\n"
           "from . import errors, oracle\n"
           "from .oracle import span_closure\n"
           "class C:\n    import artifact.oracle\n"
           "def f():\n    from .oracle import is_skew_cyclic\n")
    assert sorted(imports(ast.parse(src))) == [
        ".errors", ".oracle", ".oracle", ".oracle", "artifact.oracle",
        "numpy", "numpy.linalg"]
    assert sorted(imports(ast.parse(src), on_load_only=True)) == [
        ".errors", ".oracle", ".oracle", "artifact.oracle", "numpy",
        "numpy.linalg"]


def test_oracle_imports_nothing_from_skewcyclic():
    assert not [n for n in imports(_parse(_SRC / "oracle.py"))
                if "skewcyclic" in n]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_the_oracle_imports_numpy(path):
    found = [n for n in imports(_parse(path)) if n.split(".")[0] == "numpy"]
    assert bool(found) == (path.name == "oracle.py"), f"{path.name}: {found}"


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    found = [n for n in imports(_parse(path))
             if n.split(".")[0] == "dataclasses"]
    assert not found, f"{path.name}: {found}"


@pytest.mark.parametrize("name", ["__init__.py", "cli.py", "reference.py"])
def test_oracle_not_imported_on_load(name):
    # The command line loads the reference data, like the oracle, only in
    # the command that needs it.
    lazy = ("oracle", "reference") if name == "cli.py" else ("oracle",)
    found = [n for n in imports(_parse(_SRC / name), on_load_only=True)
             if n.rsplit(".", 1)[-1] in lazy]
    assert not found, f"{name} imports {found} when it loads"


# The package modules that every command loads: the package, which
# imports nothing on load, and the parser with the modules behind it.
# Also the standard library modules they may import.  Without bytecode
# caches an import costs its compile time, which every cold start pays.
_LOAD_PATH = ("__init__", "errors", "galois", "mixedcode", "skewcyclic",
              "skewpoly", "textio")
_LOAD_PATH_STDLIB = {"__future__", "re", "sys", "typing"}


def test_load_path_is_what_the_package_loads():
    assert not list(imports(_parse(_SRC / "__init__.py"), on_load_only=True))
    found, todo = set(), ["textio"]
    while todo:
        name = todo.pop()
        if name not in found:
            found.add(name)
            todo += [n[1:].split(".")[0] for n in imports(
                _parse(_SRC / f"{name}.py"), on_load_only=True)
                if n.startswith(".")]
    assert found | {"__init__"} == set(_LOAD_PATH)


@pytest.mark.parametrize("name", _LOAD_PATH)
def test_load_path_imports_only_its_standard_library_set(name):
    found = {n.split(".")[0] for n in imports(_parse(_SRC / f"{name}.py"))
             if not n.startswith(".")}
    assert found <= _LOAD_PATH_STDLIB, f"{name}.py: {found}"
