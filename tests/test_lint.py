"""Source rules that the test suite enforces in place of a linter.

Checks must survive ``python -O``, which strips ``assert``, and no
handler may swallow every error.  The enumeration oracle must stay
independent of the structural modules it cross-checks.
"""

import ast
import pathlib

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "artifact"
_MODULES = sorted(_SRC.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def violations(tree):
    """``(line, rule)`` for every assert, bare except and except Exception."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield node.lineno, "bare except"
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(isinstance(c, ast.Name) and c.id == "Exception"
                   for c in caught):
                yield node.lineno, "except Exception"


def test_modules_found():
    assert {p.name for p in _MODULES} >= {"oracle.py", "mixedcode.py",
                                          "cli.py"}


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_assert_or_broad_except(path):
    found = list(violations(_parse(path)))
    assert not found, f"{path.name}: {found}"


def test_guard_flags_each_rule():
    src = ("assert x\n"
           "try:\n    pass\nexcept:\n    pass\n"
           "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
           "try:\n    pass\nexcept ValueError:\n    pass\n")
    assert list(violations(ast.parse(src))) == [
        (1, "assert statement"), (4, "bare except"), (8, "except Exception")]


def test_oracle_imports_nothing_from_skewcyclic():
    for node in ast.walk(_parse(_SRC / "oracle.py")):
        if isinstance(node, ast.ImportFrom):
            assert "skewcyclic" not in (node.module or "")
        elif isinstance(node, ast.Import):
            assert all("skewcyclic" not in a.name for a in node.names)
