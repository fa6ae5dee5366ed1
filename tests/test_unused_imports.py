"""Every name a module under ``src/repro`` imports is used in that module.

The scan is static, with ``ast``, per module.  An import binds a name
(``import a.b`` binds ``a``; ``as`` binds the alias), and the name is
used when the module loads it anywhere, in a function body, a default,
a decorator or an annotation (``from __future__ import annotations``
keeps annotations in the tree).  A name listed in ``__all__`` is used:
that is a re-export.  ``from __future__`` imports bind nothing.  An
import under ``if TYPE_CHECKING:`` is used when the name appears in a
quoted annotation, such as ``"CPU"`` or ``Callable[["CPU"], None]``.

CI's ruff run covers only two packages, so this is the one check of the
rest of ``src/repro``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _bindings(tree: ast.Module) -> list[tuple[str, int, bool]]:
    """``(name, line, type_checking_only)`` for every imported name."""
    guarded = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and _is_type_checking(node)
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names if a.name != "*"]
        else:
            continue
        found += [(name, node.lineno, id(node) in guarded) for name in names]
    return found


def _quoted_names(tree: ast.Module) -> set[str]:
    """Names loaded inside string constants that parse as expressions
    (quoted annotations and forward references)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {
                n.id for n in ast.walk(inner) if isinstance(n, ast.Name)
            }
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return {
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            }
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """``(name, line)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    used = loaded | _exported(tree)
    quoted = None
    unused = []
    for name, line, type_checking in _bindings(tree):
        if name in used:
            continue
        if type_checking:
            if quoted is None:
                quoted = _quoted_names(tree)
            if name in quoted:
                continue
        unused.append((name, line))
    return sorted(unused, key=lambda item: (item[1], item[0]))


def test_checker_honours_all_type_checking_and_future():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import TYPE_CHECKING, Any, Callable\n"
        "from a import exported, dead\n"
        "if TYPE_CHECKING:\n"
        "    from b import Quoted, Ghost\n"
        "__all__ = ['exported']\n"
        "Hook = Callable[['Quoted'], None]\n"
        "def f(x: Any) -> int:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == [("js", 3), ("dead", 5), ("Ghost", 7)]


def test_quoted_names_count_only_for_type_checking_imports():
    source = "from a import Name\nx = 'Name'\n"
    assert unused_imports(source) == [("Name", 1)]


def test_every_imported_name_is_used():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for name, line in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == [], "imported but never used: " + ", ".join(found)
