"""Every module under ``src/repro`` is reached from an entry point, and
every public top-level function and class is named by some other code.

The module scan starts at ``repro.cli`` and the two ``python -m`` entry
points, ``repro.__main__`` and ``repro.analysis.lint``, and follows every
``import`` and ``from … import`` with ``ast``, including the imports
inside functions, because the CLI imports lazily.  ``from package import
name`` resolves through the package ``__init__`` to the module that
defines ``name``, so a package re-export keeps no module alive.

The member scan is static and goes by name alone, so it is a lower
bound: a definition passes when its name is loaded, or accessed as an
attribute, anywhere in ``src/repro``, ``examples/`` or ``e2ebench/``
outside the definition itself.  Imports, ``__all__`` and docstrings name
nothing, so a re-export or a test keeps no function or class alive.
Methods are not checked.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_POINTS = ("repro.cli", "repro.__main__", "repro.analysis.lint")
#: Code whose name uses keep a definition alive (tests do not count).
USER_DIRS = (SRC / "repro", ROOT / "examples", ROOT / "e2ebench")


def _module_files() -> dict[str, Path]:
    files = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


FILES = _module_files()


@functools.cache
def _tree(module: str) -> ast.Module:
    return ast.parse(FILES[module].read_text(encoding="utf-8"))


def _is_package(module: str) -> bool:
    return FILES[module].name == "__init__.py"


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module name a (possibly relative) ``from`` names."""
    if not node.level:
        return node.module or ""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _definer(module: str, name: str) -> str | None:
    """The module whose code defines ``module.name`` (None outside repro)."""
    if f"{module}.{name}" in FILES:
        return f"{module}.{name}"
    if module not in FILES:
        return None
    if _is_package(module):
        for node in _tree(module).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _definer(_absolute(module, node), alias.name)
    return module


def _imports(module: str) -> list[str]:
    """The modules ``module`` imports; a package's top-level imports are
    re-exports and do not count."""
    tree = _tree(module)
    reexports = set(map(id, tree.body)) if _is_package(module) else set()
    found = []
    for node in ast.walk(tree):
        if id(node) in reexports:
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name in FILES]
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(module, node)
            for alias in node.names:
                target = _definer(base, alias.name)
                if target is not None:
                    found.append(target)
    return found


def _reached() -> set[str]:
    seen: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo += _imports(module)
    return seen


def test_reexports_resolve_to_the_defining_module():
    assert _definer("repro.core", "XContainer") == "repro.core.xcontainer"
    assert _definer("repro.core", "tcb") == "repro.core.tcb"
    assert _definer("repro.fuzz", "run_fuzz") == "repro.fuzz"
    assert _definer("hypothesis", "given") is None


def test_every_module_is_reached_from_an_entry_point():
    reached = _reached()
    unreached = sorted(
        name for name in FILES
        if not _is_package(name) and name not in reached
    )
    assert unreached == [], (
        "modules that no command, experiment or entry point imports: "
        + ", ".join(unreached)
    )


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions() -> set[tuple[str, str]]:
    """``(module, name)`` of every public top-level function and class."""
    return {
        (module, node.name)
        for module in FILES
        for node in _tree(module).body
        if isinstance(node, _DEFS) and not node.name.startswith("_")
    }


def _collect_uses(path: Path, tree: ast.Module, uses: dict) -> None:
    """Record each load or attribute access in ``tree`` under its name,
    as ``(path, enclosing top-level definition or "")``."""
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else ""
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            uses.setdefault(name, set()).add((path, owner))


def _name_uses() -> dict[str, set[tuple[Path, str]]]:
    uses: dict[str, set[tuple[Path, str]]] = {}
    for folder in USER_DIRS:
        for path in sorted(folder.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _collect_uses(path, tree, uses)
    return uses


def test_member_scan_counts_loads_and_attributes_only():
    uses: dict = {}
    source = (
        "from a import imported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    'documented'\n"
        "    return loaded + obj.attr + f()\n"
        "stored = 1\n"
    )
    _collect_uses(Path("m.py"), ast.parse(source), uses)
    assert sorted(uses) == ["attr", "f", "loaded", "obj"]
    # f's call of itself is inside its own definition.
    assert uses["f"] == {(Path("m.py"), "f")}


def test_every_public_function_and_class_is_named_outside_itself():
    uses = _name_uses()
    unnamed = sorted(
        f"{module}.{name}"
        for module, name in _public_definitions()
        if not uses.get(name, set()) - {(FILES[module], name)}
    )
    assert unnamed == [], (
        "public top-level functions and classes that no code in "
        "src/repro, examples/ or e2ebench/ names: " + ", ".join(unnamed)
    )
