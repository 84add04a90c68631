"""Every public name in `src/mpslc` has a caller outside the tests.

A public name is a module-level function or class, or a method of a
module-level class, whose name does not start with an underscore. A
caller is any `ast.Name`, `ast.Attribute` or `from ... import` naming it
in `src/`, `bench/` or `tools/`. The package root's re-exports are not
callers, and `oracle.py` is exempt: its references serve the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpslc"
EXEMPT = {"__init__.py", "oracle.py"}


def _public_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def _referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    callers = [p for d in ("src", "bench", "tools") for p in sorted((ROOT / d).rglob("*.py"))
               if p.parent != PACKAGE or p.name != "__init__.py"]
    used = set().union(*(_referenced_names(p) for p in callers))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT
        for name in _public_names(ast.parse(path.read_text(encoding="utf-8")))
        if name.rsplit(".", 1)[-1] not in used
    ]
    assert unused == [], f"public names with no caller outside the tests: {unused}"
