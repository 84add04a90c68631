"""Every name in `src/mpslc` has a caller in the program.

A public name is a module-level function or class, or a method of a
module-level class, whose name does not start with an underscore. A
caller is any `ast.Name` or `ast.Attribute` that loads it, or any
`from ... import` naming it, in `src/`, `bench/` or `tools/`. The
package root's re-exports are not callers, and `oracle.py` is exempt:
its references serve the tests.

A private name is a module-level function, class or constant, or a
method of a module-level class, whose name starts with an underscore
and is not a dunder. It needs a reader of that kind in `src/` outside
its own definition: a test-only helper does not belong in the package.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpslc"
EXEMPT = {"__init__.py", "oracle.py"}


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of every module-level function, class
    and constant, and of every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name, item


def _reads(node: ast.AST) -> Counter:
    """How often the node reads each name: an ast.Name or ast.Attribute in
    load context, or a `from ... import` alias."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_public_name_has_a_caller_outside_the_tests():
    callers = [p for d in ("src", "bench", "tools") for p in sorted((ROOT / d).rglob("*.py"))
               if p.parent != PACKAGE or p.name != "__init__.py"]
    used = sum((_reads(_parse(p)) for p in callers), Counter())
    unused = [
        f"{path.stem}.{qual}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT
        for qual, name, node in _definitions(_parse(path))
        if not name.startswith("_") and not isinstance(node, (ast.Assign, ast.AnnAssign))
        and not used[name]
    ]
    assert unused == [], f"public names with no caller outside the tests: {unused}"


def test_every_private_name_has_a_reader_in_src():
    reads = sum((_reads(_parse(p)) for p in sorted((ROOT / "src").rglob("*.py"))), Counter())
    unread = [
        f"{path.stem}.{qual}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name not in EXEMPT
        for qual, name, node in _definitions(_parse(path))
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and reads[name] <= _reads(node)[name]
    ]
    assert unread == [], f"private names nothing in src/ reads: {unread}"
