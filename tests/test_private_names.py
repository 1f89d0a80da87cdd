"""Code has a caller: every single-underscore function, class or
module-level name defined in ``src/rainbowfree`` is referenced somewhere in
the package outside its own definition, and so is every public function,
class, method and module-level constant, not counting re-exports in
``__init__``.  A helper whose last caller went away would otherwise stay
behind unnoticed."""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rainbowfree"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__") and name != "_"


def _assignments(tree):
    """(name, first line, last line) of each module-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.end_lineno


def _definitions(tree):
    """(name, first line, last line) of each private function or class, at
    any depth, and of each private module-level assignment."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node.lineno, node.end_lineno
    for name, first, last in _assignments(tree):
        if _private(name):
            yield name, first, last


def _references(tree):
    """(name, line) of each read of a name or attribute and each name
    imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _public_definitions(tree):
    """(name, first line, last line) of each public function, class or
    method, at any depth, and of each public module-level constant; dunders
    are neither."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno, node.end_lineno
    for name, first, last in _assignments(tree):
        if not name.startswith("_"):
            yield name, first, last


def _uncalled(definitions, skip=()):
    """The names that ``definitions`` yields for some module and that no
    module outside ``skip`` references outside their own definition."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert trees
    refs = defaultdict(list)
    for module, tree in trees.items():
        if module not in skip:
            for name, line in _references(tree):
                refs[name].append((module, line))
    return [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last in definitions(tree)
        if all(other == module and first <= line <= last for other, line in refs[name])
    ]


def test_every_private_name_has_a_caller():
    assert _uncalled(_definitions) == []


def test_every_public_name_has_a_caller():
    unused = _uncalled(_public_definitions, skip={"__init__.py"})
    # catalog_members, the paper's sets A and B, waits for its caller: the
    # registry's exclusion list, once the catalog writes it
    assert [u for u in unused if not u.endswith(" catalog_members")] == []
