"""Guards against dead code in the package, read off its syntax trees.

A private top-level function must be used somewhere in the package beyond
its own definition, and every error class must be raised, caught or
subclassed there; test-only helpers and errors belong in tests/helpers.py.
"""

from __future__ import annotations

import ast
from pathlib import Path

import polybox
import polybox.errors

PACKAGE = Path(polybox.__file__).parent


def trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _name(node):
    """The name an expression ends in: `X` or `module.X`, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, (ast.Name, ast.Attribute)):
            yield _name(sub)


def test_every_private_function_is_used():
    modules = trees()
    unused = []
    for module, tree in modules.items():
        for top in tree.body:
            if not isinstance(top, ast.FunctionDef) or not top.name.startswith("_"):
                continue
            used = any(
                top.name in names_used(node)
                for other_tree in modules.values()
                for node in other_tree.body
                if node is not top
            )
            if not used:
                unused.append(f"{module}:{top.name}")
    assert not unused


def _raised_caught_or_subclassed(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield _name(exc)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            yield from map(_name, types)
        elif isinstance(node, ast.ClassDef):
            yield from map(_name, node.bases)


def test_every_error_class_is_used():
    errors = ast.parse(Path(polybox.errors.__file__).read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = set()
    for tree in trees().values():
        used.update(_raised_caught_or_subclassed(tree))
    assert not sorted(classes - used)
