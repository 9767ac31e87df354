"""A lint-free guard against dead code left behind by refactors.

Each module of ``src/liptrack`` is parsed with :mod:`ast`.  An imported name
must be read in its module, and a module-level ``_private`` function, class
or constant must be referenced by some module of the package.  An import
on a line marked ``# noqa: F401`` is exempt, and so is the package
``__init__``, whose imports are the public API it re-exports.
"""

import ast
from pathlib import Path

import liptrack

SOURCES = {path.name: path.read_text() for path in sorted(Path(liptrack.__file__).parent.glob("*.py"))}
MODULES = {name: ast.parse(text) for name, text in SOURCES.items()}


def _loaded_names(tree: ast.AST) -> set[str]:
    """The names a module reads, string annotations such as
    ``"Depth1Workspace | None"`` included."""
    trees = [tree]
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                trees.append(ast.parse(annotation.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a name, an attribute or an import."""
    names = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unread_imports(name: str) -> list[str]:
    tree, lines = MODULES[name], SOURCES[name].splitlines()
    loaded = _loaded_names(tree)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded:
                unread.append(f"{name}:{node.lineno} imports {bound} and never reads it")
    return unread


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The module-level ``_private`` (not dunder) functions, classes and constants."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return [(n, line) for n, line in found if n.startswith("_") and not n.startswith("__")]


def test_every_import_is_read():
    assert [msg for name in MODULES if name != "__init__.py" for msg in _unread_imports(name)] == []


def test_every_private_definition_is_referenced():
    referenced = set().union(*map(_references, MODULES.values()))
    assert [f"{name}:{line} defines {private}, which no module references"
            for name, tree in MODULES.items()
            for private, line in _private_definitions(tree) if private not in referenced] == []
