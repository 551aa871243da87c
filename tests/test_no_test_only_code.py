"""Every function and class in `src/ddinverse` is reached from the library
itself: a definition that only tests call is test code kept in the wrong
place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ddinverse"

# Kept although only tests call them.
ALLOWED = {
    "adjoint_global": "criterion 5 checks the local maps against it",
    "adjoint_volume": "criterion 5 checks the local maps against it",
}


def _referenced(node, skip) -> set:
    """Names and attribute names used under `node`, not descending into the
    definitions in `skip`."""
    out = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current in skip:
            continue
        if isinstance(current, ast.Name):
            out.add(current.id)
        elif isinstance(current, ast.Attribute):
            out.add(current.attr)
        elif isinstance(current, ast.alias):
            out.add(current.name)
        stack.extend(ast.iter_child_nodes(current))
    return out


def unreached_definitions(src=SRC) -> list:
    """The names of the functions and classes of the modules under `src`
    that no code outside the bodies of such definitions refers to, found
    by dropping the bodies of unreached definitions until none is left."""
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    dead = set()
    while True:
        skip = {node for node in defs if node.name in dead}
        used = set().union(*(_referenced(tree, skip) for tree in trees))
        now = {node.name for node in defs} - used
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_definition_is_reached_from_the_library():
    assert [name for name in unreached_definitions()
            if name not in ALLOWED] == []
