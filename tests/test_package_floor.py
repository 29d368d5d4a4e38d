"""Every function in ``src/fpsearch`` is used by the package itself.

A function that only tests call is dead weight in ``src/``: the tests can
build the value inline. The check parses every module and asks, for each
top-level function and each non-dunder method, whether some module other
than ``__init__.py`` reads its name outside the function's own body.
Imports do not count as uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fpsearch"

# Reached only through the public PulseSequence API until the planned
# `fpsearch inspect` command prints them (ROADMAP item 4).
ALLOWED_UNUSED = {"serialize", "total_delay_time"}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, _FUNCTIONS):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _reads(tree: ast.Module, name: str, skip: set[int]) -> bool:
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


def test_every_src_function_is_used_in_src():
    trees = [
        ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]
    unused = set()
    for tree in trees:
        for fn in _definitions(tree):
            own_body = {id(n) for n in ast.walk(fn)}
            if not any(_reads(t, fn.name, own_body) for t in trees):
                unused.add(fn.name)
    assert unused == ALLOWED_UNUSED
