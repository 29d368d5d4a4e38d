"""Every function, class and constant in ``src/fpsearch`` is used by the
package itself, and every name the benchmark tracer wraps exists.

A function, class or constant that only tests read is dead weight in
``src/``: the tests can build the value inline. The checks parse every
module and ask, for each top-level function, non-dunder method, class and
module-level assignment, whether some module other than ``__init__.py``
reads its name outside its own definition. Imports do not count as uses.

The other side of that floor: ``perfbench/tracer.py`` wraps functions by
the name their caller looks them up under, so deleting or renaming one
breaks every traced benchmark run. One test installs the tracer and
checks that it finds and restores each name.

Start-up is most of a short command's time, so the last checks import the
command-line module in a fresh interpreter and fail if that loads a
test-only dependency, or if parsing a command loads argparse.
"""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fpsearch"

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


def _loads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``: as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    )


def _trees() -> list[ast.Module]:
    return [
        ast.parse(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]


def _unused(trees: list[ast.Module], definitions) -> set[str]:
    """Names of ``(name, node)`` definitions read nowhere outside ``node``.

    Each tree is walked once; a definition is unused when every read of its
    name lies inside its own node.
    """
    loads = sum(map(_loads, trees), Counter())
    return {name for name, node in definitions if loads[name] == _loads(node)[name]}


def test_every_src_function_is_used_in_src():
    trees = _trees()
    functions = [(fn.name, fn) for tree in trees for fn in _definitions(tree)]
    assert _unused(trees, functions) == ALLOWED_UNUSED


def _classes_and_constants(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_src_class_and_constant_is_used_in_src():
    trees = _trees()
    names = [item for tree in trees for item in _classes_and_constants(tree)]
    assert _unused(trees, names) == set()


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    names = [(m, a) for m, a, *_ in tracer.FUNCTIONS]
    names += [(m, a) for m, a, _ in tracer.MODULE_VIEWS]

    def current():
        return [getattr(importlib.import_module(m), a) for m, a in names]

    before = current()
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = current()
    finally:
        t.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(current(), before))


TEST_ONLY = {"scipy", "hypothesis", "pytest", "_pytest", "mpmath"}


def test_cli_import_loads_no_test_only_dependency():
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import fpsearch.cli; "
            "print(*sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert {name.partition(".")[0] for name in out.split()} & TEST_ONLY == set()


PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_cli_parses_without_argparse():
    # argparse and the gettext and locale lookups it makes cost a short command
    # more than its physics; only what numpy itself loads may be present
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import numpy; "
            "before = set(sys.modules); import fpsearch.cli; "
            "assert fpsearch.cli.main(['list']) == 0; print(*set(sys.modules) - before)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    added = out.splitlines()[-1].split()  # the last line, after list's own output
    assert "fpsearch.cli" in added and set(added) & PARSER_MODULES == set()


def test_public_names_and_version():
    import fpsearch

    namespace: dict = {}
    exec("from fpsearch import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(fpsearch.__all__)
    # a regex, not tomllib: the package supports Python 3.10, which lacks it
    pyproject = (ROOT / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.M)
    assert fpsearch.__version__ == version
