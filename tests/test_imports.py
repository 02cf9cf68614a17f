"""Every name a ``safeset`` module imports is used in that module.

The only exceptions are the bindings that the benchmark tracer counts
calls through (``BINDINGS`` in ``perfbench/tracer.py``): a module keeps
such a name bound for the tracer even when its own code no longer calls it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "safeset").glob("*.py"))


def _tracer_bindings() -> set[tuple[str, str]]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]:
            return {(module, attr) for module, attr, *_ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no BINDINGS")


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    module = f"safeset.{path.stem}"
    kept = {attr for mod, attr in _tracer_bindings() if mod == module}
    assert _unused_imports(ast.parse(path.read_text())) - kept == set()


def test_the_check_sees_leftovers():
    tree = ast.parse(
        "import itertools\nimport os.path\nfrom typing import Any, Iterator\n"
        "def f() -> Iterator[int]:\n    yield os.sep\n"
    )
    assert _unused_imports(tree) == {"itertools", "Any"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_check_is_an_assert(path):
    # `python -O` strips assert statements, and every witness check must survive it
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []
