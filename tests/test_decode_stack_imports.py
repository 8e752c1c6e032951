"""The decode stack's imports run one way.

Caches and the block pool (``repro.core.paging``), then the drafts and
the draft tree (``repro.core.speculative``), then the engine and the
scheduler (``repro.core.decode``); the per-token host numerics
(``repro.core.attention``) and the waiting queue with the scheduling
policy interface (``repro.core.waiting``) sit below all three.  Every
such import is a module-level statement, so the order is visible at the
top of each file, and nothing in the stack reaches up into
``repro.serving``.  The checks read the source with :mod:`ast`; nothing
is imported.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
STACK = ("attention", "paging", "speculative", "decode", "waiting")

#: The one function-scope import the stack may make: the retired pass
#: engine's name, resolved lazily by ``speculative.__getattr__`` (a
#: module-level import there would close the speculative -> decode
#: cycle this file forbids).
ALIAS = ("speculative", "__getattr__", "repro.core.decode")

Found = tuple[ast.Import | ast.ImportFrom, "str | None", bool]


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _imports(
    node: ast.AST, function: str | None = None, guarded: bool = False
) -> Iterator[Found]:
    """Every import under ``node``: the statement, the enclosing
    function's name (``None`` at module scope) and whether it sits in
    an ``if TYPE_CHECKING:`` block."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node, function, guarded
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.If) and _is_type_checking(node.test):
        for stmt in node.body:
            yield from _imports(stmt, function, True)
        for stmt in node.orelse:
            yield from _imports(stmt, function, guarded)
        return
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, function, guarded)


def _targets(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The modules an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    assert node.level == 0, "the package uses absolute imports only"
    assert node.module is not None
    if node.module == "repro.core":
        return [
            f"repro.core.{alias.name}"
            if (CORE / f"{alias.name}.py").exists()
            else "repro.core"
            for alias in node.names
        ]
    return [node.module]


def _found(name: str) -> list[Found]:
    return list(_imports(ast.parse((CORE / f"{name}.py").read_text())))


def _core_graph() -> dict[str, set[str]]:
    """Runtime module-level imports among ``repro.core`` modules (the
    package ``__init__`` aside), keyed by module name."""
    graph: dict[str, set[str]] = {}
    for path in sorted(CORE.glob("*.py")):
        if path.stem == "__init__":
            continue
        graph[path.stem] = {
            target.removeprefix("repro.core.")
            for node, function, guarded in _found(path.stem)
            if function is None and not guarded
            for target in _targets(node)
            if target.startswith("repro.core.")
        }
    return graph


@pytest.mark.parametrize("name", STACK)
def test_no_function_scope_import_of_repro(name):
    lazy = [
        (function, target)
        for node, function, _ in _found(name)
        if function is not None
        for target in _targets(node)
        if target.split(".")[0] == "repro"
        and (name, function, target) != ALIAS
    ]
    assert lazy == [], f"repro.core.{name} imports lazily: {lazy}"


@pytest.mark.parametrize("name", STACK)
def test_no_import_of_repro_serving(name):
    upward = [
        target
        for node, _, _ in _found(name)
        for target in _targets(node)
        if target == "repro.serving" or target.startswith("repro.serving.")
    ]
    assert upward == [], f"repro.core.{name} imports {upward}"


def test_core_module_graph_has_no_cycle():
    graph = _core_graph()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            cycle = path[path.index(module):] + [module]
            pytest.fail("import cycle: " + " -> ".join(cycle))
        if module in done:
            return
        for target in sorted(graph.get(module, ())):
            visit(target, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])


def test_decode_stack_layers():
    """paging -> speculative -> decode, each imported by the next, and
    the modules below them import none of the three."""
    graph = _core_graph()
    stack = {"paging", "speculative", "decode"}
    assert "paging" in graph["speculative"]
    assert {"paging", "speculative"} <= graph["decode"]
    assert not graph["paging"] & stack
    assert "decode" not in graph["speculative"]
    for below in ("attention", "waiting"):
        assert not graph[below] & stack, below
