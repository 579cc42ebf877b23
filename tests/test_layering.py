"""The package modules import one way: model -> second_order/fourth_order ->
asymptotics -> estimate -> harness/cli. Theory never imports inference, and
no import is deferred into a function to break a cycle, except the one in
`model.check_hypotheses`: it reads the moment and variance layers above
`model`, and stays there because the benchmark's tracer patches it there.
Every name a module imports is read there, so a deleted use leaves no
import behind."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcar"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def imported_modules(node: ast.AST) -> list[str]:
    """The package modules an import statement reads; imports of the
    package itself (`from . import __version__`) and of anything outside it
    are left out."""
    if isinstance(node, ast.ImportFrom):
        parts = node.module.split(".") if node.module else []
        if node.level == 0:
            if parts[:1] != ["rcar"]:
                return []
            parts = parts[1:]
        names = parts[:1] or [alias.name for alias in node.names]
    elif isinstance(node, ast.Import):
        names = [alias.name.split(".")[1] for alias in node.names
                 if alias.name.startswith("rcar.")]
    else:
        return []
    return [name for name in names if name in MODULES]


def package_imports() -> list[tuple[str, str | None, str]]:
    """(module, enclosing function or None, imported module) for every
    import between package modules."""
    edges = []

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if function is None else function
            edges.extend((module, function, target)
                         for target in imported_modules(child))
            visit(module, child, inner)

    for name in sorted(MODULES):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        visit(name, tree, None)
    return edges


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the directed graph as a list of nodes, or None."""
    done, path = set(), []

    def walk(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if (cycle := walk(nxt)) is not None:
                return cycle
        path.pop()
        done.add(node)
        return None

    for start in sorted(graph):
        if (cycle := walk(start)) is not None:
            return cycle
    return None


def test_the_walk_sees_every_module():
    assert {"model", "asymptotics", "estimate", "harness", "cli"} <= MODULES
    assert {(m, t) for m, f, t in package_imports() if f is None} >= {
        ("estimate", "asymptotics"), ("harness", "estimate"),
        ("cli", "harness")}


def test_find_cycle_detects_one():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def test_module_level_imports_have_no_cycle():
    graph: dict[str, set[str]] = {}
    for module, function, target in package_imports():
        if function is None:
            graph.setdefault(module, set()).add(target)
    assert find_cycle(graph) is None


def test_theory_does_not_import_inference():
    inference = {"estimate", "harness", "cli", "simulate"}
    for module in ("model", "second_order", "fourth_order", "asymptotics"):
        assert not {t for m, _, t in package_imports() if m == module} & inference


def test_the_one_function_level_import():
    deferred = {edge for edge in package_imports() if edge[1] is not None}
    assert deferred == {("model", "check_hypotheses", "second_order"),
                        ("model", "check_hypotheses", "asymptotics")}


def unused_imports(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind that it never reads; a
    name listed in `__all__` counts as read (a re-export)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return bound - read


def test_unused_imports_are_found():
    tree = ast.parse("import os, numpy as np\nfrom a.b import c, d as e\n"
                     "from __future__ import annotations\n"
                     "__all__ = ['c']\nnp.zeros(os.sep)\n")
    assert unused_imports(tree) == {"e"}


def test_every_import_is_used():
    unused = {name: names for name in sorted(MODULES | {"__init__"})
              if (names := unused_imports(ast.parse(
                  (PACKAGE / f"{name}.py").read_text(encoding="utf-8"))))}
    assert unused == {}
