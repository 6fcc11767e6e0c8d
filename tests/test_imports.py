"""The package's import graph, read from the source: its modules import one
another in one order, each at module top level."""

import ast
from pathlib import Path

import tfbench

SOURCES = sorted(Path(tfbench.__file__).parent.glob("*.py"))


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}


def _package_imports(tree) -> set:
    """The package modules a module imports: ``from .x import ...``,
    ``from . import x`` and the absolute ``tfbench.x`` forms."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif node.level == 0 and (node.module or "").startswith("tfbench."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("tfbench."))
    return found


def _cycle(graph: dict):
    """One import cycle of ``graph`` as a list of modules, or None."""
    state = {}  # module -> "open" while on the path, "done" after

    def visit(module, path):
        state[module] = "open"
        for dep in sorted(graph.get(module, ())):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(dep, path + [dep])
                if found:
                    return found
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit(module, [module])
            if found:
                return found
    return None


def test_package_imports_form_a_dag():
    graph = {name: _package_imports(tree) for name, tree in _trees().items()}
    assert {"core", "tfd", "pct", "evaluate", "cli"} <= set(graph)
    assert _cycle(graph) is None
    for name in ("pct", "synth", "io"):
        assert "evaluate" not in graph[name], name


def test_cycle_finder_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b"}, "b": set(), "c": {"a", "b"}}) is None


def test_every_import_sits_at_module_top_level():
    nested = []
    for name, tree in _trees().items():
        top = {id(node) for node in tree.body}
        nested += [
            f"{name}.py:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []
