"""The package's modules import one another in one direction: the graph of
relative imports has no cycle, and every such import is at module level."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "understory"


def relative_imports():
    """(module, imported module, line, whether at module level) for every
    relative import in the package, at module level or inside a function."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import report
                    targets = [alias.name for alias in node.names]
                else:
                    targets = [node.module.split(".")[0]]
                for target in targets:
                    yield path.stem, target, node.lineno, node in tree.body


def find_cycle(graph):
    """One cycle of `graph` as a list of modules, first one repeated at the
    end, or None when the graph is acyclic."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph.get(module, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_find_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"b"}}) == ["b", "c", "b"]


def test_module_imports_are_acyclic():
    graph = {}
    for module, target, _, _ in relative_imports():
        graph.setdefault(module, set()).add(target)
    assert "story" in graph["report"]  # the walk sees the package
    assert find_cycle(graph) is None


def test_relative_imports_are_at_module_level():
    nested = ["%s:%d" % (module, line)
              for module, _, line, at_top in relative_imports() if not at_top]
    assert nested == []
