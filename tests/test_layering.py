"""The package's modules import one another in one direction: the graph of
relative imports has no cycle, and every such import is at module level.
Every function, class and method the package defines is used by package
code, exported, or kept for a stated reason, so test-only code stays out
of the package.  Importing the CLI loads no stdlib module it does not
need.  Only `cli.main` writes to stdout or stderr."""

import ast
import os
import pathlib
import subprocess
import sys

import understory

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


def loaded_by_importing_the_cli(modules):
    """Those of `modules` that a fresh `import understory.cli` loads.  `-S`
    keeps site-packages' start-up hooks out of the check."""
    probe = ("import sys, understory.cli; "
             "print(' '.join(sorted(set(%r) & set(sys.modules))))" % sorted(modules))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    """Every shell command pays for the CLI's imports: `dataclasses` pulls
    in `inspect`, `ast`, `dis` and `tokenize`."""
    assert loaded_by_importing_the_cli({"dataclasses", "inspect"}) == []


def test_the_cli_imports_neither_argparse_nor_gettext():
    """The CLI reads its argv itself, so no shell command pays for
    `argparse` or the `gettext` it imports."""
    assert loaded_by_importing_the_cli({"argparse", "gettext"}) == []


STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def stream_uses(tree):
    """The qualified name of the function or class around each use of
    `print` or of a `sys` stream in `tree`, "" at module level."""
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, where + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == "print"
                    or isinstance(child, ast.Attribute) and child.attr in STREAMS
                    and isinstance(child.value, ast.Name) and child.value.id == "sys"
                    or isinstance(child, ast.ImportFrom) and child.module == "sys"
                    and STREAMS & {alias.name for alias in child.names}):
                yield ".".join(where)
            yield from walk(child, where)

    return walk(tree, [])


def test_stream_uses_are_found_at_every_depth():
    tree = ast.parse("import sys\nprint(1)\n"
                     "def f():\n    sys.stderr.write('x')\n"
                     "class C:\n    def g(self):\n        return [print]\n"
                     "def h():\n    out = sys.__stdout__\n    from sys import stdout\n"
                     "def k():\n    return sys.argv, printed\n")
    assert list(stream_uses(tree)) == ["", "f", "C.g", "h", "h"]


def test_only_cli_main_writes_to_stdout_or_stderr():
    """So one place decides what reaches each stream and what a stream that
    refuses output does to the exit code."""
    uses = {"%s.%s" % (path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
            for where in stream_uses(ast.parse(path.read_text(encoding="utf-8")))}
    assert sorted(uses) == ["cli.main"]


# Definitions kept although no package code uses them, with the reason.
UNUSED_BUT_KEPT = {
    "schema.MemorySchema.tree_of": "bench/tracer.py wraps it by name",
    "report.dumps": "bench/tracer.py wraps it by name",
}


def definitions():
    """(module, qualified name, is a method) for every function, class and
    method defined in the package, nested ones included."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))

        def walk(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    qualname = prefix + child.name
                    yield path.stem, qualname, in_class
                    yield from walk(child, qualname + ".",
                                    isinstance(child, ast.ClassDef))
                else:
                    yield from walk(child, prefix, in_class)

        yield from walk(tree, "", False)


# Function-like scopes: the names they bind hide module-level names.
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
          ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope):
    """The parameters of a function-like scope and the names it assigns
    itself.  A nested function or class is a definition of its own, so its
    name is left out: reading it is a use."""
    bound = set()
    args = getattr(scope, "args", None)
    if args is not None:
        bound.update(arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs
                     + [args.vararg, args.kwarg] if arg is not None)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def free_reads(node, hidden=frozenset()):
    """Each bare name read under `node` that is not a parameter or local of
    the function (or of a function around it) that reads it."""
    if isinstance(node, SCOPES):
        hidden = hidden | local_names(node)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            if child.id not in hidden:
                yield child.id
        else:
            yield from free_reads(child, hidden)


def test_free_reads_skip_parameters_and_locals():
    tree = ast.parse("def f(a, *b):\n"
                     "    def k(): pass\n"
                     "    c = a + b + d\n"
                     "    g = lambda: [c + e for e in h]\n"
                     "    return a.x + i(c, g, k)\n")
    assert sorted(free_reads(tree)) == ["d", "h", "i", "k"]


def uses():
    """What package code uses: bare names read outside any function that
    binds them (calls and any other reference), imported names, attribute
    names, and (module, name) pairs for an attribute of an imported module,
    as in `report_mod.report_json`."""
    names, attributes, qualified = set(), set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> package module, from `from . import m`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
                if node.level and node.module is None:
                    modules.update((alias.asname or alias.name, alias.name)
                                   for alias in node.names)
        names.update(free_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    qualified.add((modules[node.value.id], node.attr))
    return names, attributes, qualified


def unused_definitions():
    """Definitions that pass none of the checks but the allowlist: a
    function or class is used by name or as an attribute of its module, a
    method as an attribute; exported names and dunders need no use."""
    names, attributes, qualified = uses()
    exported = set(understory.__all__)
    unused = []
    for module, qualname, is_method in definitions():
        name = qualname.rsplit(".", 1)[-1]
        if name.startswith("__") and name.endswith("__") or name in exported:
            continue
        if is_method:
            if name in attributes:
                continue
        elif name in names or (module, name) in qualified:
            continue
        unused.append("%s.%s" % (module, qualname))
    return unused


def test_every_definition_is_used_exported_or_kept_for_a_stated_reason():
    unused = unused_definitions()
    assert "schema.MemorySchema.tree_of" in unused  # the walk sees methods
    assert [name for name in unused if name not in UNUSED_BUT_KEPT] == []


def test_every_kept_definition_is_defined():
    defined = {"%s.%s" % (module, qualname) for module, qualname, _ in definitions()}
    assert sorted(set(UNUSED_BUT_KEPT) - defined) == []
