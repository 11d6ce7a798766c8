"""The README's Python API block runs as written, on what `import understory`
exports."""

import ast
import pathlib
import re

import understory

from conftest import FIXTURES

ROOT = pathlib.Path(__file__).parent.parent


def python_api_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def imported_from_understory(source):
    tree = ast.parse(source)
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "understory"
            for alias in node.names}


def test_python_api_block_runs_verbatim(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    exec(compile(python_api_block(), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("understandable ('e1', 'e3')\n")
    assert "digraph U {\n" in out


def test_every_exported_name_resolves():
    assert [name for name in understory.__all__ if not hasattr(understory, name)] == []


def test_exports_are_the_readme_api_and_the_acceptance_imports():
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    wanted = imported_from_understory(python_api_block())
    wanted |= imported_from_understory(acceptance)
    assert sorted(understory.__all__) == sorted(wanted)
