"""Each test helper has one home: reference implementations in oracles.py,
shared fixtures and builders in conftest.py. No test module imports
another, not even from a script held in a string and run in a subprocess.
And src/kwspot defines nothing that only the tests reach, and one exception
class per exit status."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imports(tree):
    """The top-level modules that tree imports, and that each string
    literal in it imports if it parses as Python."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                script = ast.parse(node.value)
            except (SyntaxError, ValueError):  # not Python, or a null byte
                continue
            yield from _imports(script)


def test_one_home_per_helper():
    faults = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        faults += [f"{path.name} imports {name}" for name in _imports(tree)
                   if name.startswith("test_")]
        faults += [f"{path.name}:{node.lineno} defines {node.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and path.name != "oracles.py"
                   and node.name.startswith(("naive_", "composed_", "whole_batch_", "two_pass_"))]
    assert not faults, faults


def _definitions(tree):
    """The names of a module's top-level functions and classes and of the
    methods of those classes, dunder methods apart."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_no_test_only_definitions():
    # a name is reached if src/kwspot or perfbench/ name it once more than
    # src/kwspot defines it
    sources = [path.read_text() for path in sorted((ROOT / "src" / "kwspot").glob("*.py"))]
    defined = Counter(name for text in sources for name in _definitions(ast.parse(text)))
    text = "\n".join(sources + [path.read_text()
                                for path in sorted((ROOT / "perfbench").rglob("*.py"))])
    unreached = sorted(name for name, count in defined.items()
                       if len(re.findall(rf"\b{name}\b", text)) <= count)
    assert not unreached, unreached


def test_one_error_class_per_exit_status():
    # run_cli exits 1 on a ConfigError and 2 on a DataError; a new class
    # needs a new exit status first, and no other module defines one
    def classes(path):
        return [node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ClassDef)]

    src = ROOT / "src" / "kwspot"
    assert [node.name for node in classes(src / "errors.py")] == [
        "KwspotError", "ConfigError", "DataError"]
    faults = [f"{path.name} defines {node.name}"
              for path in sorted(src.glob("*.py")) if path.name != "errors.py"
              for node in classes(path)
              if any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)]
    assert not faults, faults
