"""Each test helper has one home: reference implementations in oracles.py,
shared fixtures and builders in conftest.py. No test module imports
another, not even from a script held in a string and run in a subprocess."""

import ast
from pathlib import Path


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
