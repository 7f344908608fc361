"""Source-level rules of the package that no runtime test can see."""

import ast
from pathlib import Path

import cogrelay

SOURCES = sorted(Path(cogrelay.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so failure paths must raise
    # typed CogrelayErrors instead
    assert any(path.name == "montecarlo.py" for path in SOURCES)
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"
