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


def test_closed_forms_use_no_adaptive_quadrature():
    # adaptive quadrature belongs to the independent oracle only; the
    # closed forms and special functions use fixed-node rules
    found = []
    for path in SOURCES:
        if path.name not in ("analytic.py", "specfun.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy.integrate" or name.startswith("scipy.integrate.")]
    assert {path.name for path in SOURCES} >= {"analytic.py", "specfun.py"}
    assert not found, f"scipy.integrate imported by: {', '.join(found)}"
