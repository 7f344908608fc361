"""Source-level rules of the package that no runtime test can see."""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np

import cogrelay
from cogrelay import analytic, cli, config

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


def _arrays(value):
    """Every numpy array inside ``value`` (tuples, lists, dataclasses)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays(getattr(value, field.name))


def test_cached_tables_are_read_only():
    # the lru_cache'd tables of the closed forms are shared by every row
    # with the same link shapes, so a row that wrote into one would corrupt
    # all later rows; their arrays must refuse writes
    builders = {name: fn for name, fn in vars(analytic).items()
                if callable(fn) and hasattr(fn, "cache_info")}
    assert set(builders) == {"_chi1_table", "_chi2_table", "_survival_table"}, sorted(builders)
    for name, fn in builders.items():
        shapes = (3,) * len(inspect.signature(fn).parameters)
        arrays = list(_arrays(fn(*shapes)))
        assert arrays, f"{name} returned no arrays"
        assert not any(a.flags.writeable for a in arrays), f"{name} returned a writable array"


def test_documented_csv_header_matches_the_sweep():
    # the README's CSV block and the cli docstring state the CSV contract;
    # with line breaks removed, both must be the header the sweep writes
    readme = (Path(cogrelay.__file__).parents[2] / "README.md").read_text()
    blocks = [re.search(r"```\n(x_db,.*?)```", readme, re.S),
              re.search(r"::\n\n(\s+x_db,.*?)\n\n", cli.__doc__, re.S)]
    assert all(blocks)
    for block in blocks:
        assert "".join(line.strip() for line in block[1].splitlines()) == cli.CSV_HEADER


def test_documented_config_grammar_matches_the_parser():
    # the README's grammar table names, per section kind, every key the
    # parser reads and marks the optional ones
    readme = (Path(cogrelay.__file__).parents[2] / "README.md").read_text()
    documented = {}
    for kind, keys in re.findall(r"^\| `\[(\w+)[^|]*\| (.*) \|$", readme, re.M):
        entries = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", keys)
        documented[kind] = {key: not note.startswith("optional") for key, note in entries}
    assert documented == {kind: {key: required for key, (_, required) in grammar.items()}
                          for kind, grammar in config._GRAMMAR.items()}
