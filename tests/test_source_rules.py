"""Source-level rules of the package that no runtime test can see."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np

import cogrelay
from cogrelay import analytic, cli, config, montecarlo

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


def _imports(path, package):
    """``file:line`` of every import of ``package`` or its submodules in
    ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [f"{path.name}:{node.lineno}" for name in names
                  if name == package or name.startswith(package + ".")]
    return found


def test_closed_forms_use_no_adaptive_quadrature():
    # adaptive quadrature belongs to the independent oracle only; the
    # closed forms and special functions use fixed-node rules
    assert {path.name for path in SOURCES} >= {"analytic.py", "specfun.py"}
    found = [hit for path in SOURCES if path.name in ("analytic.py", "specfun.py")
             for hit in _imports(path, "scipy.integrate")]
    assert not found, f"scipy.integrate imported by: {', '.join(found)}"


def test_no_module_imports_scipy_optimize():
    # the power solver is analytic._solve; scipy.optimize (with the
    # scipy.linalg it loads) would cost every sweep about 0.25 s of start-up
    found = [hit for path in SOURCES for hit in _imports(path, "scipy.optimize")]
    assert not found, f"scipy.optimize imported by: {', '.join(found)}"


def test_cached_tables_are_read_only():
    # the lru_cache'd term table is the only cache of the closed forms and
    # is shared by every row with the same link shapes, so a row that wrote
    # into it would corrupt all later rows; its arrays must refuse writes
    builders = {name: fn for name, fn in vars(analytic).items()
                if callable(fn) and hasattr(fn, "cache_info")}
    assert set(builders) == {"_term_table"}, sorted(builders)
    arrays = analytic._term_table((3, 2), (3, 3))
    assert all(isinstance(a, np.ndarray) for a in arrays), arrays
    assert not any(a.flags.writeable for a in arrays), "_term_table returned a writable array"


def test_closed_forms_have_one_summation_path():
    # the term engine's terms are positive, so numpy's pairwise sum serves
    # every shape of call and the engine takes no reduction switch; only
    # the ASEP closed form, whose terms cancel, needs a compensated sum
    assert list(inspect.signature(analytic._expected_survival).parameters) == \
        ["factors", "kappa", "gains"]

    def fsums(node):
        return sum(isinstance(n, ast.Name) and n.id == "fsum"
                   or isinstance(n, ast.Attribute) and n.attr == "fsum" for n in ast.walk(node))
    tree = ast.parse(Path(analytic.__file__).read_text())
    asep = [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "asep_scenario_a"]
    assert len(asep) == 1
    assert fsums(tree) == fsums(asep[0]) == 1


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


def test_documented_slice_size_matches_the_engine():
    # the README's Reproducibility section states the slice size that the
    # ASEP's float sums depend on; it must be the one the engine uses
    readme = (Path(cogrelay.__file__).parents[2] / "README.md").read_text()
    sizes = re.findall(r"slices of\s+at most 2\^(\d+) trials", readme)
    assert sizes and all(1 << int(size) == montecarlo._SLICE for size in sizes), sizes
