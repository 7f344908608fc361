"""Source-level rules of the package that no runtime test can see."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import numpy as np

import cogrelay
from cogrelay import analytic, cli, config, montecarlo, oracle

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
    # every module, the oracles included, uses fixed-node rules; adaptive
    # quadrature serves only as a reference inside the tests
    assert {path.name for path in SOURCES} >= {"analytic.py", "oracle.py", "specfun.py"}
    found = [hit for path in SOURCES for hit in _imports(path, "scipy.integrate")]
    assert not found, f"scipy.integrate imported by: {', '.join(found)}"


def _package_imports(path):
    """(module, name) of every import from inside the package in ``path``;
    the name is None where a whole module is imported."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("cogrelay")):
            module = (node.module or "").removeprefix("cogrelay").lstrip(".")
            found |= {(module, alias.name) if module else (alias.name, None)
                      for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {(alias.name.split(".")[1], None) for alias in node.names
                      if alias.name.startswith("cogrelay.")}
    return found


def test_oracles_share_no_code_with_the_closed_forms():
    # the oracle docstring's claim: from the closed forms the oracles take
    # only the input records, and nothing of the special functions (no DE
    # rule, no term engine)
    found = _package_imports(Path(oracle.__file__))
    assert ("analytic", "SecondaryCdfInputs") in found
    assert {name for module, name in found if module == "analytic"} <= \
        {"PrimaryOutageInputs", "SecondaryCdfInputs"}, sorted(found)
    assert not any(module == "specfun" for module, _ in found), sorted(found)


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


def test_term_tables_are_c_ordered():
    # an F-ordered exponent table sends the engine's np.matmul down another
    # BLAS path: it moved example.cfg's relay powers in their last bits
    # (1.6693990421739722 -> 1.6693990421734777) and no value test saw it
    for orders, shapes in [((3,), (2, 1)), ((2, 3), (3,)), ((6,), ()), ((4,), (1, 4, 2))]:
        arrays = analytic._term_table(orders, shapes)
        assert all(a.flags.c_contiguous for a in arrays), (orders, shapes)


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


def test_only_the_kernel_contracts_a_node_axis():
    # the ASEP kernel rule alone contracts each row's nodes in one matrix
    # product (``_node_survival``); every lattice caller (the power solve,
    # the cdfs and their theta arrays) keeps the engine's vector-matrix
    # product per element, on which the batch-invariance tests rest
    def names(node):
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}
    reached = {f"{path.name}:{fn.name}" for path in SOURCES
               for fn in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(fn, ast.FunctionDef) and fn.name != "_node_survival"
               and "_node_survival" in names(fn)}
    assert reached == {"analytic.py:asep_kernel_scenario_a"}, sorted(reached)

    def products(fn):
        return [n for n in ast.walk(fn) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("matmul", "dot", "einsum", "tensordot")]
    tree = ast.parse(Path(analytic.__file__).read_text())
    found = {fn.name: products(fn) for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and products(fn)}
    assert sorted(found) == ["_node_survival", "_survival_terms"], sorted(found)
    # the per-element product multiplies logs[..., None, :], a 1 x k matrix
    (per_element,) = found["_survival_terms"]
    assert any(isinstance(n, ast.Constant) and n.value is None
               for n in ast.walk(per_element.args[0]))


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


def test_readme_usage_block_runs():
    # the README's library example is run as written, so it cannot name a
    # function the package no longer has
    readme = (Path(cogrelay.__file__).parents[2] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_closed_forms_take_inputs_and_theta():
    # the secondary cdfs and the best-relay oracle are called as (inputs,
    # theta), with the relay count the length of the inputs, and analytic
    # keeps one theta rule (``_cdf``) rather than a zero helper per cdf
    for fn in (analytic.cdf_scenario_a, analytic.cdf_scenario_a_e2e, analytic.cdf_scenario_b):
        assert list(inspect.signature(fn).parameters) == ["inputs", "theta"], fn.__name__
    assert list(inspect.signature(oracle.selection_oracle).parameters) == \
        ["per_relay_inputs", "theta"]
    assert not hasattr(analytic, "_zero")


def test_benchmark_layer_functions_exist():
    # a traced benchmark run builds each per-layer metric of BENCHMARK.json
    # from the functions that perfbench/layers.py lists for it, and drops
    # the metric without failing when one of them is gone; so every listed
    # ``layer.fn`` must stay a callable of ``cogrelay.<layer>``
    root = Path(cogrelay.__file__).parents[2]
    names = [entry["name"] for entry in
             json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    layers_py = root / "perfbench" / "layers.py"
    namespace = {"__name__": "perfbench_layers"}
    exec(compile(layers_py.read_text(), str(layers_py), "exec"), namespace)
    metrics = namespace["METRICS"]
    assert set(names) <= set(metrics), sorted(set(names) - set(metrics))

    def defined(fn):
        layer, name = fn.split(".", 1)
        return callable(getattr(importlib.import_module(f"cogrelay.{layer}"), name, None))

    gone = sorted({fn for name in names for fn in metrics[name][1] if not defined(fn)})
    assert not gone, f"functions the per-layer metrics need are gone: {', '.join(gone)}"
