"""The package's public names and its imports.

`gridrisk.__all__` is the API the README documents; the scan below stands
in for a linter's unused-import rule.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gridrisk
from gridrisk.attack import perturb_model
from gridrisk.network import GridModel, build_model, load_case_file
from gridrisk.security import (
    IndexQuery, _cut_bounds, combined_index, cost_weighted_index, fdi_index, index_sweep,
    row_structure,
)

PACKAGE = Path(gridrisk.__file__).resolve().parent

PUBLIC_API = [
    "CaseValidationError",
    "Gains",
    "IndexQuery",
    "MilpError",
    "SecurityIndexError",
    "UnobservableError",
    "build_model",
    "combined_index",
    "compute_gains",
    "compute_reduced_gains",
    "cost_weighted_index",
    "default_mu_grid",
    "empirical_detection",
    "fdi_index",
    "index_sweep",
    "load_bundled_case",
    "load_case_file",
    "make_bdd_config",
    "perturb_model",
    "risk_sweep",
    "tuple_attack_variants",
]

# Imported but unused by their modules: perfbench/tracer.py patches these
# names on cli and risk, so each module keeps them importable.
TRACER_IMPORTS = {
    "cli.py": {"compute_gains", "compute_reduced_gains", "detection_probability",
               "empirical_detection", "make_bdd_config", "scale_attack"},
    "risk.py": {"compute_gains", "j_test", "make_bdd_config", "scale_attack",
                "synthesize_measurements"},
}


def test_public_api_is_pinned():
    assert sorted(gridrisk.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(gridrisk, name) is not None, name
    assert isinstance(gridrisk.__version__, str)


def test_index_knobs_are_pinned():
    # a query is a model and a target: every program is solved in one box
    # at one magnitude, the model picks the path, and the costs only price
    # alpha's support
    assert [f.name for f in fields(IndexQuery)] == ["model", "target_j"]
    assert list(inspect.signature(index_sweep).parameters) == [
        "model_or_h", "cost_integrity", "cost_availability", "mapper"]
    assert list(inspect.signature(fdi_index).parameters) == ["query", "structure"]
    assert list(inspect.signature(combined_index).parameters) == ["query"]
    assert list(inspect.signature(cost_weighted_index).parameters) == [
        "query", "cost_integrity", "cost_availability"]


def test_only_security_picks_the_index_path():
    # row_structure chooses between the minimum cut and the MILP; every
    # other module reaches it through an IndexQuery
    naming = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.asname or alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            if (isinstance(node, ast.Name) and node.id == "row_structure"
                    or isinstance(node, ast.Attribute) and node.attr == "row_structure"
                    or "row_structure" in names):
                naming.add(path.name)
    assert naming == {"security.py"}


def test_model_layout_is_pinned(ieee14):
    # H is stored with the three factors it is assembled from; the
    # attacker's model is the same type with other line weights
    assert [f.name for f in fields(GridModel)] == [
        "n", "n_t", "m", "H", "line_map", "incidence", "reference", "line_weights",
        "sigma", "measurement_labels"]
    attacker = perturb_model(ieee14, 0.2, seed=0)
    assert type(attacker) is GridModel
    for name in ("line_map", "incidence", "sigma"):
        shared = getattr(attacker, name)
        assert shared is getattr(ieee14, name), name
        assert not shared.flags.writeable, name
    assert not attacker.line_weights.flags.writeable
    assert not np.array_equal(attacker.line_weights, ieee14.line_weights)


def _unused_imports(tree) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        # names re-exported through __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return imported - used


def test_no_unused_imports():
    flagged = {}
    for path in sorted(PACKAGE.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            flagged[path.name] = unused
    assert flagged == TRACER_IMPORTS


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _module_scopes() -> dict:
    """Each module's top-level definitions, the (module, name) each name
    it imports from a sibling stands for, and its other top-level
    statements: its tables."""
    scopes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs, imports, tables = {}, {}, []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module:
                    imports.update({alias.asname or alias.name: (node.module, alias.name)
                                    for alias in node.names})
            elif not isinstance(node, ast.Import):
                tables.append(node)
        scopes[path.stem] = (defs, imports, tables)
    return scopes


def _resolve(scopes, module, name):
    """The top-level definition (module, name) that a name used in module
    stands for, following imports, or None."""
    while module in scopes:
        defs, imports, _ = scopes[module]
        if name in defs:
            return module, name
        module, name = imports.get(name, (None, None))
    return None


def _referenced(scopes, module, node) -> set:
    return {_resolve(scopes, module, sub.id) for sub in ast.walk(node)
            if isinstance(sub, ast.Name)} - {None}


def test_every_definition_is_reached():
    # roots: the entry point, the public API, module-level tables, and
    # every name the benchmark's tracer patches on the modules it imports;
    # code that only tests call belongs in tests/
    scopes = _module_scopes()
    tracer = ast.parse(TRACER.read_text())
    patched = {node.value for node in ast.walk(tracer) if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and node.value.isidentifier()}
    traced = {alias.name for node in ast.walk(tracer)
              if isinstance(node, ast.ImportFrom) and node.module == "gridrisk"
              for alias in node.names}
    roots = {("cli", "main")}
    roots |= {_resolve(scopes, "__init__", name) for name in gridrisk.__all__}
    roots |= {_resolve(scopes, module, name) for module in traced for name in patched}
    for module, (_, _, tables) in scopes.items():
        for node in tables:
            roots |= _referenced(scopes, module, node)
    reached, todo = set(), roots - {None}
    while todo:
        module, name = todo.pop()
        reached.add((module, name))
        todo |= _referenced(scopes, module, scopes[module][0][name]) - reached
    defined = {(module, name) for module, (defs, _, _) in scopes.items() for name in defs}
    assert defined - reached == set()


# Loaded only where a command needs them: scipy.optimize by the first MILP
# solve, and scipy.spatial by nothing.  Each takes about 0.2 s to import.
LAZY_SCIPY = ("scipy.optimize", "scipy.spatial")
IEEE14 = str(PACKAGE / "cases" / "ieee14.json")


def _lazy_modules_after(code: str) -> dict:
    """Which of LAZY_SCIPY a fresh interpreter holds after running code;
    pytest's own process has imported scipy.optimize already."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    probe = "\n".join([code, "import json, sys",
                       f"print(json.dumps({{n: n in sys.modules for n in {LAZY_SCIPY!r}}}))"])
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def _milp_plan(tmp_path) -> str:
    # chain3 without line 2's flow rows: bus 2 and 3 carry injection rows
    # that line 2 cannot cover, so the plan is not cut-exact
    doc = json.loads((PACKAGE / "cases" / "chain3.json").read_text())
    doc["measurements"] = [meas for meas in doc["measurements"]
                           if not (meas["kind"] != "injection" and meas["element"] == 2)]
    path = tmp_path / "milp_plan.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv", [
    None,
    ["detect", "--case", IEEE14, "--target", "9"],
    ["index", "--case", IEEE14],
], ids=["import", "detect", "index"])
def test_commands_without_a_milp_load_no_optimize_or_spatial(tmp_path, argv):
    code = "import gridrisk.cli"
    if argv is not None:
        argv = [*argv, "--out", str(tmp_path / "o.csv")]
        code += f"\nassert gridrisk.cli.main({argv!r}) == 0"
    assert _lazy_modules_after(code) == dict.fromkeys(LAZY_SCIPY, False)


def test_first_milp_solve_loads_optimize(tmp_path):
    plan = _milp_plan(tmp_path)
    structure = row_structure(build_model(load_case_file(plan)))
    # no cut-exact floor closes the first class, so index poses its MILP
    assert not structure.network.exact
    lower, upper, _ = _cut_bounds(structure.network, 0)
    assert lower < upper
    argv = ["index", "--case", plan, "--out", str(tmp_path / "o.csv")]
    code = f"import gridrisk.cli\nassert gridrisk.cli.main({argv!r}) == 0"
    # scipy.optimize imports scipy.spatial itself, so only it is checked
    assert _lazy_modules_after(code)["scipy.optimize"]


def _imports(node, scope):
    """(module imported, enclosing scope) for every import under node;
    the scope is the module, or its function or class, dotted."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((alias.name, scope) for alias in child.names)
        elif isinstance(child, ast.ImportFrom):
            # `from scipy import spatial` imports scipy.spatial
            module = child.module or ""
            yield module, scope
            yield from ((f"{module}.{alias.name}", scope) for alias in child.names)
        inner = (f"{scope}.{child.name}" if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope)
        yield from _imports(child, inner)


def test_optimize_is_imported_only_inside_solve_milp():
    where = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, scope in _imports(tree, path.stem):
            for lazy in LAZY_SCIPY:
                if name == lazy or name.startswith(lazy + "."):
                    where.setdefault(lazy, set()).add(scope)
    assert where == {"scipy.optimize": {"milp.solve_milp"}}
