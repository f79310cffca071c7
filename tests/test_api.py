"""The package's public names and its imports.

`gridrisk.__all__` is the API the README documents; the scan below stands
in for a linter's unused-import rule.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np

import gridrisk
from gridrisk.attack import perturb_model
from gridrisk.network import GridModel
from gridrisk.security import IndexQuery, cost_weighted_index, index_sweep

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
    # every program is solved in one box at one magnitude, and the costs
    # only price alpha's support: none of them belongs in the query
    assert [f.name for f in fields(IndexQuery)] == ["h", "target_j", "mu"]
    assert list(inspect.signature(index_sweep).parameters) == [
        "model_or_h", "cost_integrity", "cost_availability", "mapper"]
    assert list(inspect.signature(cost_weighted_index).parameters) == [
        "query", "cost_integrity", "cost_availability"]


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
