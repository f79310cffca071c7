"""The benchmark's tracer still finds every name it patches.

perfbench/tracer.py wraps gridrisk functions at the names their callers
look up, so renaming or deleting one of those names breaks the traced
benchmark runs while the package itself keeps working.  This runs each
command the benchmark runs, traced, on a small case.
"""

import json
from importlib import resources
from pathlib import Path

import pytest

from gridrisk import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RING4 = str(resources.files("gridrisk") / "cases" / "ring4.json")


def _traced(argv, case, tmp_path, monkeypatch) -> dict:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        args = argv + ["--case", case, "--out", str(tmp_path / "o.csv")]
        assert tracer.call("cli.main", cli.main, args) == 0
    finally:
        tracer.restore()
    return tracer.metrics(0)


@pytest.mark.parametrize("argv", [
    ["index"],
    ["risk", "--target", "5", "--empirical", "--runs", "20", "--mu-points", "4"],
    ["detect", "--target", "5", "--mu-points", "4"],
])
def test_traced_command_runs(argv, tmp_path, monkeypatch):
    # ring4 without line 1's two flow rows: line 1 then carries fewer flow
    # rows than either end bus carries injections, so the plan is not
    # cut-exact and every index program goes through the MILP
    doc = json.loads(Path(RING4).read_text())
    doc["measurements"] = [ms for ms in doc["measurements"]
                           if ms["kind"] == "injection" or ms["element"] != 1]
    case = tmp_path / "ring4_milp.json"
    case.write_text(json.dumps(doc))
    metrics = _traced(argv, str(case), tmp_path, monkeypatch)
    assert metrics["security.index_programs"] >= 1
    assert metrics["milp.solves"] >= 1


@pytest.mark.parametrize("argv", [
    ["index"],
    ["risk", "--target", "5", "--empirical", "--runs", "20", "--mu-points", "4"],
])
def test_traced_cut_exact_command_runs(argv, tmp_path, monkeypatch):
    # ring4's full plan is cut-exact: its programs are minimum cuts
    metrics = _traced(argv, RING4, tmp_path, monkeypatch)
    assert metrics["security.index_programs"] >= 1
    assert metrics["milp.solves"] == 0
