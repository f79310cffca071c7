"""The benchmark's tracer still finds every name it patches.

perfbench/tracer.py wraps gridrisk functions at the names their callers
look up, so renaming or deleting one of those names breaks the traced
benchmark runs while the package itself keeps working.  This runs each
command the benchmark runs, traced, on a small case.
"""

import sys
from importlib import resources
from pathlib import Path

import pytest

from gridrisk import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RING4 = str(resources.files("gridrisk") / "cases" / "ring4.json")


@pytest.mark.parametrize("argv", [
    ["index"],
    ["risk", "--target", "5", "--empirical", "--runs", "20", "--mu-points", "4"],
    ["detect", "--target", "5", "--mu-points", "4"],
])
def test_traced_command_runs(argv, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        args = argv + ["--case", RING4, "--out", str(tmp_path / "o.csv")]
        assert tracer.call("cli.main", cli.main, args) == 0
    finally:
        tracer.restore()
    metrics = tracer.metrics(0)
    assert metrics["security.index_programs"] >= 1
    assert metrics["milp.solves"] >= 1
