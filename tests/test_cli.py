"""End-to-end checks of the gridrisk command line."""

import argparse
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import gridrisk
from gridrisk import cli
from gridrisk.attack import AttackVector, perturb_model
from gridrisk.cli import main
from gridrisk.network import build_model, load_bundled_case, load_case_file
from gridrisk.risk import tuple_attack_variants
from gridrisk.security import (
    IndexQuery, _cut_bounds, fdi_index, format_index_csv, index_sweep, row_structure,
)

from conftest import TWO_BUS_DOC, plan35_doc
from oracles import enumeration_alpha, mc_alarm_count

CHAIN3 = str(resources.files("gridrisk") / "cases" / "chain3.json")
RING4 = str(resources.files("gridrisk") / "cases" / "ring4.json")
SRC = str(Path(gridrisk.__file__).resolve().parents[1])


def _read(path):
    return path.read_text()


def _rows(path):
    lines = _read(path).splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_index_csv_matches_library(tmp_path):
    out = tmp_path / "index.csv"
    assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 0
    model = build_model(load_bundled_case("chain3"))
    expected = format_index_csv(index_sweep(model, cost_integrity=1.0,
                                            cost_availability=0.5))
    assert _read(out) == expected

    # the manifest records the command, the version and index's own flags
    manifest = json.loads(_read(tmp_path / "index.csv.manifest.json"))
    assert manifest == {
        "command": "index",
        "version": gridrisk.__version__,
        "case": CHAIN3,
        "out": str(out),
        "cost_integrity": 1.0,
        "cost_availability": 0.5,
    }


def test_index_rows_match_the_model_query(tmp_path):
    plan = tmp_path / "plan35.json"
    plan.write_text(json.dumps(plan35_doc()))
    out = tmp_path / "plan35.csv"
    assert main(["index", "--case", str(plan), "--out", str(out)]) == 0
    rows = {int(r["j"]): r for r in _rows(out)}
    assert int(rows[6]["alpha"]) == int(rows[17]["alpha"]) == 8
    # the plan is not cut-exact and its floor does not close the class of
    # rows 6 and 17, so a query on its model takes the MILP, as index
    # does, and finds the rows index reports
    model = build_model(load_case_file(str(plan)))
    structure = row_structure(model)
    assert not structure.network.exact
    lower, upper, _ = _cut_bounds(structure.network, 5)
    assert lower < upper
    for j in (6, 17):
        support = sorted(int(i) for key in ("integrity_set", "availability_set")
                         for i in rows[j][key].split(";") if i)
        assert fdi_index(IndexQuery(model, j)).support == tuple(support)


# A plan on which HiGHS proves each optimum with a value up to 1.7e-6
# above its dual bound, the binaries' integrality slack
SLACK5_DOC = {
    "base_mva": 100.0,
    "buses": [{"id": 1}, {"id": 2}, {"id": 3}, {"id": 4}, {"id": 5, "reference": True}],
    "lines": [{"id": i, "from": f, "to": t, "reactance": x} for i, f, t, x in [
        (1, 1, 2, 0.059082530045897884), (2, 1, 3, 0.11254993195869412),
        (3, 2, 4, 8.748405748153234), (4, 1, 5, 0.06960498680205142),
        (5, 4, 5, 0.0069240464975178434), (6, 5, 3, 0.03615985509304816),
        (7, 2, 1, 4.025844900248919), (8, 4, 3, 0.4088456327903716)]],
    "measurements": [{"kind": kind, "element": element, "sigma": 0.02} for kind, element in [
        ("flow_from", 5), ("flow_to", 8), ("injection", 4), ("flow_from", 6),
        ("flow_from", 6), ("injection", 5), ("flow_to", 2), ("flow_from", 1),
        ("injection", 1)]],
}


def test_index_accepts_an_optimum_within_integrality_slack(tmp_path):
    plan = tmp_path / "slack5.json"
    plan.write_text(json.dumps(SLACK5_DOC))
    out = tmp_path / "slack5.csv"
    assert main(["index", "--case", str(plan), "--out", str(out)]) == 0
    h = build_model(load_case_file(str(plan))).H
    assert [int(r["alpha"]) for r in _rows(out)] == [
        enumeration_alpha(h, j0)[0] for j0 in range(9)] == [4, 4, 3, 6, 6, 4, 4, 3, 3]


def test_replay_restores_output_bytes(tmp_path):
    out = tmp_path / "index.csv"
    assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 0
    original_csv = _read(out)
    original_manifest = _read(tmp_path / "index.csv.manifest.json")

    out.write_text("garbage\n")
    assert main(["replay", str(tmp_path / "index.csv.manifest.json")]) == 0
    assert _read(out) == original_csv
    assert _read(tmp_path / "index.csv.manifest.json") == original_manifest


def test_detect_unperturbed_attacker_stays_at_false_alarm_rate(tmp_path):
    out = tmp_path / "detect.csv"
    rc = main(["detect", "--case", CHAIN3, "--target", "1", "--perturb", "0",
               "--mu-points", "4", "--out", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 3 * 4
    # exact model knowledge keeps every variant on the critical tuple stealthy
    for row in rows:
        assert float(row["delta_theory"]) == pytest.approx(0.05, abs=1e-9)


def test_detect_perturbed_attacker_columns(tmp_path):
    out = tmp_path / "detect.csv"
    rc = main(["detect", "--case", CHAIN3, "--target", "1",
               "--mu-points", "5", "--out", str(out)])
    assert rc == 0
    lines = _read(out).splitlines()
    assert lines[0] == "attack_id,mu,k_a,k_d,lambda,delta_theory"
    rows = _rows(out)
    ids = {row["attack_id"] for row in rows}
    assert ids == {"combined_1_3", "combined_2_2", "fdi_4"}
    for row in rows:
        assert float(row["delta_theory"]) >= 0.05 - 1e-9
        if row["attack_id"] == "combined_1_3":
            # the (1, beta-1) variant survives attacker model error
            assert float(row["delta_theory"]) == pytest.approx(0.05, abs=1e-6)


def test_detect_empirical_columns(tmp_path):
    out = tmp_path / "detect.csv"
    rc = main(["detect", "--case", CHAIN3, "--target", "1", "--empirical",
               "--runs", "50", "--mu-points", "2", "--out", str(out)])
    assert rc == 0
    lines = _read(out).splitlines()
    assert lines[0].endswith(",delta_empirical,ci_low,ci_high")
    for row in _rows(out):
        emp = float(row["delta_empirical"])
        assert float(row["ci_low"]) <= emp <= float(row["ci_high"])


def test_detect_zero_magnitude_grid(tmp_path):
    out = tmp_path / "detect.csv"
    rc = main(["detect", "--case", CHAIN3, "--target", "1", "--mu-max", "0",
               "--mu-points", "3", "--out", str(out)])
    assert rc == 0
    for row in _rows(out):
        assert float(row["mu"]) == 0.0
        assert float(row["delta_theory"]) == pytest.approx(0.05, abs=1e-12)
        # nothing is corrupted at zero magnitude
        assert row["k_a"] == "0"
        assert float(row["lambda"]) == 0.0


def test_risk_rows_recompute(tmp_path):
    out = tmp_path / "risk.csv"
    rc = main(["risk", "--case", CHAIN3, "--target", "1",
               "--mu-points", "4", "--out", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 3 * 4
    for row in rows:
        risk = float(row["risk"])
        impact = float(row["impact"])
        delta = float(row["delta_theory"])
        assert risk == pytest.approx((1.0 - delta) * impact, rel=1e-9, abs=1e-12)
        assert row["delta_empirical"] == ""


def test_risk_zero_magnitude(tmp_path):
    out = tmp_path / "risk.csv"
    rc = main(["risk", "--case", CHAIN3, "--target", "1", "--mu-max", "0",
               "--mu-points", "2", "--out", str(out)])
    assert rc == 0
    for row in _rows(out):
        assert float(row["impact"]) == 0.0
        assert float(row["risk"]) == 0.0
        assert row["k_a"] == "0"
        assert float(row["lambda"]) == 0.0


def test_risk_rejects_cost_flags(tmp_path, capsys):
    # risk compares variants of one critical tuple, whose costs cancel;
    # equal costs were once accepted and unequal ones rejected
    out = tmp_path / "r.csv"
    with pytest.raises(SystemExit) as exc:
        main(["risk", "--case", CHAIN3, "--target", "1", "--cost-integrity", "1",
              "--cost-availability", "1", "--out", str(out)])
    assert exc.value.code == 2
    assert "--cost-integrity" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_case_file(tmp_path, capsys):
    rc = main(["index", "--case", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "case not found" in capsys.readouterr().err


def _one_error_line(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert all(word in err for word in words), err


def _no_work(*args):
    raise AssertionError("work started before the --out check")


COMMANDS = [["index"], ["detect", "--target", "1"], ["risk", "--target", "1"]]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_out_in_missing_directory_exits_2_before_work(tmp_path, capsys,
                                                     monkeypatch, command):
    # the index sweep or Monte Carlo once ran to the end, then the write
    # raised FileNotFoundError
    monkeypatch.setattr(cli, "load_case_file", _no_work)
    out = tmp_path / "missing" / "o.csv"
    assert main([*command, "--case", CHAIN3, "--out", str(out)]) == 2
    _one_error_line(capsys, "output directory not found", str(out.parent))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_out_that_is_a_directory_exits_2_before_work(tmp_path, capsys,
                                                    monkeypatch, command):
    monkeypatch.setattr(cli, "load_case_file", _no_work)
    assert main([*command, "--case", CHAIN3, "--out", str(tmp_path)]) == 2
    _one_error_line(capsys, "--out is a directory")


def test_replay_out_in_missing_directory_exits_2_before_work(tmp_path, capsys,
                                                            monkeypatch):
    out = tmp_path / "d.csv"
    assert main(["detect", "--case", CHAIN3, "--target", "1", "--mu-points", "2",
                 "--out", str(out)]) == 0
    manifest = tmp_path / "d.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc["out"] = str(tmp_path / "gone" / "d.csv")
    manifest.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "load_case_file", _no_work)
    assert main(["replay", str(manifest)]) == 2
    _one_error_line(capsys, "output directory not found", "gone")


def test_replay_of_a_directory_exits_2(tmp_path, capsys):
    assert main(["replay", str(tmp_path)]) == 2
    _one_error_line(capsys, "cannot read manifest", str(tmp_path))


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_case_that_is_a_directory_exits_2(tmp_path, capsys, command):
    out = tmp_path / "o.csv"
    assert main([*command, "--case", str(tmp_path), "--out", str(out)]) == 2
    _one_error_line(capsys, "cannot read case", str(tmp_path))
    assert not out.exists()


def test_non_utf8_case_exits_2(tmp_path, capsys):
    case = tmp_path / "latin1.json"
    case.write_bytes(json.dumps({"base_mva": 100.0}).encode() + b"\xff\xfe")
    assert main(["index", "--case", str(case), "--out", str(tmp_path / "o.csv")]) == 2
    _one_error_line(capsys, "cannot read case", "utf-8")


def test_unreadable_case_exits_2(tmp_path, capsys, monkeypatch):
    # a permission check cannot be staged for a superuser, so the open
    # error is raised as load_case_file's open raises it
    def denied(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "load_case_file", denied)
    assert main(["detect", "--case", CHAIN3, "--target", "1",
                 "--out", str(tmp_path / "o.csv")]) == 2
    _one_error_line(capsys, "cannot read case", "Permission denied")


def test_failed_write_exits_2(tmp_path, capsys):
    # the CSV is written, then the manifest's path is a directory
    out = tmp_path / "o.csv"
    (tmp_path / "o.csv.manifest.json").mkdir()
    assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 2
    _one_error_line(capsys, "cannot write", "o.csv.manifest.json")


def test_detect_requires_target(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--case", CHAIN3, "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert "--target" in capsys.readouterr().err


def test_target_out_of_range(tmp_path, capsys):
    rc = main(["detect", "--case", CHAIN3, "--target", "99",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "1..7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect", "risk"])
@pytest.mark.parametrize("bad, flag", [
    (["--seed", "-1"], "--seed"),
    (["--empirical", "--runs", "0"], "--runs"),
    (["--mu-points", "0"], "--mu-points"),
    (["--mu-max", "nan"], "--mu-max"),
    (["--alpha", "1.5"], "--alpha"),
    (["--alpha", "0"], "--alpha"),
    (["--perturb", "1.0"], "--perturb"),
    (["--perturb", "-0.1"], "--perturb"),
    (["--mu-max", "-0.5"], "--mu-max"),
    # past the caps: 10^30 runs once looped without end, and 10^30
    # magnitudes exited 1 with a traceback from np.arange
    (["--mu-points", str(cli.MAX_MU_POINTS + 1)], "--mu-points"),
    (["--mu-points", "1" + "0" * 30], "--mu-points"),
    (["--empirical", "--runs", str(cli.MAX_RUNS + 1)], "--runs"),
    (["--empirical", "--runs", "1" + "0" * 30], "--runs"),
    (["--empirical", "--runs", str(cli.MAX_RUNS), "--mu-points", str(cli.MAX_MU_POINTS)],
     "--runs times --mu-points"),
])
def test_bad_sweep_values_exit_2(tmp_path, capsys, command, bad, flag):
    out = tmp_path / "o.csv"
    rc = main([command, "--case", CHAIN3, "--target", "1", *bad, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and err.count("\n") == 1
    assert not out.exists()


IEEE14 = str(resources.files("gridrisk") / "cases" / "ieee14.json")


# each once wrote a CSV with non-finite columns and exited 0: 1e308 gave
# mu = inf, and 1e200 overflowed lambda = (mu/mu0)^2 lambda0 to inf
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["detect", "risk"])
@pytest.mark.parametrize("mu_max, words", [
    ("1e308", ["magnitudes"]),
    ("1e200", ["lambda", "combined_2_9"]),
])
def test_non_finite_sweep_exits_2(tmp_path, capsys, command, mu_max, words):
    out = tmp_path / "o.csv"
    rc = main([command, "--case", IEEE14, "--target", "9", "--mu-points", "2",
               "--mu-max", mu_max, "--empirical", "--runs", "10", "--out", str(out)])
    assert rc == 2
    _one_error_line(capsys, "--mu-max", *words)
    assert list(tmp_path.iterdir()) == []


# past lambda ~ 1e19 the noncentral CDF is nan, and these grids once exited
# 2; lambda is finite there and far above tau, so delta is 1 and risk 0
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["detect", "risk"])
@pytest.mark.parametrize("mu_max", ["1e9", "1e150"])
def test_sweep_past_the_cdf_range_is_finite(tmp_path, command, mu_max):
    out = tmp_path / "o.csv"
    assert main([command, "--case", IEEE14, "--target", "9", "--mu-points", "2",
                 "--mu-max", mu_max, "--out", str(out)]) == 0
    rows = _rows(out)
    past = [r for r in rows if float(r["lambda"]) > 1e19]
    assert len(rows) == 6 and past
    assert all(r["delta_theory"] == "1" for r in past)
    if command == "risk":
        assert all(r["risk"] == "0" for r in past)
    assert "nan" not in _read(out)


@pytest.mark.filterwarnings("error")
def test_stealthy_variant_stays_at_false_alarm_rate_at_huge_magnitude(tmp_path):
    # combined_1_10's weighted residual is rounding residue, which a
    # magnitude of 1e150 once scaled into lambda ~ 1e276 and delta 1
    out = tmp_path / "o.csv"
    assert main(["detect", "--case", IEEE14, "--target", "9", "--mu-points", "2",
                 "--mu-max", "1e150", "--empirical", "--runs", "10",
                 "--out", str(out)]) == 0
    rows = [r for r in _rows(out) if r["attack_id"] == "combined_1_10"]
    assert len(rows) == 2
    model = build_model(load_bundled_case("ieee14"))
    variants = tuple_attack_variants(perturb_model(model, 0.2, 0), 9)
    ids = [attack_id for attack_id, _ in variants]
    withdrawn = dict(variants)["combined_1_10"].d
    # the variant's runs with nothing added: its noise-only alarm count
    noise = AttackVector(np.zeros(model.m), withdrawn, None, None)
    alarms = mc_alarm_count(model, noise, 0.05, 10, (0, ids.index("combined_1_10")))
    for row in rows:
        assert row["lambda"] == "0"
        assert float(row["delta_theory"]) == pytest.approx(0.05, abs=1e-12)
        assert float(row["delta_empirical"]) * 10 == pytest.approx(alarms, abs=1e-9)


def test_default_risk_of_stealthy_variant_has_zero_lambda(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["risk", "--case", CHAIN3, "--target", "1", "--out", str(out)]) == 0
    rows = [r for r in _rows(out) if r["attack_id"] == "combined_1_3"]
    assert len(rows) == 200
    assert {r["lambda"] for r in rows} == {"0"}


@pytest.mark.filterwarnings("error")
def test_replay_of_non_finite_sweep_exits_2(tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main(["risk", "--case", IEEE14, "--target", "9", "--mu-points", "2",
                 "--out", str(out)]) == 0
    manifest = tmp_path / "o.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc["mu_max"] = 1e200
    manifest.write_text(json.dumps(doc))
    out.unlink()
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    _one_error_line(capsys, "lambda", "combined_2_9")
    assert not out.exists()


SWEEP_FLAGS = {"--case", "--out", "--target", "--mu-max", "--mu-points", "--alpha",
               "--perturb", "--seed", "--runs", "--empirical"}
FLAG_SETS = {
    "index": {"--case", "--out", "--cost-integrity", "--cost-availability"},
    "detect": SWEEP_FLAGS,
    "risk": SWEEP_FLAGS,
}


def test_each_command_takes_only_its_flags():
    (subs,) = [action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    for command, flags in FLAG_SETS.items():
        options = {opt for action in subs.choices[command]._actions
                   for opt in action.option_strings}
        assert options - {"-h", "--help"} == flags, command


# flags no command reads any more, or that another command reads, each
# with a value the flag took
REMOVED = {
    "index": [["--target", "3"], ["--mu", "0.1"], ["--mu-max", "0.5"],
              ["--mu-points", "3"], ["--alpha", "0.05"], ["--perturb", "0.2"],
              ["--seed", "1"], ["--runs", "10"], ["--empirical"]],
    "detect": [["--mu", "0.1"], ["--cost-integrity", "1"],
               ["--cost-availability", "0.5"]],
    "risk": [["--mu", "0.1"], ["--cost-integrity", "1"],
             ["--cost-availability", "1"]],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in REMOVED.items() for flag in flags
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_removed_flag_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                 command, flag):
    monkeypatch.setattr(cli, "load_case_file", _no_work)
    target = [] if command == "index" else ["--target", "1"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--case", CHAIN3, *target, *flag,
              "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [
    ("--cost-availability", "nan"),
    ("--cost-availability", "inf"),
    ("--cost-integrity", "inf"),
    ("--cost-integrity", "nan"),
])
def test_index_bad_costs_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "o.csv"
    rc = main(["index", "--case", CHAIN3, f"{flag}={value}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("ca", ["1", "3", "0"])
def test_index_cost_edges(tmp_path, ca):
    # with C_A >= C_I nothing is withdrawn and gamma is C_I alpha; with
    # C_A = 0 every stealth support costs the written target alone
    out = tmp_path / "o.csv"
    assert main(["index", "--case", RING4, "--cost-availability", ca,
                 "--out", str(out)]) == 0
    for row in _rows(out):
        alpha = int(row["alpha"])
        if float(ca) >= 1.0:
            assert row["k_d"] == "0" and row["availability_set"] == ""
            assert float(row["gamma_combined"]) == float(alpha)
        else:
            assert row["integrity_set"] == row["j"]
            assert float(row["gamma_combined"]) == 1.0


def test_replay_rejects_bad_manifest_values(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["detect", "--case", CHAIN3, "--target", "1", "--mu-points", "2",
                 "--out", str(out)]) == 0
    manifest = tmp_path / "d.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc["alpha"] = 1.5
    manifest.write_text(json.dumps(doc))
    assert main(["replay", str(manifest)]) == 2
    assert "--alpha" in capsys.readouterr().err


@pytest.mark.parametrize("changes, flag", [
    ({"mu_points": 10**30}, "--mu-points"),
    ({"runs": 10**30}, "--runs"),
    ({"runs": cli.MAX_RUNS, "mu_points": cli.MAX_RUN_POINTS // cli.MAX_RUNS + 1},
     "--runs times --mu-points"),
])
def test_replay_rejects_sweeps_past_the_caps(tmp_path, capsys, changes, flag):
    out = tmp_path / "d.csv"
    assert main(["detect", "--case", CHAIN3, "--target", "1", "--mu-points", "2",
                 "--empirical", "--runs", "5", "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "d.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc.update(changes)
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    _one_error_line(capsys, flag)
    assert out.read_bytes() == fresh


def test_benchmark_sweeps_are_within_the_caps():
    # the largest sweeps the benchmark runs: detect-fine and risk-mc
    for argv in (["detect", "--mu-points", "12000"],
                 ["risk", "--empirical", "--runs", "1000", "--mu-points", "80"]):
        args = cli.build_parser().parse_args(
            [*argv, "--case", IEEE14, "--target", "9", "--out", "o.csv"])
        cli._check_sweep_args(args)


def test_replay_rejects_manifest_missing_a_field(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["detect", "--case", CHAIN3, "--target", "1", "--mu-points", "2",
                 "--out", str(out)]) == 0
    manifest = tmp_path / "d.csv.manifest.json"
    doc = json.loads(_read(manifest))
    del doc["seed"]
    manifest.write_text(json.dumps(doc))
    assert main(["replay", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed manifest") and "seed" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("mu_points", 2.5), ("runs", True),
    ("alpha", False), ("empirical", 1), ("target", 1.0), ("target", True),
    ("case", 3),
])
def test_replay_rejects_mistyped_manifest_values(tmp_path, capsys, field, value):
    # "seed": "x" once failed inside the argument checks with a TypeError
    # traceback, and "mu_points": 2.5 replayed a grid running past mu_max
    out = tmp_path / "d.csv"
    assert main(["detect", "--case", CHAIN3, "--target", "1", "--mu-points", "2",
                 "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "d.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc[field] = value
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed manifest") and field in err
    assert err.count("\n") == 1
    assert out.read_bytes() == fresh


def test_replay_accepts_integral_floats_and_null_target(tmp_path, capsys):
    out = tmp_path / "i.csv"
    assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "i.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc["cost_integrity"] = 1
    manifest.write_text(json.dumps(doc))
    assert main(["replay", str(manifest)]) == 0
    assert out.read_bytes() == fresh

    out = tmp_path / "d.csv"
    assert main(["detect", "--case", CHAIN3, "--target", "1", "--mu-max", "1",
                 "--mu-points", "3", "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "d.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc["mu_max"] = 1
    manifest.write_text(json.dumps(doc))
    assert main(["replay", str(manifest)]) == 0
    assert out.read_bytes() == fresh
    # a null target is mistyped, as a missing --target is a usage error
    doc["target"] = None
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    _one_error_line(capsys, "target must be an integer")


# A 0.5.0 manifest: every command recorded all 13 flags, --mu among them,
# and risk's cost availability defaulted to 1.0.
MANIFEST_0_5_0 = {"version": "0.5.0", "case": CHAIN3, "target": 1, "mu": 0.1,
                  "mu_max": 0.5, "mu_points": 200, "alpha": 0.05,
                  "cost_integrity": 1.0, "cost_availability": 0.5,
                  "perturb": 0.2, "seed": 0, "runs": 1000, "empirical": False}


@pytest.mark.parametrize("command, changes", [
    ("index", {"target": None}),
    ("detect", {}),
    ("risk", {"cost_availability": 1.0}),
    # 0.5.0 rejected unequal costs for risk
    ("risk", {}),
    # the magnitude only rescales, so the default run matches in full here
    ("detect", {"mu": 2.0}),
], ids=["index", "detect", "risk", "risk-unequal-costs", "detect-mu-2"])
def test_replay_of_a_0_5_0_manifest(tmp_path, capsys, command, changes):
    target = [] if command == "index" else ["--target", "1"]
    fresh = tmp_path / "fresh.csv"
    assert main([command, "--case", CHAIN3, *target, "--out", str(fresh)]) == 0
    out = tmp_path / "old.csv"
    doc = dict(MANIFEST_0_5_0, command=command, out=str(out), **changes)
    assert len(doc) == 15
    manifest = tmp_path / "old.csv.manifest.json"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "0.5.0" in err
    assert out.read_bytes() == fresh.read_bytes()
    # the rewritten manifest records only the command's own flags
    assert _read(manifest) == _read(tmp_path / "fresh.csv.manifest.json").replace(
        str(fresh), str(out))


def test_negative_costs_rejected(tmp_path):
    rc = main(["index", "--case", CHAIN3, "--cost-integrity", "-1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_bad_thread_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRIDRISK_THREADS", "lots")
    rc = main(["index", "--case", CHAIN3, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "GRIDRISK_THREADS" in capsys.readouterr().err


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers and maps
    serially, so no thread is started whatever the count."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture
def recorded_pools(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "ThreadPoolExecutor",
                        lambda max_workers: _RecordingPool(seen, max_workers))
    return seen


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_thread_env_below_one_exits_2(raw, tmp_path, capsys, monkeypatch,
                                      recorded_pools):
    monkeypatch.setenv("GRIDRISK_THREADS", raw)
    out = tmp_path / "o.csv"
    assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: GRIDRISK_THREADS") and err.count("\n") == 1
    assert recorded_pools == [] and not out.exists()


def test_thread_env_capped_at_cpu_count(tmp_path, monkeypatch, recorded_pools):
    serial = tmp_path / "serial.csv"
    assert main(["index", "--case", CHAIN3, "--out", str(serial)]) == 0
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    for raw in ("12000", "3", "1"):
        monkeypatch.setenv("GRIDRISK_THREADS", raw)
        out = tmp_path / f"t{raw}.csv"
        assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 0
        assert _read(out) == _read(serial)
    # one thread runs serially, without a pool
    assert recorded_pools == [4, 3]
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)  # count unknown
    monkeypatch.setenv("GRIDRISK_THREADS", "8")
    assert main(["index", "--case", CHAIN3, "--out", str(tmp_path / "n.csv")]) == 0
    assert recorded_pools == [4, 3]


def test_thread_env_output_identical(tmp_path, monkeypatch):
    serial = tmp_path / "serial.csv"
    main(["index", "--case", CHAIN3, "--out", str(serial)])
    monkeypatch.setenv("GRIDRISK_THREADS", "3")
    threaded = tmp_path / "threaded.csv"
    main(["index", "--case", CHAIN3, "--out", str(threaded)])
    assert _read(serial) == _read(threaded)


def test_replay_missing_and_malformed(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "none.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["replay", str(bad)]) == 2
    nocmd = tmp_path / "nocmd.json"
    nocmd.write_text("{\"case\": \"x\"}")
    assert main(["replay", str(nocmd)]) == 2
    capsys.readouterr()


def test_unobservable_case_exits_1(tmp_path, capsys):
    doc = {
        "base_mva": 100.0,
        "buses": [{"id": 1, "reference": True}, {"id": 2}, {"id": 3}],
        "lines": [
            {"id": 1, "from": 1, "to": 2, "reactance": 0.5},
            {"id": 2, "from": 2, "to": 3, "reactance": 0.5},
        ],
        "measurements": [{"kind": "flow_from", "element": 1, "sigma": 0.02}],
    }
    case = tmp_path / "thin.json"
    case.write_text(json.dumps(doc))
    rc = main(["index", "--case", str(case), "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


# combined_1_2 of TWO_BUS_DOC leaves the residual test dof 0; it once
# exited 2 with "dof must be at least 1; lower --mu-max", advice no
# magnitude can meet
@pytest.mark.parametrize("command", ["detect", "risk"])
def test_variant_without_redundancy_exits_1(tmp_path, capsys, command):
    case = tmp_path / "bare.json"
    case.write_text(json.dumps(TWO_BUS_DOC))
    out = tmp_path / "o.csv"
    rc = main([command, "--case", str(case), "--target", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "combined_1_2" in err and "dof 0" in err and "--mu-max" not in err, err
    assert not out.exists()


def test_invalid_case_exits_2(tmp_path, capsys):
    case = tmp_path / "broken.json"
    case.write_text(json.dumps({"buses": []}))
    rc = main(["index", "--case", str(case), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "invalid case" in capsys.readouterr().err


def test_mistyped_case_exits_2(tmp_path, capsys):
    doc = json.loads((resources.files("gridrisk") / "cases" / "ring4.json").read_text())
    doc["buses"][0]["id"] = "x"
    case = tmp_path / "mistyped.json"
    case.write_text(json.dumps(doc))
    rc = main(["index", "--case", str(case), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid case: buses[0].id must be an integer" in err
    assert "Traceback" not in err


def test_non_finite_sigma_exits_2(tmp_path, capsys):
    doc = json.loads((resources.files("gridrisk") / "cases" / "ieee14.json").read_text())
    doc["measurements"][3]["sigma"] = float("inf")
    case = tmp_path / "inf_sigma.json"
    case.write_text(json.dumps(doc))
    assert "Infinity" in case.read_text()
    rc = main(["detect", "--case", str(case), "--target", "9", "--mu-points", "2",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "measurement 4: sigma" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def _with_integer_literal(path, doc, digits):
    """Write doc with its one "HUGE" value spelled as a digits-long integer."""
    path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * (digits - 1)))
    return path


@pytest.mark.parametrize("where, key", [
    (("lines", 2), "reactance"), (("measurements", 3), "sigma"), ((), "base_mva"),
])
def test_case_number_beyond_float_range_exits_2(tmp_path, capsys, where, key):
    # 1e400 spelled as an integer is valid JSON that float() cannot convert
    doc = json.loads(_read(Path(RING4)))
    entry = doc[where[0]][where[1]] if where else doc
    entry[key] = "HUGE"
    case = _with_integer_literal(tmp_path / "huge.json", doc, 401)
    out = tmp_path / "o.csv"
    assert main(["index", "--case", str(case), "--out", str(out)]) == 2
    _one_error_line(capsys, "invalid case:", key, "float range")
    assert not out.exists()


def test_case_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, on an
    # integer literal longer than the interpreter converts
    doc = json.loads(_read(Path(RING4)))
    doc["lines"][0]["reactance"] = "HUGE"
    case = _with_integer_literal(tmp_path / "long.json", doc,
                                 sys.get_int_max_str_digits() + 1)
    out = tmp_path / "o.csv"
    assert main(["index", "--case", str(case), "--out", str(out)]) == 2
    _one_error_line(capsys, "invalid case:")
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (argv, name)
    for argv in (["index", "--case", CHAIN3],
                 ["detect", "--case", CHAIN3, "--target", "1", "--mu-points", "2"])
    for name in cli._COMMANDS[argv[0]][2] if cli._FLAGS[name][0] is float
])
def test_replay_rejects_integer_beyond_float_range(tmp_path, capsys, argv, field):
    # "mu_max" passed the argument checks, an int comparing below inf, and
    # overflowed in numpy; a cost failed in math.isfinite
    out = tmp_path / "o.csv"
    assert main([*argv, "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "o.csv.manifest.json"
    doc = json.loads(_read(manifest))
    doc[field] = "HUGE"
    _with_integer_literal(manifest, doc, 401)
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 2
    _one_error_line(capsys, "malformed manifest", field, "float range")
    assert out.read_bytes() == fresh


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_replay_warns_on_version_mismatch(tmp_path, capsys):
    out = tmp_path / "index.csv"
    assert main(["index", "--case", CHAIN3, "--out", str(out)]) == 0
    manifest = tmp_path / "index.csv.manifest.json"
    assert main(["replay", str(manifest)]) == 0
    assert capsys.readouterr().err == ""

    doc = json.loads(_read(manifest))
    doc["version"] = "0.0.0-old"
    manifest.write_text(json.dumps(doc))
    assert main(["replay", str(manifest)]) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "0.0.0-old" in err and gridrisk.__version__ in err


def test_replay_warns_on_manifest_from_per_run_streams(tmp_path, capsys):
    # gridrisk 0.1.0 seeded one noise stream per Monte Carlo run, so its
    # --empirical columns differ from this version's
    out = tmp_path / "detect.csv"
    assert main(["detect", "--case", RING4, "--target", "5", "--empirical",
                 "--runs", "20", "--mu-points", "3", "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "detect.csv.manifest.json"
    doc = json.loads(_read(manifest))
    assert doc["version"] == gridrisk.__version__ != "0.1.0"
    doc["version"] = "0.1.0"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 0
    err = capsys.readouterr().err
    assert "gridrisk 0.1.0" in err and "output may differ" in err
    assert out.read_bytes() == fresh


def test_replay_warns_on_index_manifest_from_0_2_0(tmp_path, capsys):
    # gridrisk 0.2.0 ran HiGHS's feasibility-jump heuristic, so its index
    # CSVs may report other, equally sparse supports than this version's
    out = tmp_path / "index.csv"
    assert main(["index", "--case", RING4, "--out", str(out)]) == 0
    fresh = out.read_bytes()
    manifest = tmp_path / "index.csv.manifest.json"
    doc = json.loads(_read(manifest))
    assert doc["version"] == gridrisk.__version__ != "0.2.0"
    doc["version"] = "0.2.0"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["replay", str(manifest)]) == 0
    err = capsys.readouterr().err
    assert "gridrisk 0.2.0" in err and "output may differ" in err
    assert out.read_bytes() == fresh


def test_package_and_project_versions_agree():
    pyproject = Path(SRC).parent / "pyproject.toml"
    line = next(row for row in _read(pyproject).splitlines()
                if row.startswith("version"))
    assert line.split("=", 1)[1].strip().strip('"') == gridrisk.__version__


def _run_cli(args, threads, cwd):
    env = dict(os.environ, GRIDRISK_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "gridrisk.cli", *args], cwd=cwd,
                          env=env, capture_output=True, timeout=60)


@pytest.mark.parametrize("args", [
    ["index", "--case", RING4],
    # not cut-exact: HiGHS solves the classes its floor leaves open
    ["index", "--case", "plan35.json"],
    ["risk", "--case", RING4, "--target", "5", "--empirical", "--runs", "20",
     "--mu-points", "4"],
    ["detect", "--case", RING4, "--target", "5", "--empirical", "--runs", "20",
     "--mu-points", "4"],
], ids=["index", "index-milp", "risk-empirical", "detect-empirical"])
def test_two_threads_finish_with_serial_bytes(tmp_path, args):
    # a nested pool.map once deadlocked risk --empirical; the timeout turns
    # a hang into a failure instead of a stuck suite
    (tmp_path / "plan35.json").write_text(json.dumps(plan35_doc()))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        proc = _run_cli([*args, "--out", str(out)], threads, tmp_path)
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == b""
        if args[0] == "index":
            # nothing from scipy or HiGHS either, such as a warning per solve
            assert proc.stderr == b""
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs tens of megabytes and a third of a second to import
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, gridrisk.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "False"
