"""End-to-end checks of the gridrisk command line."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import gridrisk
from gridrisk.cli import main
from gridrisk.network import build_model, load_bundled_case
from gridrisk.security import format_index_csv, index_sweep

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
    expected = format_index_csv(index_sweep(model, mu=0.1,
                                            cost_integrity=1.0,
                                            cost_availability=0.5))
    assert _read(out) == expected

    manifest = json.loads(_read(tmp_path / "index.csv.manifest.json"))
    assert manifest["command"] == "index"
    assert manifest["case"] == CHAIN3
    assert manifest["out"] == str(out)
    assert manifest["mu"] == 0.1
    assert manifest["cost_availability"] == 0.5
    assert manifest["empirical"] is False


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


def test_risk_requires_equal_costs(tmp_path, capsys):
    rc = main(["risk", "--case", CHAIN3, "--target", "1",
               "--cost-availability", "0.5", "--out", str(tmp_path / "r.csv")])
    assert rc == 2
    assert "equal" in capsys.readouterr().err


def test_missing_case_file(tmp_path, capsys):
    rc = main(["index", "--case", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "case not found" in capsys.readouterr().err


def test_detect_requires_target(tmp_path, capsys):
    rc = main(["detect", "--case", CHAIN3, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
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
    (["--mu", "0"], "--mu"),
    (["--mu", "inf"], "--mu"),
])
def test_bad_sweep_values_exit_2(tmp_path, capsys, command, bad, flag):
    out = tmp_path / "o.csv"
    rc = main([command, "--case", CHAIN3, "--target", "1", *bad, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mu", ["0", "inf", "-inf", "nan"])
def test_index_bad_mu_exits_2(tmp_path, capsys, mu):
    out = tmp_path / "o.csv"
    rc = main(["index", "--case", CHAIN3, f"--mu={mu}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--mu" in err and err.count("\n") == 1
    assert not out.exists()


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


def test_negative_costs_rejected(tmp_path):
    rc = main(["index", "--case", CHAIN3, "--cost-integrity", "-1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_bad_thread_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GRIDRISK_THREADS", "lots")
    rc = main(["index", "--case", CHAIN3, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "GRIDRISK_THREADS" in capsys.readouterr().err


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
    ["risk", "--case", RING4, "--target", "5", "--empirical", "--runs", "20",
     "--mu-points", "4"],
    ["detect", "--case", RING4, "--target", "5", "--empirical", "--runs", "20",
     "--mu-points", "4"],
], ids=["index", "risk-empirical", "detect-empirical"])
def test_two_threads_finish_with_serial_bytes(tmp_path, args):
    # a nested pool.map once deadlocked risk --empirical; the timeout turns
    # a hang into a failure instead of a stuck suite
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
