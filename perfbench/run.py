"""gridrisk benchmark: one workload, one seed, one run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each was chosen):

    index-plan40  `gridrisk index` on a seeded 40-measurement ieee14 plan
    risk-mc       `gridrisk risk --empirical --runs 1000 --mu-points 80` on ieee14, target 9
    detect-fine   `gridrisk detect` on ieee14, target 9, 12000 magnitudes

The program runs from ./src in a separate worker process with one
thread everywhere (GRIDRISK_THREADS=1, BLAS/OpenMP threads 1).  Times
are reported at a reference host speed (see hostspeed.py); the raw times
are printed beside them.  Outputs are checked after the timed section
against independent references.
The last stdout line is the JSON result; the lines before it print every
metric by name and unit, and the provenance of the run.  Exit code 0
when every check passed, 1 when a check failed, 2 when the checkout
holds no gridrisk sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import DETECT_HEADER, RISK_HEADER, check_curves, check_index
from inputs import IEEE14, index_case, load_case

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170     # whole run, below the 180 s a run may take
CHECK_RESERVE_S = 25  # kept back from the worker for the output checks
OP_GUARD_S = 60      # one CLI command; branch and bound has no time limit
SETUP_PROBES = 5     # timed fresh-interpreter set-ups, after one warm-up
RUNS = 1000
MU_MAX = 0.5
ALPHA = 0.05

WORKLOADS = {
    # An index sweep fills the support-enumeration cache on its first run,
    # so that workload runs one untimed operation first.  The first risk
    # and detect commands measured -3.3% to +2.8% off later ones, with no
    # consistent sign, and a warm-up would cost a whole operation per run.
    "index-plan40": {
        "argv": ["index", "--case", "{case}", "--out", "{out}"],
        "warmup": True,
        "rate": "rows_per_s",
    },
    "risk-mc": {
        "argv": ["risk", "--case", IEEE14, "--target", "9", "--empirical",
                 "--runs", str(RUNS), "--mu-points", "80", "--seed", "{seed}",
                 "--out", "{out}"],
        "rate": "mc_tests_per_s",
        "mu_points": 80,
    },
    "detect-fine": {
        "argv": ["detect", "--case", IEEE14, "--target", "9",
                 "--mu-points", "12000", "--seed", "{seed}", "--out", "{out}"],
        "rate": "points_per_s",
        "mu_points": 12000,
    },
}

# Set before the worker imports numpy, so one run uses one core.
PINNED_ENV = {
    "GRIDRISK_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def provenance(versions: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gridrisk").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(), **versions}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_setup(case_path: Path, env: dict):
    """Median wall time of fresh interpreters running setup_probe.py, at
    the reference host speed and raw: (normalised, raw), or None."""
    norm, raw = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        try:
            res = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"),
                                  str(case_path)], env=env, cwd=ROOT, timeout=60,
                                 stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            return None
        elapsed = time.perf_counter() - start
        if res.returncode != 0:
            return None
        if k:  # the first probe fills the bytecode and file caches
            spent, factor = json.loads(res.stdout.splitlines()[-1])
            raw.append(elapsed - spent)
            norm.append((elapsed - spent) / factor)
    return statistics.median(norm), statistics.median(raw)


def run_worker(spec: dict, env: dict, timeout: float):
    spec_path = Path(spec["out_dir"]) / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    try:
        res = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                             env=env, cwd=ROOT, timeout=timeout, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded the {timeout:.0f} s run guard"
    if res.returncode != 0:
        return None, f"worker exited {res.returncode}"
    return json.loads(Path(spec["report"]).read_text()), None


def check_output(workload: str, text: str, case: dict):
    if workload == "index-plan40":
        return check_index(text, case)
    cfg = WORKLOADS[workload]
    if workload == "risk-mc":
        return check_curves(text, case, RISK_HEADER, MU_MAX, cfg["mu_points"],
                            ALPHA, runs=RUNS)
    return check_curves(text, case, DETECT_HEADER, MU_MAX, cfg["mu_points"], ALPHA)


def work_items(workload: str, text: str) -> int:
    rows = text.count("\n") - 1
    # a Monte Carlo run is one noise draw plus one residual test
    return 2 * RUNS * rows if workload == "risk-mc" else rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "gridrisk" / "__init__.py").is_file() \
            or not (ROOT / IEEE14).is_file():
        print(f"error: no gridrisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    base = load_case(ROOT / IEEE14)
    if args.workload == "index-plan40":
        case, plan = index_case(base, args.seed)
        case_path = out_dir / "case.json"
        case_path.write_text(json.dumps(case, indent=1))
    else:
        case, plan = base, {"case": IEEE14, "m": len(base["measurements"])}
        case_path = ROOT / IEEE14

    env = child_env()
    attempted, problems = 0, []
    setup = None
    if not args.trace:
        setup = time_setup(case_path, env)
        attempted += 1
        if setup is None:
            problems.append("set-up probe failed")

    def fill(argv):
        return [a.replace("{case}", str(case_path)).replace("{seed}", str(args.seed))
                for a in argv]

    spec = {"argv": fill(WORKLOADS[args.workload]["argv"]),
            "warmup": WORKLOADS[args.workload].get("warmup", False),
            "seconds": args.seconds, "trace": args.trace,
            "guard_s": OP_GUARD_S, "src": str(ROOT / "src"),
            "out_dir": str(out_dir), "report": str(out_dir / "worker.json")}
    budget = DEADLINE_S - CHECK_RESERVE_S - (time.monotonic() - started)
    report, err = run_worker(spec, env, budget)
    if err:
        attempted += 1
        problems.append(err)
        report = {"ops": [], "warmup": [], "layers": [], "versions": {}}

    for status in report["warmup"]:
        attempted += 1
        if status != "ok":
            problems.append(f"warm-up: {status}")
    ops = report["ops"]
    first = None
    for k, o in enumerate(ops):
        attempted += 1
        if o["status"] != "ok":
            problems.append(f"op {k}: {o['status']}")
            continue
        data = Path(o["csv"]).read_bytes()
        if first is None:
            first = data
        elif data != first:
            problems.append(f"op {k}: output bytes differ from op 0")
    items = 0
    if first is not None:
        text = first.decode()
        try:
            rows, found = check_output(args.workload, text, case)
        except Exception as exc:  # a broken reference must not end the run silently
            rows, found = 1, [f"output check raised {exc!r}"]
        attempted += rows
        problems += found
        items = work_items(args.workload, text)
    layers = report["layers"]
    if len(layers) == 2:
        counts = [n for n in layers[0]
                  if n.endswith((".calls", ".solves", ".nodes", ".lp_solves",
                                 ".simplex_iters", ".index_programs", ".bytes_out"))]
        attempted += len(counts)
        problems += [f"trace: {n} differs between runs ({layers[0][n]} vs {layers[1][n]})"
                     for n in counts if layers[0][n] != layers[1][n]]
    elif args.trace:
        attempted += 1
        problems.append("trace: traced runs missing")
    for path in out_dir.glob("op[1-9]*"):
        path.unlink()

    ok_ops = [o for o in ops if o["status"] == "ok" and not o["traced"]]
    values = {}
    if args.trace and len(layers) == 2:
        for name in layers[0]:
            pair = (layers[0][name], layers[1][name])
            values[name] = pair[0] if name in counts else statistics.mean(pair)
        base_s = ops[1]["s"]
        values["trace.overhead_frac"] = values["op.wall_s"] / base_s - 1.0
    elif ok_ops:
        wall = statistics.median(o["norm_s"] for o in ok_ops)
        values = {"wall_s": wall, "peak_rss_mb": report["peak_rss_mb"],
                  "rate": items / wall,
                  "raw wall_s": statistics.median(o["s"] for o in ok_ops)}
    if setup is not None:
        values["setup_s"], values["raw setup_s"] = setup

    metrics, missing = {}, []
    for m in wanted:
        if m["name"] not in values:
            missing.append(m["name"])
            continue
        v = values[m["name"]]
        metrics[m["name"]] = {"value": int(round(v)) if m["unit"] == "count" else v,
                              "unit": m["unit"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {attempted} checked, {len(problems)} failed")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    if missing:
        print("  not measured: " + " ".join(missing))
    if ok_ops and not args.trace:
        print("  op seconds (raw/speed factor): "
              + " ".join(f"{o['s']:.3f}/{o['speed']:.3f}" for o in ok_ops))
        print(f"  {WORKLOADS[args.workload]['rate']:<28} {values['rate']:.6g} 1/s")
        for name in ("raw wall_s", "raw setup_s"):
            if name in values:
                print(f"  {name:<28} {values[name]:.6g} s")
    print(f"  {'failed_frac':<28} {len(problems) / attempted:.6g} frac")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(dict(provenance(report["versions"]), plan=plan,
                                          workload=args.workload, seed=args.seed)))
    correct = not problems and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(problems), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
