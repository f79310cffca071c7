"""Command-line surface: index sweeps, detection curves, risk curves.

Every command writes CSV (12 significant digits, LF endings) plus a JSON
manifest that fully determines the run; `gridrisk replay MANIFEST`
reproduces the outputs byte for byte.  Exit codes: 0 success, 1 the
analysis itself failed, 2 bad usage or input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Optional, get_type_hints

from . import __version__
from .attack import perturb_model
from .milp import MilpError
from .network import (
    CaseValidationError,
    UnobservableError,
    build_model,
    load_case_file,
)
from .risk import (
    default_mu_grid,
    format_detect_csv,
    format_risk_csv,
    risk_sweep,
    tuple_attack_variants,
)
from .security import SecurityIndexError, format_index_csv, index_sweep

# Unused here since detect runs through risk_sweep, kept importable
# because perfbench/tracer.py patches these names on this module.
from .attack import scale_attack  # noqa: F401
from .detector import detection_probability, make_bdd_config  # noqa: F401
from .estimator import compute_gains, compute_reduced_gains  # noqa: F401
from .risk import empirical_detection  # noqa: F401


class CliError(Exception):
    """Carries the exit code the error maps to."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command invocation."""

    command: str
    version: str
    case: str
    out: str
    target: Optional[int]
    mu: float
    mu_max: float
    mu_points: int
    alpha: float
    cost_integrity: float
    cost_availability: float
    perturb: float
    seed: int
    runs: int
    empirical: bool


# The JSON values each manifest field type admits, and its name in errors.
# JSON true and false load as bool, a subclass of int, so only a bool
# field admits them.
_MANIFEST_VALUES = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    Optional[int]: ((int, type(None)), "an integer or null"),
}


def _check_manifest_values(doc: dict):
    for name, kind in get_type_hints(RunManifest).items():
        admitted, label = _MANIFEST_VALUES[kind]
        value = doc.get(name)
        if name in doc and (not isinstance(value, admitted)
                            or isinstance(value, bool) != (kind is bool)):
            raise TypeError(f"{name} must be {label}, got {value!r}")


def _manifest_from_args(command: str, args) -> RunManifest:
    values = {f.name: getattr(args, f.name) for f in fields(RunManifest)
              if f.name not in ("command", "version")}
    return RunManifest(command=command, version=__version__, **values)


def _write_text(path: str, text: str):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_manifest(manifest: RunManifest):
    doc = json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    _write_text(manifest.out + ".manifest.json", doc)


def _load(path: str):
    if not os.path.exists(path):
        raise CliError(2, f"case not found: {path}")
    return build_model(load_case_file(path))


def _require_target(args, m: int) -> int:
    if args.target is None:
        raise CliError(2, "this command requires --target")
    if not 1 <= args.target <= m:
        raise CliError(2, f"--target must lie in 1..{m}")
    return args.target


def _check_mu(args):
    if args.mu == 0.0 or not math.isfinite(args.mu):
        raise CliError(2, "--mu must be nonzero and finite")


def _check_sweep_args(args):
    """Reject bad detect/risk values as usage errors (exit 2), before
    any work; replay runs its manifest through the same check."""
    _check_mu(args)
    if args.seed < 0:
        raise CliError(2, "--seed must be nonnegative")
    if args.mu_points < 1:
        raise CliError(2, "--mu-points must be >= 1")
    if not math.isfinite(args.mu_max):
        raise CliError(2, "--mu-max must be finite")
    if not 0.0 < args.alpha < 1.0:
        raise CliError(2, "--alpha must lie strictly between 0 and 1")
    if not 0.0 <= args.perturb < 1.0:
        raise CliError(2, "--perturb must lie in [0, 1)")
    if args.empirical and args.runs < 1:
        raise CliError(2, "--runs must be >= 1 with --empirical")


def cmd_index(args, mapper=None) -> int:
    _check_mu(args)
    for flag, cost in (("--cost-integrity", args.cost_integrity),
                       ("--cost-availability", args.cost_availability)):
        if not (math.isfinite(cost) and cost >= 0):
            raise CliError(2, f"{flag} must be finite and nonnegative")
    model = _load(args.case)
    rows = index_sweep(
        model,
        mu=args.mu,
        cost_integrity=args.cost_integrity,
        cost_availability=args.cost_availability,
        mapper=mapper,
    )
    _write_text(args.out, format_index_csv(rows))
    _write_manifest(_manifest_from_args("index", args))
    return 0


def _sweep(args, mapper) -> list:
    """Curves of the variants on the target's tuple, shared by detect and risk."""
    _check_sweep_args(args)
    model = _load(args.case)
    target = _require_target(args, model.m)
    perturbed = perturb_model(model, args.perturb, args.seed)
    variants = tuple_attack_variants(perturbed, target, mu=args.mu)
    grid = default_mu_grid(args.mu_max, args.mu_points)
    runs = args.runs if args.empirical else 0
    return risk_sweep(model, variants, grid, alpha=args.alpha, runs=runs,
                      seed=args.seed, mapper=mapper)


def cmd_detect(args, mapper=None) -> int:
    _write_text(args.out, format_detect_csv(_sweep(args, mapper)))
    _write_manifest(_manifest_from_args("detect", args))
    return 0


def cmd_risk(args, mapper=None) -> int:
    if args.cost_availability != args.cost_integrity:
        raise CliError(
            2,
            "risk comparison requires equal integrity and availability costs",
        )
    _write_text(args.out, format_risk_csv(_sweep(args, mapper)))
    _write_manifest(_manifest_from_args("risk", args))
    return 0


_COMMANDS = {"index": cmd_index, "detect": cmd_detect, "risk": cmd_risk}


def cmd_replay(args, mapper=None) -> int:
    if not os.path.exists(args.manifest):
        raise CliError(2, f"manifest not found: {args.manifest}")
    try:
        with open(args.manifest) as fh:
            doc = json.load(fh)
        missing = {f.name for f in fields(RunManifest)} - {"version"} - set(doc)
        if missing:
            raise KeyError(", ".join(sorted(missing)))
        _check_manifest_values(doc)
        command = doc.pop("command")
        version = doc.pop("version", "unknown")
        replay_args = argparse.Namespace(**doc)
        handler = _COMMANDS[command]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CliError(2, f"malformed manifest: {exc}") from exc
    if version != __version__:
        print(f"warning: manifest written by gridrisk {version}, replaying "
              f"with {__version__}; output may differ", file=sys.stderr)
    return handler(replay_args, mapper)


def _add_common(sub: argparse.ArgumentParser, cost_availability: float):
    sub.add_argument("--case", required=True, help="path to a grid case JSON file")
    sub.add_argument("--target", type=int, default=None,
                     help="measurement index j (1-based)")
    sub.add_argument("--mu", type=float, default=0.1,
                     help="attack magnitude used to build certificates")
    sub.add_argument("--mu-max", type=float, default=0.5, dest="mu_max")
    sub.add_argument("--mu-points", type=int, default=200, dest="mu_points")
    sub.add_argument("--alpha", type=float, default=0.05,
                     help="false-alarm rate of the residual test")
    sub.add_argument("--cost-integrity", type=float, default=1.0,
                     dest="cost_integrity")
    sub.add_argument("--cost-availability", type=float,
                     default=cost_availability, dest="cost_availability")
    sub.add_argument("--perturb", type=float, default=0.2,
                     help="attacker model error fraction on line weights")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--runs", type=int, default=1000,
                     help="Monte Carlo runs per grid point")
    sub.add_argument("--empirical", action="store_true",
                     help="add Monte Carlo detection columns")
    sub.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrisk",
        description="Security indices, detection probability, and risk of "
                    "combined integrity/availability attacks on DC state "
                    "estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser(
        "index", help="per-measurement security index table"), 0.5)
    _add_common(subs.add_parser(
        "detect", help="detection probability versus attack magnitude"), 0.5)
    _add_common(subs.add_parser(
        "risk", help="risk curves for attack variants on one critical tuple"), 1.0)
    replay = subs.add_parser("replay", help="re-run a recorded manifest")
    replay.add_argument("manifest", help="path to a .manifest.json file")
    return parser


def _thread_count() -> int:
    """GRIDRISK_THREADS, capped at the machine's CPU count."""
    raw = os.environ.get("GRIDRISK_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise CliError(2, f"GRIDRISK_THREADS must be an integer >= 1, got {raw!r}")
    return min(count, os.cpu_count() or 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = cmd_replay if args.command == "replay" else _COMMANDS[args.command]
    try:
        threads = _thread_count()
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return handler(args, pool.map)
        return handler(args, None)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CaseValidationError as exc:
        print(f"error: invalid case: {exc}", file=sys.stderr)
        return 2
    except (UnobservableError, SecurityIndexError, MilpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
