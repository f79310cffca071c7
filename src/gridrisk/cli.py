"""Command-line surface: index sweeps, detection curves, risk curves.

Each command takes only the flags it reads.  It writes CSV (12
significant digits, LF endings) plus a JSON manifest of its command,
version and flags, which fully determines the run; `gridrisk replay
MANIFEST` reproduces the outputs byte for byte.  Exit codes: 0 success,
1 the analysis itself failed, 2 bad usage or input, including a case,
manifest or output file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

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


# Every flag a command may take, by its manifest field: the field's type,
# the default (None where the flag is required or may stay unset) and
# help.  A str flag without a default is required.
_FLAGS = {
    "case": (str, None, "path to a grid case JSON file"),
    "target": (Optional[int], None, "measurement index j (1-based)"),
    "mu_max": (float, 0.5, "largest attack magnitude of the sweep"),
    "mu_points": (int, 200, "number of magnitudes in (0, mu_max]"),
    "alpha": (float, 0.05, "false-alarm rate of the residual test"),
    "cost_integrity": (float, 1.0, "cost of corrupting one measurement"),
    "cost_availability": (float, 0.5, "cost of withdrawing one measurement"),
    "perturb": (float, 0.2, "attacker model error fraction on line weights"),
    "seed": (int, 0, "attacker model and Monte Carlo seed"),
    "runs": (int, 1000, "Monte Carlo runs per grid point"),
    "empirical": (bool, False, "add Monte Carlo detection columns"),
    "out": (str, None, "output CSV path"),
}

# The JSON values each field type admits in a manifest, and its name in
# errors.  JSON true and false load as bool, a subclass of int, so only a
# bool field admits them.
_MANIFEST_VALUES = {
    str: ((str,), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    Optional[int]: ((int, type(None)), "an integer or null"),
}


def _check_manifest_values(doc: dict, kinds: dict):
    for name, kind in kinds.items():
        admitted, label = _MANIFEST_VALUES[kind]
        value = doc.get(name)
        if name in doc and (not isinstance(value, admitted)
                            or isinstance(value, bool) != (kind is bool)):
            raise TypeError(f"{name} must be {label}, got {value!r}")


def _reason(exc: Exception) -> str:
    """An OSError's strerror, or the whole message of any other error."""
    return getattr(exc, "strerror", None) or str(exc)


def _write_text(path: str, text: str):
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(2, f"cannot write {path}: {_reason(exc)}") from exc


def _check_out(args):
    """Reject an --out that cannot be written before any work is done."""
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise CliError(2, f"output directory not found: {folder}")
    if os.path.isdir(args.out):
        raise CliError(2, f"--out is a directory: {args.out}")


def _load(path: str):
    if not os.path.exists(path):
        raise CliError(2, f"case not found: {path}")
    try:
        case = load_case_file(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read case {path}: {_reason(exc)}") from exc
    return build_model(case)


def _require_target(args, m: int) -> int:
    if args.target is None:
        raise CliError(2, "this command requires --target")
    if not 1 <= args.target <= m:
        raise CliError(2, f"--target must lie in 1..{m}")
    return args.target


def _check_sweep_args(args):
    """Reject bad detect/risk values as usage errors (exit 2), before
    any work; replay runs its manifest through the same check."""
    if args.seed < 0:
        raise CliError(2, "--seed must be nonnegative")
    if args.mu_points < 1:
        raise CliError(2, "--mu-points must be >= 1")
    if not 0.0 <= args.mu_max < math.inf:
        raise CliError(2, "--mu-max must be finite and nonnegative")
    if not 0.0 < args.alpha < 1.0:
        raise CliError(2, "--alpha must lie strictly between 0 and 1")
    if not 0.0 <= args.perturb < 1.0:
        raise CliError(2, "--perturb must lie in [0, 1)")
    if args.empirical and args.runs < 1:
        raise CliError(2, "--runs must be >= 1 with --empirical")


def _index_csv(args, mapper) -> str:
    for flag, cost in (("--cost-integrity", args.cost_integrity),
                       ("--cost-availability", args.cost_availability)):
        if not (math.isfinite(cost) and cost >= 0):
            raise CliError(2, f"{flag} must be finite and nonnegative")
    _check_out(args)
    model = _load(args.case)
    rows = index_sweep(
        model,
        cost_integrity=args.cost_integrity,
        cost_availability=args.cost_availability,
        mapper=mapper,
    )
    return format_index_csv(rows)


def _sweep(args, mapper) -> list:
    """Curves of the variants on the target's tuple, shared by detect and risk."""
    _check_sweep_args(args)
    _check_out(args)
    model = _load(args.case)
    target = _require_target(args, model.m)
    perturbed = perturb_model(model, args.perturb, args.seed)
    variants = tuple_attack_variants(perturbed, target)
    grid = default_mu_grid(args.mu_max, args.mu_points)
    runs = args.runs if args.empirical else 0
    try:
        return risk_sweep(model, variants, grid, alpha=args.alpha, runs=runs,
                          seed=args.seed, mapper=mapper)
    except ValueError as exc:
        # a grid on which some column of the sweep leaves the float range
        raise CliError(2, f"{exc}; lower --mu-max") from exc


def _detect_csv(args, mapper) -> str:
    return format_detect_csv(_sweep(args, mapper))


def _risk_csv(args, mapper) -> str:
    return format_risk_csv(_sweep(args, mapper))


_SWEEP_FLAGS = ("case", "target", "mu_max", "mu_points", "alpha", "perturb",
                "seed", "runs", "empirical", "out")

# Each command's CSV, help, and the flags it reads: its parser takes
# those flags alone, and its manifest records them alone.
_COMMANDS = {
    "index": (_index_csv, "per-measurement security index table",
              ("case", "cost_integrity", "cost_availability", "out")),
    "detect": (_detect_csv, "detection probability versus attack magnitude",
               _SWEEP_FLAGS),
    "risk": (_risk_csv, "risk curves for attack variants on one critical tuple",
             _SWEEP_FLAGS),
}


def _run(args, mapper=None) -> int:
    """Write the CSV of args.command, then its manifest."""
    csv, _, flags = _COMMANDS[args.command]
    _write_text(args.out, csv(args, mapper))
    manifest = {"command": args.command, "version": __version__,
                **{name: getattr(args, name) for name in flags}}
    _write_text(args.out + ".manifest.json",
                json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


def _replay(args, mapper=None) -> int:
    """Run a manifest's command with the flags it records; keys the
    command does not read, such as those of older versions, are ignored."""
    if not os.path.exists(args.manifest):
        raise CliError(2, f"manifest not found: {args.manifest}")
    try:
        with open(args.manifest) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read manifest {args.manifest}: {_reason(exc)}") from exc
    try:
        doc = json.loads(text)
        command = doc["command"]
        if not isinstance(command, str) or command not in _COMMANDS:
            raise ValueError(f"command must be one of {', '.join(_COMMANDS)}, "
                             f"got {command!r}")
        flags = _COMMANDS[command][2]
        missing = set(flags) - set(doc)
        if missing:
            raise KeyError(", ".join(sorted(missing)))
        _check_manifest_values(doc, {"version": str,
                                     **{name: _FLAGS[name][0] for name in flags}})
        version = doc.get("version", "unknown")
        replay_args = argparse.Namespace(command=command,
                                         **{name: doc[name] for name in flags})
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(2, f"malformed manifest: {exc}") from exc
    if version != __version__:
        print(f"warning: manifest written by gridrisk {version}, replaying "
              f"with {__version__}; output may differ", file=sys.stderr)
    return _run(replay_args, mapper)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrisk",
        description="Security indices, detection probability, and risk of "
                    "combined integrity/availability attacks on DC state "
                    "estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=text)
        for name in flags:
            kind, default, help_text = _FLAGS[name]
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_true", help=help_text)
            else:
                # ==, not is: typing's bounded cache may rebuild Optional[int]
                sub.add_argument(flag, type=int if kind == Optional[int] else kind,
                                 default=default, required=kind is str,
                                 help=help_text)
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
    handler = _replay if args.command == "replay" else _run
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
