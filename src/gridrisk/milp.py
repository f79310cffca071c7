"""Small mixed-integer linear programs, solved by scipy's HiGHS.

`solve_milp` runs `scipy.optimize.milp` to a zero relative gap with
presolve off, then checks the answer itself: the point must meet every
constraint at HiGHS's own tolerances, and the incumbent must sit within
HiGHS's absolute gap of its dual bound.

A program may carry a cutoff, passed to HiGHS as its `objective_bound`:
HiGHS then prunes every node whose bound reaches it, so the question it
answers is only whether a point below the cutoff exists, which is
cheaper to settle than the optimum.  HiGHS does not always say so in
its status.  With nothing below the bound it may report the program
infeasible, or report an incumbent at or above the bound as optimal,
with a dual bound equal to it: of the 100 fallback index programs of
the `index-plan40` plans of seeds 0-9, with the bound half a row under
their optimum, it called 53 infeasible and answered 47 with a point at
the optimum (30) or a row above it (17).  Either way
`solve_milp` reports status "cutoff", and it never returns a point at
or above the cutoff as an optimum.

scipy.optimize loads on the first solve, not with this module: it takes
about 0.2 s to import, and only bare matrices and plans that are not
cut-exact pose a program, so ieee14 `detect`, `risk` and `index` never
load it.

HiGHS's feasibility-jump primal heuristic (Luteberget & Sartor, Math.
Prog. Comp. 2023) is off.  It runs before the root LP, and on the index
programs, which mostly close within a few branch-and-bound nodes, it took
about half of HiGHS's time: the 26 programs of a 40-row ieee14 plan took
0.48 s with it and 0.25 s without, at the same 40 nodes (one core of a
2-vCPU VM).  A primal heuristic only decides which optimum is found
first, never which one is proven, so optimal values do not change; among
equally good points a different one may be reported.  scipy passes the
option, and a cutoff's `objective_bound`, to HiGHS verbatim and warns
about them on every call.  That one warning is ignored by a filter set
at import (and put back if a reset drops it), since a per-call
`warnings.catch_warnings` is not thread-safe.  For the same reason the
constraints reach scipy as a sparse matrix: converting a dense one,
scipy switches every warning in the process to an error for a moment.

HiGHS prints some MIP diagnostics straight to file descriptor 1, whatever
its logging options say, so solves run with fd 1 on the null device.  The
first solve in flight redirects and the last one restores, so concurrent
solves from several threads leave stdout intact.  Output written to fd 1
by other threads during a solve is discarded with the chatter.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import re
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np
from scipy.sparse import csc_array

# HiGHS defaults of mip_feasibility_tolerance and mip_abs_gap
_FEAS_TOL = 1e-6
_ABS_GAP = 1e-6
# With presolve on, HiGHS 1.12 proved a wrong optimum on a seeded 40-row
# ieee14 plan: 8 where a stealth-verified 7-row support exists.  Feasibility
# jump took about as long per index program as everything after it, and
# cannot help prove the optimum.
_OPTIONS = {"mip_rel_gap": 0.0, "presolve": False,
            "mip_heuristic_run_feasibility_jump": False}
# scipy's warning that it passes the option above, and a cutoff, to HiGHS
# verbatim (message, category, module), and the "ignore" filter for it as
# `warnings.filterwarnings` stores it.  scipy names the options as a set,
# so the two names come in either order.
_OPTION_WARNING = (r"Unrecognized options detected: \{("
                   r"'mip_heuristic_run_feasibility_jump'(, 'objective_bound')?"
                   r"|'objective_bound', 'mip_heuristic_run_feasibility_jump')\}",
                   RuntimeWarning, re.escape(__name__) + r"\Z")
_OPTION_WARNING_FILTER = ("ignore", re.compile(_OPTION_WARNING[0], re.I), RuntimeWarning,
                          re.compile(_OPTION_WARNING[2]), 0)
_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


class MilpError(Exception):
    """Raised for malformed problems, solver failures, and answers that
    fail the feasibility or gap check."""


@dataclass
class MilpProblem:
    """min objective @ x  s.t.  a_ub @ x <= b_ub, a_eq @ x = b_eq,
    lb <= x <= ub, x[binary] in {0, 1}.

    With a cutoff, only points whose objective is below it are sought
    (see the module docstring).  HiGHS takes no per-node callbacks, so
    node_hook is not a field: it is always None, kept as a class
    attribute because `perfbench/tracer.py` reads it.
    """

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    binary: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    cutoff: Optional[float] = None
    node_hook: ClassVar[None] = None


@dataclass
class MilpSolution:
    """Solver outcome.  x has its binaries rounded to exactly 0 or 1 and
    objective is evaluated there.  node_count is HiGHS's branch-and-bound
    node count; HiGHS reports no LP solve or simplex pivot count for a MIP
    through scipy, so lp_count and simplex_iterations are always 0."""

    status: str  # optimal | infeasible | unbounded | cutoff
    objective: Optional[float]
    x: Optional[np.ndarray]
    node_count: int
    lp_count: int
    simplex_iterations: int


def _as_matrix(a, ncols):
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((0, ncols))
    if a.ndim != 2 or a.shape[1] != ncols:
        raise MilpError(f"constraint matrix must have {ncols} columns")
    return a


def _ignore_option_warning():
    # Run at import and before each solve.  The filter list changes only
    # when a reset, such as the end of a catch_warnings block, dropped the
    # filter, so concurrent solves do not rewrite it.
    if _OPTION_WARNING_FILTER not in warnings.filters:
        warnings.filterwarnings("ignore", *_OPTION_WARNING)


_ignore_option_warning()

try:
    _c_fflush = ctypes.CDLL(None).fflush
except (AttributeError, OSError, TypeError):  # no C runtime to flush
    _c_fflush = None
_fd_lock = threading.Lock()
_fd_users = 0
_fd_saved = -1


def _flush_stdout():
    # Python's and C's buffers both go out before fd 1 moves, so nothing
    # written before a solve is lost and no chatter lands after it.
    if sys.stdout is not None:
        sys.stdout.flush()
    if _c_fflush is not None:
        _c_fflush(None)


@contextlib.contextmanager
def _quiet_fd1():
    global _fd_users, _fd_saved
    with _fd_lock:
        if _fd_users == 0:
            _flush_stdout()
            _fd_saved = os.dup(1)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.close(null)
        _fd_users += 1
    try:
        yield
    finally:
        with _fd_lock:
            _fd_users -= 1
            if _fd_users == 0:
                _flush_stdout()
                os.dup2(_fd_saved, 1)
                os.close(_fd_saved)


def solve_milp(problem: MilpProblem) -> MilpSolution:
    """Solve the program to optimality with HiGHS.

    Returns the optimum, or status infeasible/unbounded; with a cutoff,
    an optimum below it or status cutoff, which stands for every outcome
    that finds no point below it, infeasibility included.  Raises
    MilpError for malformed input, any other HiGHS outcome, or an
    optimum that fails the feasibility or gap check.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp  # see the module docstring

    c = np.asarray(problem.objective, dtype=float)
    binary = np.asarray(problem.binary, dtype=bool)
    a_ub, a_eq = _as_matrix(problem.a_ub, c.size), _as_matrix(problem.a_eq, c.size)
    b_ub = np.asarray(problem.b_ub, dtype=float).reshape(-1)
    b_eq = np.asarray(problem.b_eq, dtype=float).reshape(-1)
    lb = np.asarray(problem.lb, dtype=float)
    ub = np.asarray(problem.ub, dtype=float)
    if np.any(lb[binary] < -1e-12) or np.any(ub[binary] > 1.0 + 1e-12):
        raise MilpError("binary variables must have bounds within [0, 1]")

    # sparse, so no other thread's option warning is raised as an error
    constraints = LinearConstraint(csc_array(np.vstack([a_ub, a_eq])),
                                   np.r_[np.full(b_ub.size, -np.inf), b_eq],
                                   np.r_[b_ub, b_eq])
    options = (_OPTIONS if problem.cutoff is None
               else dict(_OPTIONS, objective_bound=float(problem.cutoff)))
    _ignore_option_warning()
    with _quiet_fd1():
        res = milp(c, integrality=binary, bounds=Bounds(lb, ub),
                   constraints=constraints, options=options)
    nodes = int(res.mip_node_count or 0)
    status = _STATUS.get(res.status)
    if status is None:
        raise MilpError(f"HiGHS failed: {res.message}")
    if problem.cutoff is not None and (status == "infeasible" or (
            status == "optimal" and res.fun >= problem.cutoff)):
        status = "cutoff"
    if status != "optimal":
        return MilpSolution(status, None, None, nodes, 0, 0)

    x = np.asarray(res.x, dtype=float)
    violation = max(
        np.max(lb - x, initial=0.0), np.max(x - ub, initial=0.0),
        np.max(np.abs(x[binary] - np.round(x[binary])), initial=0.0),
        np.max(a_ub @ x - b_ub, initial=0.0),
        np.max(np.abs(a_eq @ x - b_eq), initial=0.0),
    )
    scale = max(1.0, np.max(np.abs(b_ub), initial=0.0), np.max(np.abs(b_eq), initial=0.0))
    if violation > _FEAS_TOL * scale:
        raise MilpError("optimum failed re-substitution into the constraints")
    if res.fun - res.mip_dual_bound > _ABS_GAP:
        raise MilpError(f"optimum {res.fun} not closed by dual bound {res.mip_dual_bound}")
    x[binary] = np.round(x[binary])
    return MilpSolution("optimal", float(c @ x), x, nodes, 0, 0)
