"""Output checks, run outside the timed section.

Each check returns (rows_checked, problems); a problem is one line naming
the row and what is wrong with it.  The references are independent of
gridrisk: the DC matrix from inputs.dc_matrix, rank tests, a minimum-
cardinality MILP formulated here and solved by scipy's HiGHS, and
scipy.stats' chi-squared laws.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys

import numpy as np
from scipy import stats
from scipy.optimize import Bounds, LinearConstraint, milp

from inputs import dc_matrix, rank

INDEX_HEADER = ("j,alpha,beta,gamma_fdi,gamma_combined,k_a,k_d,"
                "integrity_set,availability_set")
RISK_HEADER = "attack_id,mu,k_a,k_d,lambda,delta_theory,delta_empirical,impact,risk"
DETECT_HEADER = "attack_id,mu,k_a,k_d,lambda,delta_theory"
THEORY_ATOL = 1e-9
BIG_M = 1e4


@contextlib.contextmanager
def _quiet_stdout():
    """HiGHS writes solver chatter to fd 1; keep the result line clean."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(os.devnull, "w") as null:
            os.dup2(null.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


def stealthy(h: np.ndarray, support, j0: int) -> bool:
    """A support admits a stealth attack on row j0 iff that row is not in
    the span of the rows outside it."""
    comp = np.setdiff1d(np.arange(h.shape[0]), np.asarray(list(support), dtype=int))
    return rank(np.vstack([h[comp], h[j0][None, :]])) == rank(h[comp]) + 1


def min_cardinality(h: np.ndarray, j0: int) -> int:
    """Fewest rows of a stealth attack on row j0: one binary per row,
    |h_i c| <= M y_i, h_j0 c = 1.  A saturated big-M box is refused."""
    m, n = h.shape
    big = BIG_M * np.eye(m)
    free = np.full(n, np.inf)
    res = milp(
        np.r_[np.zeros(n), np.ones(m)],
        integrality=np.r_[np.zeros(n), np.ones(m)],
        bounds=Bounds(np.r_[-free, np.zeros(m)], np.r_[free, np.ones(m)]),
        constraints=[
            LinearConstraint(np.hstack([h, -big]), -np.inf, 0.0),
            LinearConstraint(np.hstack([-h, -big]), -np.inf, 0.0),
            LinearConstraint(np.r_[h[j0], np.zeros(m)][None, :], 1.0, 1.0),
        ],
    )
    if not res.success:
        raise RuntimeError(f"oracle failed on row {j0 + 1}: {res.message}")
    # Integrality tolerance lets a row with y near 0 carry up to M * 1e-6,
    # so the witness is the y support, re-checked by rank test.
    support = np.flatnonzero(res.x[n:] > 0.5)
    if np.abs(h @ res.x[:n]).max() > 0.99 * BIG_M or len(support) != round(res.fun) \
            or not stealthy(h, support, j0):
        raise RuntimeError(f"oracle witness for row {j0 + 1} did not verify")
    return int(round(res.fun))


def _ids(field: str) -> tuple:
    return tuple(int(v) for v in field.split(";")) if field else ()


def check_index(text: str, case: dict, ci: float = 1.0, ca: float = 0.5):
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != INDEX_HEADER:
        return 1, ["index: header mismatch"]
    h = dc_matrix(case)
    m = h.shape[0]
    if len(lines) - 1 != m:
        problems.append(f"index: {len(lines) - 1} rows for {m} measurements")
    with _quiet_stdout():
        oracle = [min_cardinality(h, j0) for j0 in range(m)]
    for k, line in enumerate(lines[1:]):
        f = line.split(",")
        j, alpha, beta = int(f[0]), int(f[1]), int(f[2])
        g_fdi, g_comb = float(f[3]), float(f[4])
        k_a, k_d = int(f[5]), int(f[6])
        integ, avail = _ids(f[7]), _ids(f[8])
        support = set(integ) | set(avail)
        bad = []
        if j != k + 1:
            bad.append("row order")
        if not 1 <= j <= m:
            problems.append(f"index row {k + 1}: j={j} out of range")
            continue
        if alpha != oracle[j - 1]:
            bad.append(f"alpha {alpha} != oracle {oracle[j - 1]}")
        if beta != alpha:
            bad.append(f"beta {beta} != alpha {alpha}")
        if abs(g_fdi - ci * alpha) > 1e-9:
            bad.append("gamma_fdi != C_I alpha")
        if abs(g_comb - (ci + (beta - 1) * min(ci, ca))) > 1e-9:
            bad.append("gamma_combined != C_I + (beta-1) min(C_I, C_A)")
        if (k_a, k_d) != (len(integ), len(avail)) or k_a + k_d != beta \
                or len(support) != beta or j not in support:
            bad.append("split sizes disagree with the reported sets")
        if ca < ci and integ != (j,):
            bad.append("integrity set is not the target alone")
        if support and not stealthy(h, [i - 1 for i in support], j - 1):
            bad.append("support fails the rank stealth test")
        if bad:
            problems.append(f"index row j={j}: " + "; ".join(bad))
    return max(len(lines) - 1, 1), problems


def check_curves(text: str, case: dict, header: str, mu_max: float,
                 mu_points: int, alpha: float, runs: int = 0):
    """Detection and risk CSVs: theory columns against scipy, lambda
    quadratic and impact linear in mu within a variant, risk =
    (1 - delta) impact, and Monte Carlo alarm counts consistent with
    the theoretical rate."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return 1, [f"{header.split(',')[0]}: header mismatch"]
    cols = header.split(",")
    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    m = len(case["measurements"])
    n = len(case["buses"]) - 1
    problems = []
    ids = list(dict.fromkeys(r["attack_id"] for r in rows))
    if len(rows) != len(ids) * mu_points or not ids:
        problems.append(f"{len(rows)} rows for {len(ids)} variants x {mu_points} points")
    k_d = np.array([int(r["k_d"]) for r in rows])
    mu = np.array([float(r["mu"]) for r in rows])
    lam = np.array([float(r["lambda"]) for r in rows])
    delta = np.array([float(r["delta_theory"]) for r in rows])
    dof = m - n - k_d
    tau = stats.chi2.isf(alpha, dof)
    ref = np.where(lam > 0, stats.ncx2.sf(tau, dof, np.maximum(lam, 1e-300)),
                   stats.chi2.sf(tau, dof))
    first = {}
    for k, r in enumerate(rows):
        bad = []
        pos = k % mu_points
        if abs(mu[k] - mu_max * (pos + 1) / mu_points) > 1e-12:
            bad.append("mu off the grid")
        if abs(delta[k] - ref[k]) > THEORY_ATOL:
            bad.append(f"delta {float(delta[k])!r} vs scipy {float(ref[k])!r}")
        lead = first.setdefault(r["attack_id"], k)
        scale = mu[k] / mu[lead]
        if abs(lam[k] - lam[lead] * scale ** 2) > 1e-8 * max(lam[k], 1e-12):
            bad.append("lambda not quadratic in mu")
        if "impact" in r:
            impact, risk = float(r["impact"]), float(r["risk"])
            if abs(impact - float(rows[lead]["impact"]) * scale) > 1e-8 * max(impact, 1e-12):
                bad.append("impact not linear in mu")
            if abs(risk - (1.0 - delta[k]) * impact) > 1e-9 * max(1.0, impact):
                bad.append("risk != (1 - delta) impact")
        if runs:
            emp = float(r["delta_empirical"])
            alarms = emp * runs
            sd = math.sqrt(max(delta[k] * (1.0 - delta[k]), 1.0 / runs) / runs)
            if abs(alarms - round(alarms)) > 1e-6:
                bad.append("empirical rate is not a whole alarm count")
            elif abs(emp - delta[k]) > 5.0 * sd + 3.0 / runs:
                bad.append(f"empirical {emp} far from theory {delta[k]:.6f}")
        if bad:
            problems.append(f"{r['attack_id']} mu={r['mu']}: " + "; ".join(bad))
    return max(len(rows), 1), problems
