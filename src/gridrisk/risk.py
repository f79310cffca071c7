"""Operational risk of combined attacks: impact on load estimates,
empirical detection rates, and magnitude sweeps.

Risk weighs what an attack does to the injection estimates against how
likely the operator is to notice it: R = (1 - delta) * impact.  Attacks
are compared only within families that share one critical tuple and one
resource cost, where the attack likelihood can be normalized away.
Every attack is evaluated under the gains of its own availability mask;
a pure FDI attack has the empty mask.  Each attack is evaluated once,
by `detector.detection_probability`: its snapped weighted residual,
lambda0 (that residual's squared norm) and the threshold tau come from
there, and a mask that leaves the residual test no degrees of freedom is
refused there.  The Monte Carlo shifts its runs by that same residual
and counts each run from two numbers against the gains' basis Q.
`impact_metric` returns the impact as a float, so a variant's sweep
rests on two numbers, lambda0 and impact0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .attack import AttackVector, _check_count
from .attack import build_limited_knowledge_attack
from . import chi2
from .detector import detection_probability
from .estimator import compute_reduced_gains
from .network import GridModel, UnobservableError
from .security import IndexQuery, combined_index

# Unused here since the Monte Carlo below counts whole blocks from the
# gains' basis Q, without rescaled attacks or per-run tests, and every
# attack's gains come from its own mask;
# kept importable because perfbench/tracer.py patches these names.
from .attack import scale_attack  # noqa: F401
from .detector import j_test, make_bdd_config  # noqa: F401
from .estimator import compute_gains  # noqa: F401
from .network import synthesize_measurements  # noqa: F401

# z for a two-sided 95% interval
_Z95 = 1.959963984540054
# Monte Carlo runs drawn and tested together: memory stays O(block * m)
# for any run count, and the default 1000 runs are a single block.
MC_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class RiskCurve:
    """One attack variant over the magnitude grid, one array per column
    (k_d, the withdrawn count, is the same at every magnitude).

    alarms holds each point's Monte Carlo alarm count out of runs, or is
    None when no runs were requested.
    """

    attack_id: str
    mu: np.ndarray
    k_a: np.ndarray
    k_d: int
    lam: np.ndarray
    delta: np.ndarray
    impact: np.ndarray
    risk: np.ndarray
    runs: int = 0
    alarms: Optional[np.ndarray] = None

    @property
    def delta_empirical(self) -> Optional[np.ndarray]:
        return None if self.alarms is None else self.alarms / self.runs


@dataclass(frozen=True)
class MonteCarloReport:
    runs: int
    alarms: int
    empirical_delta: float
    ci_low: float
    ci_high: float
    seed: tuple


def impact_metric(model: GridModel, gains, attack: AttackVector) -> float:
    """Impact: the 2-norm of the expected bias H_inj K_d a the attack
    leaves on the injection estimates, H_inj being the true model's
    injection rows.

    The injection rows of the true model matter even when some of them
    are withdrawn: the operator still publishes estimates for them.
    Raises ValueError when the gains belong to another availability mask.
    """
    if not np.array_equal(gains.d, attack.d):
        raise ValueError("gains were computed for a different availability mask")
    return float(np.linalg.norm(model.H[model.injection_rows()] @ (gains.K @ attack.a)))


def _wilson_interval(alarms: int, runs: int) -> tuple:
    phat = alarms / runs
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / runs
    center = (phat + z2 / (2.0 * runs)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / runs + z2 / (4.0 * runs * runs))
    half /= denom
    return max(0.0, center - half), min(1.0, center + half)


def _count_alarms(gains, shift: np.ndarray, scales, seed, tau: float,
                  runs: int) -> list:
    """Alarm count at each scale s of scales: the runs out of `runs` whose
    weighted residual b + s * shift has squared norm above tau, b being
    the weighted residual of the run's noise e diag(sigma), e its m
    unscaled standard normals, and shift an attack's residual under the
    same gains (`detector.detection_probability(...).residual`).

    Every scale is tested on the same runs: run i is the i-th row of m
    normals drawn from default_rng(seed), in blocks of up to MC_BLOCK
    runs.  b is the projection of e (1 - d) off the columns of the gains'
    basis Q, and shift lies in the space b lies in, so a run's squared
    norm is a quadratic in s, ||b + s shift||^2 = q + s (2p + s lam), with
    q = ||e (1 - d)||^2 - ||e Q||^2, p = e.shift (shift is zero on the
    withdrawn rows) and lam = shift.shift.  So a block costs one product
    with Q and three dots, b is never formed, each scale is counted from
    q and p alone, and memory stays O(MC_BLOCK * m).  The counts do not
    depend on MC_BLOCK.
    """
    rng = np.random.default_rng(seed)
    lam = float(shift @ shift)
    keep = 1.0 - gains.d
    counts = np.zeros(len(scales), dtype=np.int64)
    for start in range(0, runs, MC_BLOCK):
        e = rng.standard_normal((min(runs - start, MC_BLOCK), gains.m))
        eq = e @ gains.Q
        q = (e * e) @ keep - np.einsum("ij,ij->i", eq, eq)
        two_p = 2.0 * (e @ shift)
        counts += [np.count_nonzero(q + s * (two_p + s * lam) > tau) for s in scales]
    return counts.tolist()


def empirical_detection(
    model: GridModel,
    attack: AttackVector,
    alpha: float,
    runs: int,
    seed,
) -> MonteCarloReport:
    """Alarm rate of the residual test at false-alarm rate alpha over
    seeded Monte Carlo noise draws.

    One stream, np.random.default_rng(seed), feeds all runs: run i is the
    i-th row of m normals drawn from it, so the report does not depend
    on how the runs are grouped.  The statistic's distribution does not
    depend on the operating state, so runs test noise plus the attack
    around the zero state.  The noise is drawn unscaled, since sigma
    cancels in the weighted residual of e diag(sigma).  The attack's
    `detector.detection_probability` gives the threshold tau for the
    gains' degrees of freedom and the fixed shift, the residual whose
    squared norm is lambda; the attack is _count_alarms's shift at the
    single scale 1, so the alarm count is Binomial(runs, delta) and
    equals risk_sweep's count at this attack's magnitude when seed is
    (sweep seed, variant index).
    The gains are those of the attack's availability mask, the empty
    mask for a pure FDI attack.  Raises ValueError unless runs is an
    integer >= 1, seed an integer >= 0 or a tuple of them, and alpha
    lies strictly between 0 and 1, and UnobservableError (a ValueError)
    when the mask leaves the residual test no degrees of freedom.
    """
    _check_count("runs", runs, 1)
    seeds = seed if isinstance(seed, tuple) else (seed,)
    for s in seeds:
        _check_count("seed", s, 0)
    base = tuple(map(int, seeds))
    gains = compute_reduced_gains(model, attack.d)
    det = detection_probability(gains, attack.a, alpha)
    (alarms,) = _count_alarms(gains, det.residual, [1.0], base, det.tau, runs)
    low, high = _wilson_interval(alarms, runs)
    return MonteCarloReport(
        runs=runs,
        alarms=alarms,
        empirical_delta=alarms / runs,
        ci_low=low,
        ci_high=high,
        seed=base,
    )


def _tuple_rows(attack: AttackVector) -> tuple:
    rows = set(np.flatnonzero(attack.a) + 1) | set(np.flatnonzero(attack.d) + 1)
    return tuple(sorted(rows))


def risk_sweep(
    model: GridModel,
    base_attacks: Sequence[tuple],
    mu_grid,
    alpha: float,
    runs: int = 0,
    seed: int = 0,
) -> list:
    """Detection and risk curves over an attack-magnitude grid.

    base_attacks are (attack_id, AttackVector) pairs.  All attacks must
    act on the same critical tuple with the same resource count k_a+k_d;
    within such a family the attack likelihood is normalized to one and
    risk reduces to (1-delta)*impact.

    A rescaled attack is mu/mu0 times the base one, so each variant is
    evaluated once, by `detector.detection_probability`, its impact is
    computed once, and the grid follows in closed form: lambda =
    (mu/mu0)^2 lambda0, impact = |mu/mu0| impact0, and one vectorised
    noncentral CDF gives delta.  At mu = 0 nothing is corrupted, so k_a
    is 0 there.

    runs > 0 adds a Monte Carlo alarm count per point.  Each variant
    draws its runs from one stream seeded by (seed, attack index), and
    every point of the variant is tested on those same runs (common
    random numbers): the weighted residual of each run's noise plus the
    point's shift (mu/mu0) r0, so no rescaled attack is built.  r0 is the
    residual detection_probability returns with lambda0 = r0 @ r0,
    rounding residue snapped to zero, so the printed lambda and the Monte
    Carlo shift are one vector by construction, and an exactly stealthy
    variant stays at the false-alarm rate at every magnitude.  The points
    of a curve are therefore correlated, while each point's count is
    still Binomial(runs, delta(mu)) and equals empirical_detection's
    count for the rescaled attack with seed (seed, attack index).
    _count_alarms draws each block of runs once and counts every point
    from two numbers per run, so the counts do not depend on the block
    size.

    Past lambda ~ 1e19 delta is 1 and risk 0 (`chi2.noncentral_cdf`).
    Raises ValueError when runs or seed is not an integer >= 0, when
    mu_grid is not 1-D with at least one magnitude, or when a
    magnitude, lambda or impact is not finite: (mu/mu0)^2 lambda0 and
    |mu/mu0| impact0 may overflow, though lambda0 = 0 gives lambda 0 at
    every finite magnitude.  Raises detection_probability's
    UnobservableError, with the variant's id in front, when a variant's
    kept rows leave the residual test no degrees of freedom.
    """
    if not base_attacks:
        raise ValueError("no attacks to sweep")
    _check_count("runs", runs, 0)
    _check_count("seed", seed, 0)
    mu = np.array(mu_grid, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("mu_grid must be 1-D with at least one magnitude")
    if not np.all(np.isfinite(mu)):
        raise ValueError("attack magnitudes must be finite")
    tuples = {_tuple_rows(atk) for _, atk in base_attacks}
    budgets = {atk.k_a + atk.k_d for _, atk in base_attacks}
    if len(tuples) != 1 or len(budgets) != 1:
        raise ValueError(
            "mixed-index attack list rejected: attacks must share one "
            "critical tuple and one resource count"
        )
    curves = []
    for ai, (attack_id, attack) in enumerate(base_attacks):
        if not attack.mu:
            raise ValueError("attack has no nonzero magnitude to scale from")
        gains = compute_reduced_gains(model, attack.d)
        try:
            det = detection_probability(gains, attack.a, alpha)
        except UnobservableError as exc:
            raise UnobservableError(f"{attack_id}: {exc}") from exc
        # past the float range these products are inf or nan: rejected
        # below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            scale = mu / attack.mu
            lam = scale * scale * det.lam if det.lam else np.zeros_like(mu)
            impact = np.abs(scale) * impact_metric(model, gains, attack)
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(impact))):
            raise ValueError(f"lambda or impact of {attack_id} is not finite "
                             "on this magnitude grid")
        # 1 - delta straight from the CDF keeps risk accurate where delta
        # rounds to 1.
        # Looked up on chi2 at call time, so perfbench/tracer.py counts it.
        missed = chi2.noncentral_cdf(det.tau, det.dof, lam)
        alarms = None
        if runs > 0:
            alarms = np.array(_count_alarms(gains, det.residual, scale, (seed, ai),
                                            det.tau, runs))
        curves.append(RiskCurve(
            attack_id=attack_id,
            mu=mu,
            k_a=np.where(mu == 0.0, 0, attack.k_a),
            k_d=attack.k_d,
            lam=lam,
            delta=1.0 - missed,
            impact=impact,
            risk=missed * impact,
            runs=runs,
            alarms=alarms,
        ))
    return curves


def default_mu_grid(mu_max: float = 0.5, mu_points: int = 200) -> np.ndarray:
    """Uniform magnitudes in (0, mu_max]; mu_max = 0 collapses to a zero grid.

    Magnitudes past the float range come out inf, which risk_sweep rejects.
    """
    _check_count("mu_points", mu_points, 1)
    if not mu_max >= 0:
        raise ValueError(f"mu_max must be >= 0, not {mu_max!r}")
    with np.errstate(over="ignore"):
        return mu_max * np.arange(1, mu_points + 1) / mu_points


def tuple_attack_variants(perturbed: GridModel, target_j: int) -> list:
    """FDI and combined attacks on the target's critical tuple, as the
    attacker would build them from their own (perturbed) model.

    One certificate, built at the program magnitude mu = 0.1, feeds every
    variant, so they act on the same rows: the pure FDI corrupts the
    whole tuple, the combined variants keep one or two rows corrupted and
    withdraw the rest.  Any other magnitude is a rescaling, which
    risk_sweep does.  The tuple is alpha's support in the attacker's
    model, as `combined_index` reports it: on a cut-exact plan the
    smallest minimum cut's, which depends only on the plan and so not on
    the attacker's line weights.  Returned as (attack_id, AttackVector)
    pairs in increasing k_a order.
    """
    res = combined_index(IndexQuery(perturbed, target_j))
    beta = len(res.support)
    others = [i for i in res.support if i != target_j]
    # combined_k keeps the target and the k - 1 lowest-numbered other rows
    # corrupted and withdraws the rest
    family = [(f"combined_{k}_{beta - k}", others[k - 1:]) for k in (1, 2) if beta > k]
    family.append((f"fdi_{beta}", []))
    variants = []
    for attack_id, withdrawn in family:
        d = np.zeros(perturbed.m)
        d[[i - 1 for i in withdrawn]] = 1.0
        variants.append((attack_id, build_limited_knowledge_attack(
            perturbed, res.certificate_c, d, target_j)))
    return variants


def _format_curves(header: str, curves: Sequence[RiskCurve], tail: Callable) -> str:
    """header, then attack_id,mu,k_a,k_d,lambda,delta_theory and the
    curve's tail columns for each point, 12 significant digits, LF.

    tail(c) gives the template of the columns after delta_theory and the
    value lists that fill it.  Each curve's rows come from one % template
    with its id and k_d baked in, repeated once per point and filled in
    one operation; "%.12g" % x is f"{x:.12g}" for every double.  The mu
    column is formatted once per grid and shared by the curves on that
    grid.
    """
    parts = [header + "\n"]
    grid = mu_text = None
    for c in curves:
        if grid is None or not np.array_equal(c.mu, grid):
            grid, mu_text = c.mu, list(map("%.12g".__mod__, c.mu.tolist()))
        fmt, columns = tail(c)
        template = (str(c.attack_id).replace("%", "%%")
                    + ",%s,%d," + str(c.k_d) + ",%.12g,%.12g" + fmt + "\n")
        values = tuple(chain.from_iterable(zip(
            mu_text, c.k_a.tolist(), c.lam.tolist(), c.delta.tolist(), *columns)))
        parts.append(template * len(mu_text) % values)
    return "".join(parts)


def format_risk_csv(curves: Sequence[RiskCurve]) -> str:
    """Sweep CSV: one row per (attack, mu), 12 significant digits, LF.

    delta_empirical is left empty when no Monte Carlo runs were requested.
    """
    def tail(c: RiskCurve) -> tuple:
        values = [c.impact.tolist(), c.risk.tolist()]
        if c.alarms is None:
            return ",,%.12g,%.12g", values
        return ",%.12g,%.12g,%.12g", [c.delta_empirical.tolist(), *values]

    return _format_curves(
        "attack_id,mu,k_a,k_d,lambda,delta_theory,delta_empirical,impact,risk",
        curves, tail)


def format_detect_csv(curves: Sequence[RiskCurve]) -> str:
    """Detection CSV: one row per (attack, mu), 12 significant digits, LF.

    With Monte Carlo runs, each row adds the empirical rate and its 95%
    Wilson interval; those columns are left empty for a curve without runs.
    """
    header = "attack_id,mu,k_a,k_d,lambda,delta_theory"
    empirical = any(c.alarms is not None for c in curves)
    if empirical:
        header += ",delta_empirical,ci_low,ci_high"

    def tail(c: RiskCurve) -> tuple:
        if c.alarms is None:
            return (",,," if empirical else ""), []
        alarms = c.alarms.tolist()
        bounds = [_wilson_interval(a, c.runs) for a in alarms]
        return ",%.12g,%.12g,%.12g", [[a / c.runs for a in alarms],
                                      [low for low, _ in bounds],
                                      [high for _, high in bounds]]

    return _format_curves(header, curves, tail)
