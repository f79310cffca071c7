"""Operational risk of combined attacks: impact on load estimates,
empirical detection rates, and magnitude sweeps.

Risk weighs what an attack does to the injection estimates against how
likely the operator is to notice it: R = (1 - delta) * impact.  Attacks
are compared only within families that share one critical tuple and one
resource cost, where the attack likelihood can be normalized away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .attack import AttackVector, PerturbedModel, scale_attack
from .attack import build_limited_knowledge_attack
from .detector import (
    BddConfig,
    detection_probability,
    make_bdd_config,
    residual_statistic,
)
from .estimator import EstimatorGains, ReducedGains, compute_gains, compute_reduced_gains
from .network import GridModel
from .security import IndexQuery, combined_index

# The per-run reference path of the batched Monte Carlo below, kept
# importable here because perfbench/tracer.py patches these names.
from .detector import j_test  # noqa: F401
from .network import synthesize_measurements  # noqa: F401

# z for a two-sided 95% interval
_Z95 = 1.959963984540054
# Monte Carlo runs drawn and tested together: memory stays O(block * m)
# for any run count, and the default 1000 runs are a single block.
MC_BLOCK = 4096


@dataclass(frozen=True)
class ImpactAnalysis:
    """Expected bias the attack leaves on the injection estimates.

    injection_rows are measurement numbers (1-based).  bias is the
    expected estimate shift H_inj K_d a per injection row; impact is its
    2-norm.
    """

    injection_rows: np.ndarray
    H_inj: np.ndarray
    bias: np.ndarray
    impact: float


@dataclass(frozen=True)
class RiskPoint:
    mu: float
    k_a: int
    k_d: int
    lam: float
    delta: float
    impact: float
    risk: float
    delta_empirical: Optional[float] = None


@dataclass(frozen=True)
class RiskCurve:
    attack_id: str
    points: tuple


@dataclass(frozen=True)
class MonteCarloReport:
    runs: int
    alarms: int
    empirical_delta: float
    ci_low: float
    ci_high: float
    seed: tuple


def _gains_for(model: GridModel, attack: AttackVector):
    if attack.k_d > 0:
        return compute_reduced_gains(model, attack.d)
    return compute_gains(model)


def _check_gains_match(gains, attack: AttackVector):
    d = getattr(gains, "d", None)
    if d is None:
        if attack.k_d != 0:
            raise ValueError("attack withdraws measurements but gains are unreduced")
    elif not np.array_equal(d, attack.d):
        raise ValueError("gains were computed for a different availability mask")


def impact_metric(model: GridModel, gains, attack: AttackVector) -> ImpactAnalysis:
    """Impact = 2-norm of the expected injection-estimate bias H_inj K_d a.

    The injection rows of the true model matter even when some of them
    are withdrawn: the operator still publishes estimates for them.
    """
    _check_gains_match(gains, attack)
    inj0 = model.injection_rows()
    h_inj = model.H[inj0]
    bias = h_inj @ (gains.K @ attack.a)
    return ImpactAnalysis(
        injection_rows=inj0 + 1,
        H_inj=h_inj,
        bias=bias,
        impact=float(np.linalg.norm(bias)),
    )


def _wilson_interval(alarms: int, runs: int) -> tuple:
    phat = alarms / runs
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / runs
    center = (phat + z2 / (2.0 * runs)) / denom
    half = _Z95 * math.sqrt(phat * (1.0 - phat) / runs + z2 / (4.0 * runs * runs))
    half /= denom
    return max(0.0, center - half), min(1.0, center + half)


def _seed_tuple(seed) -> tuple:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _draw_noise(model: GridModel, base: tuple, start: int, out: np.ndarray,
                mapper: Optional[Callable] = None) -> np.ndarray:
    """Fill row k of out with the noise of run start + k, scaled by sigma.

    Run i draws from its own stream seeded by base + (i,), the same
    stream and values synthesize_measurements(model, 0, seed=base + (i,))
    draws, so the rows do not depend on block size or execution order.
    """

    def draw(k: int):
        np.random.default_rng(base + (start + k,)).standard_normal(out=out[k])

    for _ in (mapper or map)(draw, range(len(out))):
        pass
    out *= model.sigma
    return out


def empirical_detection(
    model: GridModel,
    attack: AttackVector,
    config: BddConfig,
    runs: int,
    seed,
    mapper: Optional[Callable] = None,
) -> MonteCarloReport:
    """Alarm rate of the residual test over seeded Monte Carlo noise draws.

    Run i draws its own stream from (seed, i), so the report does not
    depend on execution order and a parallel mapper gives identical
    results.  The statistic's distribution does not depend on the
    operating state, so runs synthesize around the zero state.  Runs are
    tested in blocks of MC_BLOCK: the mapper fans out the per-run draws
    of a block, each writing its own row, and one residual product and
    one vectorised statistic then test the whole block.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    gains = _gains_for(model, attack)
    if config.dof != gains.dof:
        raise ValueError(
            f"config dof {config.dof} does not match reduced dof {gains.dof}"
        )
    base = _seed_tuple(seed)
    buf = np.empty((min(runs, MC_BLOCK), model.m))
    alarms = 0
    for start in range(0, runs, MC_BLOCK):
        z = _draw_noise(model, base, start, buf[: runs - start], mapper)
        z += attack.a
        alarms += int(np.count_nonzero(residual_statistic(gains, z) > config.tau))
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
    mapper: Optional[Callable] = None,
) -> list:
    """Risk curves over an attack-magnitude grid.

    base_attacks are (attack_id, AttackVector) pairs.  All attacks must
    act on the same critical tuple with the same resource count k_a+k_d;
    within such a family the attack likelihood is normalized to one and
    risk reduces to (1-delta)*impact.  runs > 0 adds an empirical alarm
    rate per point, seeded per (seed, attack index, point index, run).
    The mapper fans out over grid points only.  Each point draws its
    Monte Carlo runs serially and tests them in batches (see
    empirical_detection); workers waiting on inner tasks queued behind
    them in the same pool would deadlock.
    """
    if not base_attacks:
        raise ValueError("no attacks to sweep")
    mu_grid = [float(v) for v in mu_grid]
    tuples = {_tuple_rows(atk) for _, atk in base_attacks}
    budgets = {atk.k_a + atk.k_d for _, atk in base_attacks}
    if len(tuples) != 1 or len(budgets) != 1:
        raise ValueError(
            "mixed-index attack list rejected: attacks must share one "
            "critical tuple and one resource count"
        )
    curves = []
    for ai, (attack_id, attack) in enumerate(base_attacks):
        gains = _gains_for(model, attack)

        def one_point(item) -> RiskPoint:
            pi, mu = item
            scaled = attack if mu == attack.mu else scale_attack(attack, mu)
            det = detection_probability(gains, scaled.a, alpha)
            ana = impact_metric(model, gains, scaled)
            emp = None
            if runs > 0:
                cfg = make_bdd_config(alpha, gains.dof)
                report = empirical_detection(
                    model, scaled, cfg, runs, seed=(seed, ai, pi)
                )
                emp = report.empirical_delta
            return RiskPoint(
                mu=mu,
                k_a=scaled.k_a,
                k_d=scaled.k_d,
                lam=det.lam,
                delta=det.delta,
                impact=ana.impact,
                risk=(1.0 - det.delta) * ana.impact,
                delta_empirical=emp,
            )

        points = list((mapper or map)(one_point, list(enumerate(mu_grid))))
        curves.append(RiskCurve(attack_id=attack_id, points=tuple(points)))
    return curves


def default_mu_grid(mu_max: float = 0.5, mu_points: int = 200) -> np.ndarray:
    """Uniform magnitudes in (0, mu_max]; mu_max = 0 collapses to a zero grid."""
    if mu_points < 1:
        raise ValueError("mu_points must be >= 1")
    return mu_max * np.arange(1, mu_points + 1) / mu_points


def compare_attacks(curves: Sequence[RiskCurve], fixed_mu: Optional[float] = None) -> list:
    """Rank attack variants by peak risk, then risk at a fixed magnitude.

    Ties break toward fewer corrupted measurements, then by id.  Returns
    table rows as dicts, rank 1 first.
    """
    if not curves:
        raise ValueError("no risk curves to compare")
    grids = {tuple(p.mu for p in c.points) for c in curves}
    if len(grids) != 1:
        raise ValueError("risk curves must share one mu grid")
    grid = list(grids.pop())
    if fixed_mu is None:
        fixed_mu = grid[len(grid) // 2]
    at = min(range(len(grid)), key=lambda i: abs(grid[i] - fixed_mu))
    rows = []
    for c in curves:
        peak = max(range(len(grid)), key=lambda i: c.points[i].risk)
        rows.append(
            {
                "attack_id": c.attack_id,
                "k_a": c.points[0].k_a,
                "k_d": c.points[0].k_d,
                "peak_risk": c.points[peak].risk,
                "peak_mu": c.points[peak].mu,
                "fixed_mu": grid[at],
                "risk_at_fixed_mu": c.points[at].risk,
            }
        )
    rows.sort(
        key=lambda r: (-r["peak_risk"], -r["risk_at_fixed_mu"], r["k_a"], r["attack_id"])
    )
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def tuple_attack_variants(
    perturbed: PerturbedModel,
    target_j: int,
    mu: float = 0.1,
) -> list:
    """FDI and combined attacks on the target's critical tuple, as the
    attacker would build them from their own (perturbed) model.

    One certificate feeds every variant, so they act on the same rows:
    the pure FDI corrupts the whole tuple, the combined variants keep
    one or two rows corrupted and withdraw the rest.  Returned as
    (attack_id, AttackVector) pairs in increasing k_a order.
    """
    res = combined_index(IndexQuery(h=perturbed.H, target_j=target_j, mu=mu))
    support = list(res.support)
    beta = len(support)
    others = [i for i in support if i != target_j]
    m = perturbed.H.shape[0]
    variants = []

    def mask(withdrawn) -> np.ndarray:
        d = np.zeros(m)
        for i in withdrawn:
            d[i - 1] = 1.0
        return d

    if beta >= 2:
        d1 = mask(others)
        variants.append(
            (
                f"combined_1_{beta - 1}",
                build_limited_knowledge_attack(perturbed, res.certificate_c, d1, target_j),
            )
        )
    if beta >= 3:
        d2 = mask(others[1:])  # keep the lowest-numbered other row corrupted
        variants.append(
            (
                f"combined_2_{beta - 2}",
                build_limited_knowledge_attack(perturbed, res.certificate_c, d2, target_j),
            )
        )
    variants.append(
        (
            f"fdi_{beta}",
            build_limited_knowledge_attack(perturbed, res.certificate_c, None, target_j),
        )
    )
    return variants


def format_risk_csv(curves: Sequence[RiskCurve]) -> str:
    """Sweep CSV: one row per (attack, mu), 12 significant digits, LF.

    delta_empirical is left empty when no Monte Carlo runs were requested.
    """
    lines = ["attack_id,mu,k_a,k_d,lambda,delta_theory,delta_empirical,impact,risk"]
    for c in curves:
        for p in c.points:
            emp = "" if p.delta_empirical is None else f"{p.delta_empirical:.12g}"
            lines.append(
                f"{c.attack_id},{p.mu:.12g},{p.k_a},{p.k_d},{p.lam:.12g},"
                f"{p.delta:.12g},{emp},{p.impact:.12g},{p.risk:.12g}"
            )
    return "\n".join(lines) + "\n"
