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
from .chi2 import noncentral_cdf
from .detector import (
    BddConfig,
    detection_probability,
    make_bdd_config,
    residual_statistic,
)
from .estimator import compute_gains, compute_reduced_gains
from .network import GridModel
from .security import IndexQuery, combined_index

# Unused here since the Monte Carlo below draws and tests whole blocks,
# kept importable because perfbench/tracer.py patches these names.
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


def _draw_noise(model: GridModel, rng: np.random.Generator,
                out: np.ndarray) -> np.ndarray:
    """Fill out with the next out.size standard normals of rng, row by
    row, scaled by sigma: row k is the noise of the k-th run of the block."""
    rng.standard_normal(out=out)
    out *= model.sigma
    return out


def empirical_detection(
    model: GridModel,
    attack: AttackVector,
    config: BddConfig,
    runs: int,
    seed,
    gains=None,
) -> MonteCarloReport:
    """Alarm rate of the residual test over seeded Monte Carlo noise draws.

    One stream, np.random.default_rng(seed), feeds all runs: run i is the
    i-th block of m normals drawn from it, so the report does not depend
    on how the runs are grouped.  The statistic's distribution does not
    depend on the operating state, so runs synthesize around the zero
    state.  Runs are tested in blocks of MC_BLOCK: one residual product
    and one vectorised statistic test the whole block.  gains, when
    given, must match the attack's availability mask; by default they
    are computed here.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if gains is None:
        gains = _gains_for(model, attack)
    else:
        _check_gains_match(gains, attack)
    if config.dof != gains.dof:
        raise ValueError(
            f"config dof {config.dof} does not match reduced dof {gains.dof}"
        )
    base = _seed_tuple(seed)
    rng = np.random.default_rng(base)
    buf = np.empty((min(runs, MC_BLOCK), model.m))
    alarms = 0
    for start in range(0, runs, MC_BLOCK):
        z = _draw_noise(model, rng, buf[: runs - start])
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
    """Detection and risk curves over an attack-magnitude grid.

    base_attacks are (attack_id, AttackVector) pairs.  All attacks must
    act on the same critical tuple with the same resource count k_a+k_d;
    within such a family the attack likelihood is normalized to one and
    risk reduces to (1-delta)*impact.

    A rescaled attack is mu/mu0 times the base one, so each variant's
    noncentrality and impact are computed once and the grid follows in
    closed form: lambda = (mu/mu0)^2 lambda0, impact = |mu/mu0| impact0,
    and one vectorised noncentral CDF gives delta.  At mu = 0 nothing is
    corrupted, so k_a is 0 there.

    runs > 0 adds a Monte Carlo alarm count per point.  Each point draws
    its runs in order from one stream seeded by (seed, attack index,
    point index) and tests them serially with the variant's gains (see
    empirical_detection).  The mapper fans out over the grid points, so
    the counts do not depend on the thread count.
    """
    if not base_attacks:
        raise ValueError("no attacks to sweep")
    mu = np.array(mu_grid, dtype=float)
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
        gains = _gains_for(model, attack)
        det = detection_probability(gains, attack.a, alpha)
        scale = mu / attack.mu
        lam = scale * scale * det.lam
        # 1 - delta straight from the CDF keeps risk accurate where delta
        # rounds to 1
        missed = noncentral_cdf(det.tau, det.dof, lam)
        impact = np.abs(scale) * impact_metric(model, gains, attack).impact
        alarms = None
        if runs > 0:
            config = make_bdd_config(alpha, gains.dof)

            def alarm_count(item) -> int:
                pi, mu_i = item
                return empirical_detection(
                    model, scale_attack(attack, mu_i), config, runs,
                    seed=(seed, ai, pi), gains=gains,
                ).alarms

            alarms = np.array(list((mapper or map)(alarm_count,
                                                   list(enumerate(mu.tolist())))))
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
    grid = curves[0].mu
    if any(not np.array_equal(c.mu, grid) for c in curves):
        raise ValueError("risk curves must share one mu grid")
    if fixed_mu is None:
        fixed_mu = grid[len(grid) // 2]
    at = int(np.argmin(np.abs(grid - fixed_mu)))
    rows = []
    for c in curves:
        peak = int(np.argmax(c.risk))
        rows.append(
            {
                "attack_id": c.attack_id,
                "k_a": int(c.k_a[0]),
                "k_d": c.k_d,
                "peak_risk": float(c.risk[peak]),
                "peak_mu": float(grid[peak]),
                "fixed_mu": float(grid[at]),
                "risk_at_fixed_mu": float(c.risk[at]),
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
    one or two rows corrupted and withdraw the rest.  The tuple is
    alpha's support in the attacker's model, as `combined_index` reports
    it.  Returned as (attack_id, AttackVector) pairs in increasing k_a
    order.
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


def _theory_fields(c: RiskCurve) -> list:
    """attack_id,mu,k_a,k_d,lambda,delta_theory of each point of a curve."""
    return [
        f"{c.attack_id},{mu:.12g},{k_a},{c.k_d},{lam:.12g},{delta:.12g}"
        for mu, k_a, lam, delta in zip(
            c.mu.tolist(), c.k_a.tolist(), c.lam.tolist(), c.delta.tolist())
    ]


def format_risk_csv(curves: Sequence[RiskCurve]) -> str:
    """Sweep CSV: one row per (attack, mu), 12 significant digits, LF.

    delta_empirical is left empty when no Monte Carlo runs were requested.
    """
    lines = ["attack_id,mu,k_a,k_d,lambda,delta_theory,delta_empirical,impact,risk"]
    for c in curves:
        emp = ([""] * len(c.mu) if c.alarms is None
               else [f"{v:.12g}" for v in c.delta_empirical.tolist()])
        lines.extend(
            f"{head},{e},{impact:.12g},{risk:.12g}"
            for head, e, impact, risk in zip(
                _theory_fields(c), emp, c.impact.tolist(), c.risk.tolist())
        )
    return "\n".join(lines) + "\n"


def format_detect_csv(curves: Sequence[RiskCurve]) -> str:
    """Detection CSV: one row per (attack, mu), 12 significant digits, LF.

    With Monte Carlo runs, each row adds the empirical rate and its 95%
    Wilson interval.
    """
    header = "attack_id,mu,k_a,k_d,lambda,delta_theory"
    if any(c.alarms is not None for c in curves):
        header += ",delta_empirical,ci_low,ci_high"
    lines = [header]
    for c in curves:
        if c.alarms is None:
            lines.extend(_theory_fields(c))
            continue
        for head, alarms in zip(_theory_fields(c), c.alarms.tolist()):
            low, high = _wilson_interval(alarms, c.runs)
            lines.append(f"{head},{alarms / c.runs:.12g},{low:.12g},{high:.12g}")
    return "\n".join(lines) + "\n"
