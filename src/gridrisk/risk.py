"""Operational risk of combined attacks: impact on load estimates,
empirical detection rates, and magnitude sweeps.

Risk weighs what an attack does to the injection estimates against how
likely the operator is to notice it: R = (1 - delta) * impact.  Attacks
are compared only within families that share one critical tuple and one
resource cost, where the attack likelihood can be normalized away.
Every attack is evaluated under the gains of its own availability mask;
a pure FDI attack has the empty mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

import numpy as np

from .attack import AttackVector
from .attack import build_limited_knowledge_attack
from .chi2 import noncentral_cdf
from .detector import BddConfig, detection_probability, snapped_residual
from .estimator import compute_reduced_gains
from .network import GridModel
from .security import IndexQuery, combined_index, row_structure

# Unused here since the Monte Carlo below tests whole blocks through the
# gains' weighted residual operator, without rescaled attacks or
# per-run tests, and every attack's gains come from its own mask;
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
# Grid points per mapped Monte Carlo task; a task's points share one
# residual buffer instead of allocating one each.
_SLICE_POINTS = 16


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


def impact_metric(model: GridModel, gains, attack: AttackVector) -> ImpactAnalysis:
    """Impact = 2-norm of the expected injection-estimate bias H_inj K_d a.

    The injection rows of the true model matter even when some of them
    are withdrawn: the operator still publishes estimates for them.
    """
    if not np.array_equal(gains.d, attack.d):
        raise ValueError("gains were computed for a different availability mask")
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


def _count_alarms(noise_op: np.ndarray, shifts: np.ndarray, seed, tau: float,
                  runs: int, mapper: Optional[Callable] = None) -> list:
    """Alarm count of each row of shifts: the runs out of `runs` whose
    weighted residual e @ noise_op + shift has squared norm above tau, e
    being the run's m unscaled standard normals.

    Every shift is tested on the same runs: run i is the i-th row of m
    normals drawn from default_rng(seed).  The runs go in blocks of up to
    MC_BLOCK; each block's normals are drawn once and its base residual
    e @ noise_op formed once, then the mapper fans out over slices of
    _SLICE_POINTS shifts, and each slice adds its shifts to the base
    through one residual buffer, so memory stays O(MC_BLOCK * m) per
    thread.  The counts depend neither on MC_BLOCK nor on the slice
    length nor on the mapper.
    """
    rng = np.random.default_rng(seed)
    block = min(runs, MC_BLOCK)
    e = np.empty((block, noise_op.shape[0]))
    base = np.empty((block, noise_op.shape[1]))
    counts = np.zeros(len(shifts), dtype=np.int64)
    for start in range(0, runs, MC_BLOCK):
        n = min(runs - start, block)
        rng.standard_normal(out=e[:n])
        rows = np.matmul(e[:n], noise_op, out=base[:n])

        def slice_alarms(first: int) -> list:
            r = np.empty_like(rows)
            alarms = []
            for shift in shifts[first:first + _SLICE_POINTS]:
                np.add(rows, shift, out=r)
                alarms.append(np.count_nonzero(np.einsum("ij,ij->i", r, r) > tau))
            return alarms

        counts += list(chain.from_iterable((mapper or map)(
            slice_alarms, range(0, len(shifts), _SLICE_POINTS))))
    return counts.tolist()


def empirical_detection(
    model: GridModel,
    attack: AttackVector,
    config: BddConfig,
    runs: int,
    seed,
) -> MonteCarloReport:
    """Alarm rate of the residual test over seeded Monte Carlo noise draws.

    One stream, np.random.default_rng(seed), feeds all runs: run i is the
    i-th row of m normals drawn from it, so the report does not depend
    on how the runs are grouped.  The statistic's distribution does not
    depend on the operating state, so runs test noise plus the attack
    around the zero state.  The noise is drawn unscaled: sigma and the
    withdrawal mask live in the operator diag(sigma) W (W being the gains'
    weighted residual operator), and the attack adds the fixed shift
    a @ W, its rounding residue snapped to zero.  The attack is the
    single shift of _count_alarms, so the alarm count is
    Binomial(runs, delta) and equals risk_sweep's count at this attack's
    magnitude when seed is (sweep seed, variant index).
    The gains are those of the attack's availability mask, the empty
    mask for a pure FDI attack.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    gains = compute_reduced_gains(model, attack.d)
    if config.dof != gains.dof:
        raise ValueError(
            f"config dof {config.dof} does not match gains dof {gains.dof}"
        )
    base = _seed_tuple(seed)
    (alarms,) = _count_alarms(gains.sigma[:, None] * gains.W,
                              _shift(gains, attack)[None], base, config.tau, runs)
    low, high = _wilson_interval(alarms, runs)
    return MonteCarloReport(
        runs=runs,
        alarms=alarms,
        empirical_delta=alarms / runs,
        ci_low=low,
        ci_high=high,
        seed=base,
    )


def _shift(gains, attack: AttackVector) -> np.ndarray:
    """The attack's weighted residual a @ W over the kept rows, rounding
    residue snapped to zero as in `detector.noncentrality`, so an exactly
    stealthy attack adds nothing to the noise at any magnitude."""
    return snapped_residual(attack.a @ gains.W, attack.a, gains.sigma)


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

    runs > 0 adds a Monte Carlo alarm count per point.  Each variant
    draws its runs from one stream seeded by (seed, attack index), and
    every point of the variant is tested on those same runs (common
    random numbers): unscaled normals through the variant's operator
    diag(sigma) W, plus the point's shift (mu/mu0) a0 @ W, so no rescaled
    attack is built.  lambda0 and a0 @ W have their rounding residue
    snapped to zero, so an exactly stealthy variant stays at the
    false-alarm rate at every magnitude.  The points of a curve are
    therefore correlated, while each point's count is still
    Binomial(runs, delta(mu)) and
    equals empirical_detection's count for the rescaled attack with seed
    (seed, attack index).  _count_alarms draws each block of runs once
    and the mapper fans out over slices of _SLICE_POINTS points, so the
    counts depend neither on the block size, the slice length nor the
    thread count.

    Past lambda ~ 1e19 the noncentral CDF is nan; there lambda is far
    above the threshold, so delta is 1 and risk 0.  Raises ValueError
    when a magnitude, lambda or impact is not finite: (mu/mu0)^2 lambda0
    and |mu/mu0| impact0 may overflow.
    """
    if not base_attacks:
        raise ValueError("no attacks to sweep")
    mu = np.array(mu_grid, dtype=float)
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
        det = detection_probability(gains, attack.a, alpha)
        # past the float range these products are inf or nan: rejected
        # below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            scale = mu / attack.mu
            lam = scale * scale * det.lam
            impact = np.abs(scale) * impact_metric(model, gains, attack).impact
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(impact))):
            raise ValueError(f"lambda or impact of {attack_id} is not finite "
                             "on this magnitude grid")
        # 1 - delta straight from the CDF keeps risk accurate where delta
        # rounds to 1.  The CDF is nan, not 0, past lambda ~ 1e19, where
        # tau lies billions of standard deviations below lambda.
        missed = noncentral_cdf(det.tau, det.dof, lam)
        missed[np.isnan(missed) & (lam > det.tau)] = 0.0
        alarms = None
        if runs > 0:
            alarms = np.array(_count_alarms(
                gains.sigma[:, None] * gains.W, np.outer(scale, _shift(gains, attack)),
                (seed, ai), det.tau, runs, mapper))
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
    if mu_points < 1:
        raise ValueError("mu_points must be >= 1")
    if mu_max < 0:
        raise ValueError("mu_max must be >= 0")
    with np.errstate(over="ignore"):
        return mu_max * np.arange(1, mu_points + 1) / mu_points


def compare_attacks(curves: Sequence[RiskCurve], fixed_mu: Optional[float] = None) -> list:
    """Rank attack variants by peak risk, then risk at a fixed magnitude.

    Ties break toward fewer corrupted measurements, then by id.  A row's
    k_a is its variant's count off the zero magnitudes, where nothing is
    corrupted.  Returns table rows as dicts, rank 1 first.
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
                "k_a": int(c.k_a.max()),
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


def tuple_attack_variants(perturbed: GridModel, target_j: int) -> list:
    """FDI and combined attacks on the target's critical tuple, as the
    attacker would build them from their own (perturbed) model.

    One certificate, built at the program magnitude mu = 0.1, feeds every
    variant, so they act on the same rows: the pure FDI corrupts the
    whole tuple, the combined variants keep one or two rows corrupted and
    withdraw the rest.  Any other magnitude is a rescaling, which
    risk_sweep does.  The tuple is alpha's support in the attacker's
    model, as `combined_index` reports it given the model's
    `row_structure`: on a cut-exact plan the smallest minimum cut's,
    which depends only on the plan and so not on the attacker's line
    weights.  Returned as (attack_id, AttackVector) pairs in increasing
    k_a order.
    """
    res = combined_index(IndexQuery(h=perturbed.H, target_j=target_j),
                         row_structure(perturbed))
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
