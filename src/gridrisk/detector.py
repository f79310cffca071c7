"""Residual-based bad-data detection and attack detection probabilities.

The detector compares the weighted residual statistic ||R^-1/2 r||^2
against a chi-squared threshold chosen for a given false-alarm rate.
The gains' weighted residual operator W carries both R^-1/2 and the
withdrawal mask, so the statistic of z is ||z @ W||^2 under any mask,
the empty mask of the full measurement set included.
Under an additive attack the statistic follows a noncentral chi-squared
law, which gives closed-form detection probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import SNAP_TOL
from .chi2 import detection_delta, threshold


@dataclass(frozen=True)
class BddConfig:
    """Detector configuration: false-alarm rate, degrees of freedom, threshold."""

    alpha: float
    dof: int
    tau: float


def make_bdd_config(alpha: float, dof: int) -> BddConfig:
    return BddConfig(alpha=alpha, dof=dof, tau=threshold(alpha, dof))


@dataclass(frozen=True)
class BddOutcome:
    statistic: float
    tau: float
    bad: bool


def residual_statistic(gains, z):
    """Weighted residual statistic ||R^-1/2 S z||^2 over the kept rows,
    computed as ||z @ W||^2.

    z is one measurement vector of shape (m,), or a batch with one vector
    per row, shape (runs, m); the result is a scalar or one statistic per
    row.  W has no columns for the masked rows, so they are excluded.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != gains.m:
        raise ValueError(f"z must have shape ({gains.m},) or (runs, {gains.m})")
    r = z @ gains.W
    return np.einsum("...i,...i->...", r, r)


def j_test(gains, z, config: BddConfig) -> BddOutcome:
    """Chi-squared bad-data test on the residual of z.

    The gains' masked rows are excluded from the statistic; config.dof
    must match the gains' degrees of freedom.  The verdict is
    bad only when the statistic strictly exceeds the threshold.
    """
    if config.dof != gains.dof:
        raise ValueError(
            f"config dof {config.dof} does not match gains dof {gains.dof}"
        )
    statistic = float(residual_statistic(gains, z))
    return BddOutcome(statistic=statistic, tau=config.tau, bad=statistic > config.tau)


def snapped_residual(r, a, sigma):
    """The weighted attack residual r with every entry at most SNAP_TOL
    times the largest |a_i / sigma_i| set to exactly zero.

    An exactly stealthy attack leaves only rounding residue in r, and a
    rescaled attack would scale that residue up with it: at mu = 1e150
    it reads as a certain detection.
    """
    floor = SNAP_TOL * np.max(np.abs(a / sigma), initial=0.0)
    return np.where(np.abs(r) <= floor, 0.0, r)


def noncentrality(gains, a) -> float:
    """Noncentrality lambda = ||R^-1/2 S a||^2 induced by attack vector a
    over the kept rows, rounding residue snapped to zero
    (`snapped_residual`).

    S's withdrawn rows are unit rows that the detector never sees, so
    their terms are zeroed, not dropped: the sum keeps its grouping.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (gains.m,):
        raise ValueError(f"attack vector must have shape ({gains.m},)")
    r = gains.S @ a / gains.sigma
    r[gains.d == 1.0] = 0.0
    return float(np.sum(snapped_residual(r, a, gains.sigma) ** 2))


@dataclass(frozen=True)
class DetectionAnalysis:
    lam: float
    dof: int
    tau: float
    alpha: float
    delta: float


def detection_probability(gains, a, alpha: float) -> DetectionAnalysis:
    """Theoretical detection probability of attack vector a under gains.

    delta = 1 - F(tau; dof, lambda) with F the noncentral chi-squared CDF,
    lambda = ||R^-1/2 S a||^2 and tau the threshold at false-alarm rate
    alpha for the gains' degrees of freedom.  At lambda = 0 this reduces
    to delta = alpha.
    """
    lam = noncentrality(gains, a)
    tau = threshold(alpha, gains.dof)
    return DetectionAnalysis(
        lam=lam,
        dof=gains.dof,
        tau=tau,
        alpha=alpha,
        delta=detection_delta(tau, gains.dof, lam),
    )
