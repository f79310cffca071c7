"""Residual-based bad-data detection and attack detection probabilities.

The detector compares the weighted residual statistic ||R^-1/2 r||^2
against a chi-squared threshold chosen for a given false-alarm rate.
`estimator.weighted_residual` applies R^-1/2 and the withdrawal mask, so
the statistic of z is the squared norm of that residual under any mask,
the empty mask of the full measurement set included.  An attack's
residual is the same residual with its rounding residue snapped to zero
(`attack_residual`).  Under an additive attack the statistic follows a
noncentral chi-squared law, which gives closed-form detection
probabilities: `detection_probability` is the one evaluation of an
attack, and returns its residual with the noncentrality (the residual's
squared norm), the threshold and delta, so the Monte Carlo adds that
same vector to every run.  It is also where a mask that leaves the
residual test no degrees of freedom is refused, with UnobservableError,
for the closed form and the Monte Carlo alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import SNAP_TOL
from .chi2 import detection_delta, threshold
from .estimator import weighted_residual
from .network import UnobservableError


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
    """Weighted residual statistic ||R^-1/2 S z||^2 over the kept rows.

    z is one measurement vector of shape (m,), or a batch with one vector
    per row, shape (runs, m); the result is a scalar or one statistic per
    row.  The residual is zero on the masked rows, so they are excluded.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != gains.m:
        raise ValueError(f"z must have shape ({gains.m},) or (runs, {gains.m})")
    r = weighted_residual(gains, z)
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


def attack_residual(gains, a) -> np.ndarray:
    """The weighted residual R^-1/2 S a of attack vector a over the kept
    rows, with every entry at most SNAP_TOL times the largest
    |a_i / sigma_i| set to exactly zero.

    An exactly stealthy attack leaves only rounding residue in the
    residual, and a rescaled attack would scale that residue up with it:
    at mu = 1e150 it reads as a certain detection.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (gains.m,):
        raise ValueError(f"attack vector must have shape ({gains.m},)")
    r = weighted_residual(gains, a)
    floor = SNAP_TOL * np.max(np.abs(a / gains.sigma), initial=0.0)
    return np.where(np.abs(r) <= floor, 0.0, r)


@dataclass(frozen=True, eq=False)
class DetectionAnalysis:
    """One attack under one set of gains: its `attack_residual` (read-only),
    the noncentrality lam = residual @ residual, the degrees of freedom,
    the threshold tau at the caller's false-alarm rate, and the detection
    probability delta."""

    residual: np.ndarray
    lam: float
    dof: int
    tau: float
    delta: float

    def __post_init__(self):
        self.residual.setflags(write=False)


def detection_probability(gains, a, alpha: float) -> DetectionAnalysis:
    """Theoretical detection probability of attack vector a under gains.

    delta = 1 - F(tau; dof, lambda) with F the noncentral chi-squared CDF,
    lambda = ||R^-1/2 S a||^2 and tau the threshold at false-alarm rate
    alpha for the gains' degrees of freedom.  At lambda = 0 this reduces
    to delta = alpha.  The residual is formed once, here, and returned
    with lambda, so the Monte Carlo shifts its runs by the same vector
    whose squared norm is lambda.  Raises UnobservableError when the
    gains' kept rows leave the residual test no degrees of freedom
    (dof < 1), before alpha is checked.
    """
    r = attack_residual(gains, a)
    if gains.dof < 1:
        raise UnobservableError(
            f"the kept rows leave the residual test no redundancy (dof {gains.dof})")
    lam = float(r @ r)
    tau = threshold(alpha, gains.dof)
    return DetectionAnalysis(
        residual=r,
        lam=lam,
        dof=gains.dof,
        tau=tau,
        delta=detection_delta(tau, gains.dof, lam),
    )
